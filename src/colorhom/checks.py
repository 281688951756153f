"""Identity checks, operator predicates and quadratic clauses, with exact witnesses.

Every check quantifies a declared condition over basis tuples (sufficient by
multilinearity: once degrees are fixed, both sides are linear in each slot).
A failing check returns the first offending tuple in lexicographic slot
order (z-major for invariance) with the exactly evaluated left and right
sides, so every reported failure can be replayed.

Every condition is declared once, in one term language (signed sums of
products, alpha(.), f(.) and the form over the arguments, with eps signs),
and one compiler, _slice, turns each declaration into slices: for each
index of the first slot, one dict of left - right at every later tuple and
output key.  Each term is one loop nest over the nonzero contributions it
names (_nest): a product step is one loop over the flat entries of the
algebra's product index (core.ProductIndex), or, beside an alpha, of the
declared product x*alpha(y) or alpha(x)*y (_twisted, built only for the
slices that read it), so each identity term is two loops; alpha
elsewhere through its columns, f through its columns and inverse lists,
the form through its sparse Gram rows; a term of degree 2 in f is one
chained nest.  A tuple no slice reaches has every term zero, so
the first tuple with a nonzero value (mod p over F_p) is the first failing
tuple of a scan over every tuple, and the sides, compiled per tuple
(_compiled), run there alone for the witness (_first_failure).  One
generator, _tuple_source, compiles a declaration's sides at a basis tuple
as accumulations that call no kernel function: a witness's (left, right),
and the (r, slope) of a condition a search visits (colorhom.search).

An identity scan visits canonical tuples only (_canonical, _SYMMETRIES).
Where a right side is +-eps(x_s, x_t) times the left with slots s and t
swapped, and in every slot pair of the cyclic sums, the residual at the swap
of a tuple is a unit times the residual there, as long as eps(d, e) eps(e,
d) = 1 on the algebra's degrees; the hom-Jacobi and cyclic sums take one
value on the rotations of a tuple.  Failures thus come in whole orbits,
the first failing tuple is the least of its orbit, and the least keeps x_s
<= x_t for each such pair, so a slice compiled to skip the other tuples
(_slice_source with canonical) yields the witness a scan of every tuple
yields.  A swap on an eps table failing that equation is not used.  A scan
that passes is recorded on the algebra, and on an algebra where
skew-symmetry has passed, the hom-Jacobi sum is also eps-alternating in its
last two slots (_GAINED).  Each scan's slice (_SCANS) and the commutator
check_lie_admissible builds are kept on it too, and nothing kept refers
back to it; a repeated check of one algebra object costs its slices.

The constructions' products are declared in the same language, with two
slots and no right side (_PRODUCTS): slice i holds row i.  One pass over
the slices (_product_table) gives the rows, stored for an output
(_product_algebra) or kept as the kernel sums them for the index of a
twisted product (_twisted); an output lists its own index on first read.

PREDICATE_CONDITIONS lists each operator predicate's condition groups in
the order they run; colorhom.search reads them to search for the maps a
predicate accepts.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import count
from typing import NamedTuple

from .core import (
    ColorHomAlgebra,
    GradedLinearMap,
    ProductIndex,
    _EMPTY,
    _algebra_of_fields,
    _column_rows,
    _nonzero,
    _product_index,
    _require_even_endo,
    _require_grading,
    _uneven,
    dense_vector,
    sparse_vector,
)
from .errors import StructureError, _Record
from .grading import _validated

__all__ = [
    "Witness",
    "Verdict",
    "PASS",
    "check_epsilon_commutative",
    "check_hom_associative",
    "check_hom_novikov",
    "check_right_commutative",
    "check_left_symmetric",
    "check_hom_lie",
    "check_lie_admissible",
    "check_cyclic_commutator_products",
    "check_multiplicative",
    "check_regular",
    "check_involutive",
    "is_weak_morphism",
    "is_morphism",
    "is_derivation",
    "is_averaging",
    "is_centroid",
    "is_rota_baxter",
    "in_alpha_center",
    "commutes_with_twist",
    "check_bracket_operator_conditions",
    "PREDICATE_CONDITIONS",
    "IDENTITY_ARITY",
    "IDENTITIES_BY_CHECK",
]


class Witness(_Record):
    """A replayable counterexample: which identity, where, and both sides.

    left/right are coordinate tuples (scalar comparisons use length-1
    tuples); checks that fail for a non-evaluative reason (a singular map)
    carry left = right = None.
    """

    __match_args__ = ("identity", "indices", "left", "right")

    def __init__(self, identity: str, indices: tuple[int, ...], left: tuple | None, right: tuple | None):
        # object.__setattr__ keeps the fields in the instance's compact storage: vars(self) would build a dict
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Verdict(_Record):
    """A check's outcome: a pass, with no witness, or a failure with its witness; truthy when it passes."""

    __match_args__ = ("passes", "witness")

    def __init__(self, passes: bool, witness: Witness | None = None):
        object.__setattr__(self, "passes", passes)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.passes


PASS = Verdict(True)


def _fail(identity: str, indices, left, right) -> Verdict:
    return Verdict(False, Witness(identity, tuple(indices), left, right))


# ---------------------------------------------------------------------------
# the term language
#
# A side is a sum of terms (sign, factors, node).  A node is the argument in
# slot p (the int p) or one of F(x) = f(x), A(x) = alpha(x), P(x, y) = x*y and
# B(x, y), the form on two sub-terms (a scalar, kept at key 0).  Nodes under an
# F live in the source algebra and all others in the target.  A coefficient is
# the sign times its factors: F0 = eps(deg f, deg x_0), WEIGHT, the Rota-Baxter
# weight, and a slot pair (s, t), eps(deg x_s, deg x_t).  A bracket
# [u, v] = u*v - eps(u, v) v*u gives two terms.

F = NamedTuple("F", [("x", object)])
A = NamedTuple("A", [("x", object)])
P = NamedTuple("P", [("x", object), ("y", object)])
B = NamedTuple("B", [("x", object), ("y", object)])

# coefficient factors: F0 and WEIGHT as Python source, and slot pairs (see _slice_source, _tuple_source)
F0, WEIGHT = "_eps_f(source, f, eps_f, k0)", "weight"
E01, E12, E20 = (0, 1), (1, 2), (2, 0)


class _Scope(NamedTuple):
    """What a condition's terms read besides their arguments."""

    target: ColorHomAlgebra
    source: ColorHomAlgebra
    f: GradedLinearMap | None
    eps_f: dict  # degree -> eps(deg f, degree), filled as terms read it
    weight: object  # a kernel scalar
    form: object


def _eps_f(source: ColorHomAlgebra, f: GradedLinearMap, eps_f: dict, i: int):
    """eps(deg f, deg e_i): 1 for an even f, else evaluated once per degree and kept in eps_f."""
    if f.degree.is_zero:
        return 1
    d = source.degrees[i]
    if d not in eps_f:
        eps_f[d] = source.field.kernel_scalar(source.eps(f.degree, d))
    return eps_f[d]


def _path(node, slot: int, under: bool = False):
    """(node, position of the child holding slot, under an F) from the leaf's parent up to the root; None without slot."""
    if type(node) is int:
        return [] if node == slot else None
    for position, child in enumerate(node):
        if (below := _path(child, slot, under or type(node) is F)) is not None:
            return [*below, (node, position, under)]


def _nest(node, slot: int) -> tuple:
    """The loops of one term with slot fixed, each (source, coefficient or None), the output key and f's coefficients.

    Climbing from the fixed leaf, a product loops once over the entries
    (other input, output key, coefficient) of its climbed input's row or
    column, then binds the other input's subtree from its index down (by_key,
    an inverse list).  In the target an alpha on either input of a product
    is read with it from a twisted product (_twisted), xa_ x*alpha(y) and
    ax_ alpha(x)*y: a climbed alpha(e_u) from ax_row or xa_col at u, another
    input alpha(y) from xa_row or ax_col at u, y then bound from its index;
    so each identity term is two loops.  An alpha or f elsewhere loops over
    its column, a form over a Gram row or column.  Names with s_ read the source algebra (under an F).
    """
    loops, names, read = [], (f"m{i}" for i in range(64)), []

    def name(x):
        return f"k{x}" if type(x) is int else next(names)

    def add(source, of_f=False):  # a loop binding the coefficient c<i> as its last name
        loops.append((source.format(c := f"c{len(loops)}"), c))
        read.extend([c] * of_f)

    def down(x, w, under):  # bind x's subtree from its output w; a slot binds nothing
        s = "s_" * under
        if type(x) is P:
            u, v = name(x.x), name(x.y)
            add(f"{u}, {v}, {{}} in {s}by_key[{w}]")
            down(x.x, u, under)
            down(x.y, v, under)
        elif type(x) is not int:
            u = name(x.x)
            add(f"{u}, {{}} in {'f_rows' if type(x) is F else s + 'alpha_rows'}[{w}]", type(x) is F)
            down(x.x, u, under or type(x) is F)

    u, path = f"k{slot}", _path(node, slot)
    for (x, position, under), above in zip(path, [x for x, _, _ in path[1:]] + [None]):
        s, other = "s_" * under, x[1 - position] if len(x) == 2 else None
        if type(x) is A and type(above) is P and not under:
            continue  # the product above reads alpha(e_u) from a twisted table
        if type(x) is P:
            if type(x[position]) is A and not under:
                entries = ("ax_row", "xa_col")[position]
            elif type(other) is A and not under:
                entries, other = ("xa_row", "ax_col")[position], other.x
            else:
                entries = f"{s}{('row', 'col')[position]}_entries"
            v, w = name(other), name(x)
            add(f"{v}, {w}, {{}} in {entries}[{u}]")
            down(other, v, under)
            u = w
        elif type(x) is B:  # a form's value is a scalar, at key 0
            v = name(other)
            add(f"{v}, {{}} in g_columns[{u}]" if position else f"{v}, {{}} in g_rows[{u}].items()")
            down(other, v, under)
            u = "0"
        else:
            w = name(x)
            add(f"{w}, {{}} in {'f_columns' if type(x) is F else s + 'columns'}[{u}].items()", type(x) is F)
            u = w
    return loops, u, read


# what a generated body reads besides its arguments, name -> its value on the scope's fields: bound once
# per call, in this order, where the body reads the name (_prelude)
_BINDINGS = {
    "columns": "target.alpha.sparse_columns", "eps": "target.eps_table", "rows": "target.product_rows",
    "n": "len(target.product_rows)", "nn": "len(target.product_rows) ** 2",
    "by_key": "target.product_index.by_key", "row_entries": "target.product_index.row_entries",
    "col_entries": "target.product_index.col_entries", "alpha_rows": "target.alpha.inverse_lists",
    "s_columns": "source.alpha.sparse_columns", "s_rows": "source.product_rows",
    "s_by_key": "source.product_index.by_key", "s_row_entries": "source.product_index.row_entries",
    "s_col_entries": "source.product_index.col_entries", "s_alpha_rows": "source.alpha.inverse_lists",
    "xa_row": '_twisted(target, "times-image").row_entries', "xa_col": '_twisted(target, "times-image").col_entries',
    "ax_row": '_twisted(target, "image-times").row_entries', "ax_col": '_twisted(target, "image-times").col_entries',
    "f_columns": "f.sparse_columns", "f_rows": "f.inverse_lists", "kernel_scalar": "source.field.kernel_scalar",
    "g_rows": "form.gram_rows", "g_columns": "_column_rows(form.gram_rows)",
}


def _prelude(body: str) -> str:
    """The lines binding each name of _BINDINGS that body reads as a whole identifier, in _BINDINGS's order."""
    read = set(re.findall(r"\w+", body))
    return "".join(f" {name} = {value}\n" for name, value in _BINDINGS.items() if name in read)


# slot orders other than the lexicographic one: for a fixed z the invariance clause
# pairs off products against it, and the first reported failure follows that grouping
_ORDERS = {"invariance": (2, 1, 0)}


@cache
def _slice(key, entry_in_key: bool = False):
    """A declaration's slice function, compiled once from _slice_source: a function of a scope's fields.

    key is a declaration's name, or (name, canonical) for an identity's slice
    over the tuples canonical keeps (_canonical).
    """
    name, canonical = (key, ()) if type(key) is str else key
    scope: dict = {}
    exec(_slice_source(name, entry_in_key, canonical), globals(), scope)
    return scope["slice_of"]


def _slice_source(name: str, entry_in_key: bool = False, canonical: tuple = ()) -> str:
    """The Python source of a declaration's slice function.

    Its value maps an index of the first slot in the declaration's order to
    one dict r holding, at the key (k1*n + k2)*n + k (k1*n + k for a pair, k
    for one slot; the later slots in that order, k = 0 for a form), left -
    right at output key k: each term added or subtracted as its nest, so no
    loop reads a zero.  A key reached holds a value, possibly zero.  F0
    depends on slot 0 alone, so it is computed once per slice, and the parts
    of a term's key (b) and coefficient (w) that its last loop does not bind
    are taken before that loop.  With entry_in_key, for terms reading f
    once, the entry of f a contribution reads is not multiplied in but added
    to its key times n*n.  canonical is slot pairs (s, t) of an identity: a
    nest skips k_s > k_t in the outermost loop that binds both, and breaks
    there when that loop binds k_s first, as its entry list ascends in it.
    """
    arity, left, right = _IDENTITIES.get(name) or _CONDITIONS.get(name) or _PRODUCTS[name]
    order = _ORDERS.get(name, range(arity))
    later = [f"k{order[p]} * {'n' * (arity - p)}" for p in range(1, arity)]  # k1 * nn + k2 * n for a triple
    lines = [f"def scan_slice(k{order[0]}):", " r = {}"]
    for sign, factors, node in left + [(-sign, factors, node) for sign, factors, node in right]:
        loops, k, read = _nest(node, order[0])
        if F0 in factors and " f0 = " + F0 not in lines:
            lines.insert(2, " f0 = " + F0)
        value = [str(sign)] * (sign != 1) + [{F0: "f0"}.get(c, c) if type(c) is str else "eps[k{}][k{}]".format(*c)
                                             for c in factors] + [c for _, c in loops if c and not (entry_in_key and c in read)]
        key = later + [k] * (k != "0")
        if entry_in_key:
            key = [f"({' + '.join(key) or 0}) * nn", read[0]]
        bound = set(re.findall(r"\w+", loops[-1][0].split(" in ")[0])) if loops else set()
        key_out, value_out = ([x for x in parts if loops and not bound & set(re.findall(r"\w+", x))]
                              for parts in (key, value))
        taken = [(b, e) for b, e in (("b", " + ".join(key_out)), ("w", " * ".join(value_out))) if e]
        known = {f"k{order[0]}"}
        for depth, (loop, _) in enumerate(loops, 1):
            if depth == len(loops) and taken:
                lines.append(f"{' ' * depth}{', '.join(b for b, _ in taken)} = {', '.join(e for _, e in taken)}")
            lines.append(f"{' ' * depth}for {loop}:")
            names = loop.split(" in ")[0].split(", ")
            before, known = known, known | set(names)
            for u, v in ((f"k{s}", f"k{t}") for s, t in canonical):
                if {u, v} <= known and not {u, v} <= before:
                    stop = "break" if names[0] == u and v in before else "continue"
                    lines.append(f"{' ' * (depth + 1)}if {u} > {v}: {stop}")
        key = " + ".join(["b"] * bool(key_out) + [x for x in key if x not in key_out]) or "0"
        value = " * ".join(["w"] * bool(value_out) + [x for x in value if x not in value_out]) or "1"
        q = key if key.isidentifier() or key == "0" else "q"  # the key computed once: the right side runs first
        lines.append(f"{' ' * (len(loops) + 1)}r[{q}] = r.get({key if q == key else f'q := {key}'}, 0) + {value}")
    lines += [" return r", "return scan_slice"]
    body = "\n".join(" " + line for line in lines)
    return f"def slice_of(target, source=None, f=None, eps_f=None, weight=0, form=None):\n{_prelude(body)}{body}"


@cache
def _compiled(name: str, witness: bool = True):
    """A declaration's sides at a basis tuple, compiled once from _tuple_source: a function of a scope's fields."""
    scope: dict = {}
    exec(_tuple_source(name, witness), globals(), scope)
    return scope["sides_of"]


def _split(name: str) -> tuple:
    """A condition's left - right less its terms f(y) at the top, and (sign, factors, y) for each, signed likewise."""
    _, left, right = _CONDITIONS[name]
    signed = [*left, *((-s, c, t) for s, c, t in right)]
    return [t for t in signed if type(t[2]) is not F], [(s, c, t.x) for s, c, t in signed if type(t) is F]


def _tuple_source(name: str, witness: bool = True) -> str:
    """The Python source of a declaration's sides at a basis tuple (_compiled).

    Its value maps a scope's fields to the function of the arguments k0, k1,
    ... that gives, for a witness, (left, right): each side's terms added
    into a new dict, exact zeros dropped.  Otherwise it gives a search's visit
    of a condition (r, slope), left - right = r + the sum of slope[k] f(e_k)
    over the columns k that f lacks: r is a new dict holding the terms below
    the top (_split), and each top term f(y) is walked over y in turn, a set
    column's image times its coefficient added into r, an unset one's
    coefficient into slope, where k enters at its first nonzero coefficient
    in a y.  The function first binds each value the sides read, in the order
    they read them, so indexing the first unset column of f raises KeyError
    before any sum is formed; then each term adds its contributions,
    coefficient times the values they read, as a slice adds a term's.  A value
    is the stored cell or column where it is one, else its own sum, which may
    hold a zero where contributions cancel; the form's is a kernel scalar at
    key 0.  No kernel function is called, and only what the body reads is
    bound (_prelude; f is None for an identity).
    """
    arity, left, right = _IDENTITIES.get(name) or _CONDITIONS[name]
    rest, top = ([], []) if witness else _split(name)
    reads, sums, walk, fresh = [], [], [], count()

    def bound(node, under: bool) -> tuple:
        """(a name bound in reads to node's value, False), or (k<p>, True) for slot p, whose value is e_p."""
        kind, s = type(node), "s_" * under
        if kind is int:
            return f"k{node}", True
        value = "{}"
        if kind is P and type(node.x) is int and type(node.y) is int:
            value = f"{s}rows[k{node.x}][k{node.y}]"
        elif kind in (F, A) and type(node.x) is int:
            value = f"f_columns[k{node.x}]" if kind is F else f"{s}columns[k{node.x}]"
        reads.append(f"{(v := f'v{next(fresh)}')} = {value}")
        if value == "{}":
            add(node, under, v, [], reads)
        return v, False

    def add(node, under: bool, out: str, factors: list, body: list):
        """Append to body the loops adding the product of factors and node's value into out; its operands go to reads."""
        kind, s, i = type(node), "s_" * under, next(fresh)
        if kind is B or (kind is P and not (type(node.x) is int and type(node.y) is int)):
            (x, x_slot), (y, y_slot) = bound(node.x, under), bound(node.y, under)
            loops = [f"for a{i}, x{i} in {x}.items():"] * (not x_slot) + [f"for b{i}, y{i} in {y}.items():"] * (not y_slot)
            operands = [f"x{i}"] * (not x_slot) + [f"y{i}"] * (not y_slot)
            u, w = x if x_slot else f"a{i}", y if y_slot else f"b{i}"
            if kind is B:  # the form's value: its sum, as a kernel scalar, at key 0
                body += [f"g{i} = 0", *(" " * depth + line for depth, line in enumerate(loops)),
                         " " * len(loops) + f"g{i} += {' * '.join([*operands, f'g_rows[{u}].get({w}, 0)'])}",
                         f"{out}[0] = {out}.get(0, 0) + {' * '.join([*factors, f'kernel_scalar(g{i})'])}"]
                return
            factors = [*factors, *operands]
            loops.append(f"for t{i}, c{i} in {s}rows[{u}][{w}].items():")
        elif kind in (F, A) and type(node.x) is not int:
            x, _ = bound(node.x, under or kind is F)
            loops = [f"for a{i}, x{i} in {x}.items():", *[f"if x{i}:"] * (kind is F),  # f reads a nonzero's column alone
                     f"for t{i}, c{i} in {'f_columns' if kind is F else s + 'columns'}[a{i}].items():"]
            factors = [*factors, f"x{i}"]
        else:
            v, slot = bound(node, under)
            if slot:
                body.append(f"{out}[{v}] = {out}.get({v}, 0) + {' * '.join(factors) or 1}")
                return
            loops = [f"for t{i}, c{i} in {v}.items():"]
        *outer, inner = loops
        body += [" " * depth + line for depth, line in enumerate(outer)]
        if outer and len(factors) > 1:  # the factors the last loop does not bind, multiplied before it
            body.append(" " * len(outer) + f"w{i} = {' * '.join(factors)}")
            factors = [f"w{i}"]
        body += [" " * len(outer) + inner, " " * len(loops) + f"{out}[t{i}] = {out}.get(t{i}, 0) + {' * '.join([*factors, f'c{i}'])}"]

    def coefficient(sign, factors) -> list:
        return [str(sign)] * (sign != 1) + [c if type(c) is str else "eps[k{}][k{}]".format(*c) for c in factors]

    for out, terms in [("l", left), ("r", right)] if witness else [("r", rest)]:
        sums.append(f"{out} = {{}}")
        for sign, factors, node in terms:
            add(node, False, out, coefficient(sign, factors), sums)
    for sign, factors, node in top:  # y lives in the source: it sits under an F
        if sign == 1 and not factors and type(node) is not int:
            y = bound(node, True)[0]
        else:
            reads.append(f"{(y := f'v{next(fresh)}')} = {{}}")
            add(node, True, y, coefficient(sign, factors), reads)
        walk += [f"for j, c in {y}.items():", " if j in f_columns:", "  for t, x in f_columns[j].items():",
                 "   r[t] = r.get(t, 0) + c * x", " elif c:", "  slope[j] = slope.get(j, 0) + c"]
    end = ["return _nonzero(l), _nonzero(r)"] if witness else ["slope = {}", *walk, "return r, slope"]
    body = "".join(f"  {line}\n" for line in [*reads, *sums, *end])
    keys = ", ".join(f"k{p}" for p in range(arity))
    return (f"def sides_of(target, source=None, f=None, eps_f=None, weight=0, form=None):\n{_prelude(body)}"
            f" def sides({keys}):\n{body} return sides\n")


# ---------------------------------------------------------------------------
# identities

# name -> (arity, left terms, right terms)
_IDENTITIES = {
    "epsilon-commutativity": (2, [(1, (), P(0, 1))], [(1, (E01,), P(1, 0))]),
    "hom-associativity": (3, [(1, (), P(A(0), P(1, 2)))], [(1, (), P(P(0, 1), A(2)))]),
    "right-commutativity": (3, [(1, (), P(P(0, 1), A(2)))], [(1, (E12,), P(P(0, 2), A(1)))]),
    # the twisted associator is eps-symmetric in its first two slots
    "left-symmetry": (
        3,
        [(1, (), P(P(0, 1), A(2))), (-1, (), P(A(0), P(1, 2)))],
        [(1, (E01,), P(P(1, 0), A(2))), (-1, (E01,), P(A(1), P(0, 2)))],
    ),
    "skew-symmetry": (2, [(1, (), P(0, 1))], [(-1, (E01,), P(1, 0))]),
    "hom-jacobi": (3, [
        (1, (E20,), P(A(0), P(1, 2))), (1, (E01,), P(A(1), P(2, 0))), (1, (E12,), P(A(2), P(0, 1))),
    ], []),
    # eps(z,x) [x,y]*alpha(z) + eps(x,y) [y,z]*alpha(x) + eps(y,z) [z,x]*alpha(y)
    "cyclic-right-products": (3, [
        (1, (E20,), P(P(0, 1), A(2))), (-1, (E20, E01), P(P(1, 0), A(2))),
        (1, (E01,), P(P(1, 2), A(0))), (-1, (E01, E12), P(P(2, 1), A(0))),
        (1, (E12,), P(P(2, 0), A(1))), (-1, (E12, E20), P(P(0, 2), A(1))),
    ], []),
    # eps(z,x) alpha(x)*[y,z] + eps(x,y) alpha(y)*[z,x] + eps(y,z) alpha(z)*[x,y]
    "cyclic-left-products": (3, [
        (1, (E20,), P(A(0), P(1, 2))), (-1, (E20, E12), P(A(0), P(2, 1))),
        (1, (E01,), P(A(1), P(2, 0))), (-1, (E01, E20), P(A(1), P(0, 2))),
        (1, (E12,), P(A(2), P(0, 1))), (-1, (E12, E01), P(A(2), P(1, 0))),
    ], []),
}

IDENTITY_ARITY = {name: arity for name, (arity, _, _) in _IDENTITIES.items()}

# which multilinear identities each algebra-level check quantifies
IDENTITIES_BY_CHECK = {
    "epsilon_commutative": ("epsilon-commutativity",),
    "hom_associative": ("hom-associativity",),
    "hom_novikov": ("right-commutativity", "left-symmetry"),
    "left_symmetric": ("left-symmetry",),
    "hom_lie": ("skew-symmetry", "hom-jacobi"),
    "cyclic_commutator_products": ("cyclic-right-products", "cyclic-left-products"),
}


# name -> (swaps, rotations): the slot pairs (s, t) with x_s <= x_t at the least
# tuple of each orbit.  Where eps(d, e) eps(e, d) = 1 (_eps_skew), the residual
# at the swap of a tuple in slots s and t is a unit times the residual there:
# the right side is +-eps(x_s, x_t) times the left with s and t swapped, or, for
# the cyclic sums, their brackets, written out as products, are eps-skew, so
# C(y, x, z) = -eps(y, x) eps(z, y) eps(x, z) C(x, y, z).  The one-sided sums
# take one value at a tuple and at its rotations, (0, 1) and (0, 2), whatever eps
_SYMMETRIES = {
    "epsilon-commutativity": (((0, 1),), ()),
    "hom-associativity": ((), ()),
    "right-commutativity": (((1, 2),), ()),
    "left-symmetry": (((0, 1),), ()),
    "skew-symmetry": (((0, 1),), ()),
    "hom-jacobi": ((), ((0, 1), (0, 2))),
    "cyclic-right-products": (((1, 2),), ((0, 1), (0, 2))),
    "cyclic-left-products": (((1, 2),), ((0, 1), (0, 2))),
}

# name -> (an identity, a swap): the swap the named identity gains on an algebra where
# that one has passed; with skew-symmetry, the hom-Jacobi sum is eps-alternating in y, z
_GAINED = {"hom-jacobi": ("skew-symmetry", (1, 2))}

# what checks keep in an algebra's instance dict: identities passed, each scan's bound slice by (identity,
# whether _GAINED's identity has passed), check_lie_admissible's commutator
_PASSED, _SCANS, _COMMUTATOR = "passed_identities", "scans", "commutator"


def _eps_skew(a: ColorHomAlgebra) -> bool:
    """Whether eps(d, e) eps(e, d) = 1 (mod p over F_p) on every two degrees of a's basis.

    It holds for a bicharacter that has passed its axioms, as E[i][j] E[j][i] = 1
    on the generators; another is tested on its eps table, one index of each class.
    """
    if _validated(a.bicharacter):
        return True
    eps, classes, p = a.eps_table, a.basis.degree_classes[1], a.field.p
    each = {c: i for i, c in enumerate(classes)}.values()
    units = [eps[i][j] * eps[j][i] - 1 for i in each for j in each]
    return not any(units) if p is None else not any(u % p for u in units)


def _canonical(a: ColorHomAlgebra, name: str) -> tuple:
    """The slot pairs (s, t) of the tuples x_s <= x_t an identity's scan visits on a, given the identities passed on a.

    Each orbit's least tuple keeps them, and a residual nonzero at one tuple
    is nonzero on its whole orbit, so the first failing tuple is still the
    first failing one of every tuple.  A swap holds only on an eps table
    that passes _eps_skew; without one, only the rotations are kept.
    """
    swaps, rotations = _SYMMETRIES[name]
    if name in _GAINED and _GAINED[name][0] in vars(a).get(_PASSED, ()):
        swaps += (_GAINED[name][1],)
    return tuple(sorted({*rotations, *(swaps if swaps and _eps_skew(a) else ())}))


def _dense(a: ColorHomAlgebra, x: dict) -> tuple:
    return dense_vector(a.field, a.dim, x)


def _first_failure(a: ColorHomAlgebra, slices, order, names, scope=None, width: int | None = None) -> Verdict:
    """The first tuple where the named declarations fail, from their slices, with the first failing one there.

    The slices fix the first slot of order, one index at a time.  The witness
    is the tuple of the least key with a nonzero value (mod p over F_p) in
    one of them, not the least key reached, since contributions can cancel; a
    slice of exact zeros is passed over with one test, and once the witness
    is the index's first tuple, no later slice is computed.  There alone the
    sides of each name, compiled on scope (a's own _Scope unless given), run
    in order, and the first pair that differs, reduced over F_p, is made
    dense with width coordinates (a.dim unless given; a scalar at key 0).
    """
    n, field = len(a.product_rows), a.basis.field
    p, top = field.p, n ** 3
    for i in range(n):
        least = top
        for scan_slice in slices:
            r = scan_slice(i)
            if not any(r.values()):  # most slices of a scan
                continue
            least = min([least, *(filter(r.get, r) if p is None else [k for k, v in r.items() if v % p])])
            if least < n:
                break
        if least < top:
            j = least // n
            digits = (i, *divmod(j, n)) if len(order) == 3 else (i, j)[:len(order)]
            idx = digits if order[0] == 0 else tuple(digits[order.index(s)] for s in range(len(order)))
            scope = scope or _Scope(a, a, None, {}, 0, None)
            for name in names:
                left, right = _compiled(name)(*scope)(*idx)
                if left != right and (p is None or _reduced(left, p) != _reduced(right, p)):
                    return _fail(name, idx, dense_vector(field, width or n, left), dense_vector(field, width or n, right))
    return PASS


def _reduced(x: dict, p: int) -> dict:
    """A sparse vector of F_p kernel scalars with every value in [0, p) and no zeros."""
    return {k: c % p for k, c in x.items() if c % p}


def _scan(a: ColorHomAlgebra, name: str) -> Verdict:
    """Quantify one identity over its canonical tuples (_canonical) by slot-0 slices, kept on a (_SCANS), as a pass is."""
    kept = vars(a)
    key = name, name in _GAINED and _GAINED[name][0] in kept.get(_PASSED, ())
    if key not in (scans := kept.setdefault(_SCANS, {})):
        canonical = _canonical(a, name)
        scans[key] = [_slice((name, canonical) if canonical else name)(a)], range(IDENTITY_ARITY[name]), (name,)
    verdict = _first_failure(a, *scans[key])
    if verdict:
        kept.setdefault(_PASSED, set()).add(name)
    return verdict


def _scan_check(a: ColorHomAlgebra, check: str) -> Verdict:
    """Scan the identities a named check quantifies, in order; the first failure wins."""
    for name in IDENTITIES_BY_CHECK[check]:
        v = _scan(a, name)
        if not v:
            return v
    return PASS


# ---------------------------------------------------------------------------
# algebra-level checks

def check_epsilon_commutative(a: ColorHomAlgebra) -> Verdict:
    """x*y = eps(x,y) y*x on all basis pairs."""
    return _scan_check(a, "epsilon_commutative")


def check_hom_associative(a: ColorHomAlgebra) -> Verdict:
    """alpha(x)*(y*z) = (x*y)*alpha(z) on all basis triples."""
    return _scan_check(a, "hom_associative")


def check_right_commutative(a: ColorHomAlgebra) -> Verdict:
    """(x*y)*alpha(z) = eps(y,z) (x*z)*alpha(y) on all basis triples."""
    return _scan(a, "right-commutativity")


def check_left_symmetric(a: ColorHomAlgebra) -> Verdict:
    """The twisted associator is eps-symmetric in its first two slots."""
    return _scan_check(a, "left_symmetric")


def check_hom_novikov(a: ColorHomAlgebra) -> Verdict:
    """Right-commutativity plus left-symmetry; witness names the failed one."""
    return _scan_check(a, "hom_novikov")


def check_hom_lie(a: ColorHomAlgebra) -> Verdict:
    """Skew-symmetry plus the twisted Jacobi sum, both with eps signs."""
    return _scan_check(a, "hom_lie")


def check_cyclic_commutator_products(a: ColorHomAlgebra) -> Verdict:
    """Both cyclic sums of bracket-by-product mixtures vanish.

    The bracket is formed from a's own product; these are the two sums that
    make a right-commutative product Hom-Lie admissible.
    """
    return _scan_check(a, "cyclic_commutator_products")


def check_lie_admissible(a: ColorHomAlgebra) -> Verdict:
    """The commutator bracket of a satisfies the Hom-Lie axioms.

    The commutator is built on first need and kept on a, so a repeated call costs its Hom-Lie scans alone.
    """
    if _COMMUTATOR not in vars(a):
        vars(a)[_COMMUTATOR] = _product_algebra("bracket", a)
    return check_hom_lie(vars(a)[_COMMUTATOR])


# ---------------------------------------------------------------------------
# properties of the twisting map

def check_multiplicative(a: ColorHomAlgebra) -> Verdict:
    """alpha(x*y) = alpha(x)*alpha(y) on all basis pairs."""
    return is_weak_morphism(a, a, a.alpha)


def check_regular(a: ColorHomAlgebra) -> Verdict:
    """alpha is an algebra automorphism: multiplicative and invertible."""
    from .linalg import _row_reduce
    v = check_multiplicative(a)
    if not v:
        return v
    if len(_row_reduce(a.field, a.alpha.sparse_columns)[1]) != a.dim:
        return _fail("invertibility", (), None, None)
    return PASS


def check_involutive(a: ColorHomAlgebra) -> Verdict:
    """alpha composed with itself is the identity."""
    return _holds(a, a, None, PREDICATE_CONDITIONS["involutive"])


# ---------------------------------------------------------------------------
# operator predicates and quadratic clauses, declared as terms in the map

# name -> (arity, left terms, right terms)
_CONDITIONS = {
    "product-morphism": (2, [(1, (), F(P(0, 1)))], [(1, (), P(F(0), F(1)))]),
    "twist-commutation": (1, [(1, (), A(F(0)))], [(1, (), F(A(0)))]),
    "twist-compatibility": (1, [(1, (), F(A(0)))], [(1, (), A(F(0)))]),
    "involution": (1, [(1, (), A(A(0)))], [(1, (), 0)]),
    # f(x*y) = f(x)*y + eps(deg f, x) x*f(y)
    "leibniz": (2, [(1, (), F(P(0, 1)))], [(1, (), P(F(0), 1)), (1, (F0,), P(0, F(1)))]),
    "left-centroid": (2, [(1, (), F(P(0, 1)))], [(1, (), P(F(0), 1))]),
    "right-centroid": (2, [(1, (), F(P(0, 1)))], [(1, (), P(0, F(1)))]),
    "left-averaging": (2, [(1, (), P(F(0), F(1)))], [(1, (), F(P(F(0), 1)))]),
    "right-averaging": (2, [(1, (), P(F(0), F(1)))], [(1, (), F(P(0, F(1))))]),
    # f(x)*f(y) = f(f(x)*y + x*f(y) + weight x*y)
    "rota-baxter": (2, [(1, (), P(F(0), F(1)))], [
        (1, (), F(P(F(0), 1))), (1, (), F(P(0, F(1)))), (1, (WEIGHT,), F(P(0, 1))),
    ]),
    "b-symmetry": (2, [(1, (), B(F(0), 1))], [(1, (), B(0, F(1)))]),
    "twist-b-symmetry": (2, [(1, (), B(A(0), 1))], [(1, (), B(0, A(1)))]),
    # the quadratic clauses, with f the form's companion
    "epsilon-symmetry": (2, [(1, (), B(0, 1))], [(1, (E01,), B(1, 0))]),
    "invariance": (3, [(1, (), B(P(0, 1), F(2)))], [(1, (), B(F(0), P(1, 2)))]),
    # the defect f([f(x), y] + [x, f(y)]) - [f(x), f(y)] times alpha(z) vanishes
    "defect-centrality": (3, [
        (1, (), P(F(P(F(0), 1)), A(2))), (1, (), P(F(P(0, F(1))), A(2))), (-1, (), P(P(F(0), F(1)), A(2))),
    ], []),
    # x∘y = [f(x), y] is right-commutative: (x∘y)∘alpha(z) = eps(y,z) (x∘z)∘alpha(y)
    "operator-right-commutativity": (3, [(1, (), P(F(P(F(0), 1)), A(2)))], [(1, (E12,), P(F(P(F(0), 2)), A(1)))]),
    # with f(e_0) = x and every other image zero: x*alpha(y) = 0
    "alpha-center": (2, [(1, (), P(F(0), A(1)))], []),
}

# predicate -> its condition groups, run in order; within a group every
# condition runs at each tuple, and a side keeps the left-/right- ones it names
PREDICATE_CONDITIONS = {
    "weak_morphism": (("product-morphism",),),
    "morphism": (("product-morphism",), ("twist-compatibility",)),
    "derivation": (("leibniz",),),
    "averaging": (("twist-commutation",), ("left-averaging", "right-averaging")),
    "centroid": (("twist-commutation",), ("left-centroid", "right-centroid")),
    "rota_baxter": (("twist-commutation",), ("rota-baxter",)),
    "bracket_operator_conditions": (("twist-commutation",), ("defect-centrality",), ("operator-right-commutativity",)),
    "commutes_with_twist": (("twist-commutation",),),
    "symmetric_automorphism": (("product-morphism",), ("twist-compatibility",), ("b-symmetry",)),
    "involutive": (("involution",),),
}

# the constructions' products, name -> (2, terms, []): slice i holds e_i ∘ e_j at the keys j*n + m
_PRODUCTS = {
    "mapped": (2, [(1, (), F(P(0, 1)))], []),
    "times-image": (2, [(1, (), P(0, F(1)))], []),
    "twisted-times-image": (2, [(1, (), A(P(0, F(1))))], []),
    "image-times": (2, [(1, (), P(F(0), 1))], []),
    "bracket": (2, [(1, (), P(0, 1)), (-1, (E01,), P(1, 0))], []),  # x*y - eps(x, y) y*x
    "mapped-bracket": (2, [(1, (), F(P(0, 1))), (-1, (E01,), F(P(1, 0)))], []),
}


def _require_dim(a: ColorHomAlgebra, f) -> None:
    if f is not None and len(f.sparse_columns) != a.dim:  # unchecked, no predicate has rejected f's basis
        raise StructureError(f"map has dimension {len(f.sparse_columns)}, the algebra {a.dim}")


def _product_algebra(name: str, a: ColorHomAlgebra, f=None, alpha: GradedLinearMap | None = None) -> ColorHomAlgebra:
    """The algebra on a's basis, bicharacter and eps table with the declared product on (a, f), and alpha, or a's own.

    Its rows come from _product_table and its product_index on first read; a new alpha is checked
    with a's basis and bicharacter before the rows and by itself after them, as make_algebra checks it.
    """
    _require_dim(a, f)
    if alpha is not None:
        _require_grading(a.basis, a.bicharacter)
    out = _algebra_of_fields(a.basis, a.bicharacter, _product_table(name, a, f), a.alpha if alpha is None else alpha, a.eps_table)
    if alpha is not None:
        _require_even_endo(a.basis, alpha, "alpha")
    return out


def _product_table(name: str, a: ColorHomAlgebra, f, stored: bool = True) -> tuple:
    """The rows of the declared product name on (a, f), in one pass over its slices.

    Slice i's keys j*n + m with a nonzero value, sorted once, are row i's terms c e_m of e_i * e_j,
    row-major.  Stored, c is a kernel scalar, zeros dropped, checked even as core._stored_rows checks
    it; else the kernel's sum, unreduced over F_p, as the scans read it.
    """
    n, kernel_scalar, classes, class_sums = a.dim, a.field.kernel_scalar, a.basis.degree_classes[1], a.basis.class_sums
    rows, scan_slice = [(_EMPTY,) * n] * n, _slice(name)(a, a, f)
    for i in range(n):
        r = scan_slice(i)
        if not (keys := sorted(filter(r.get, r))):  # the keys with a nonzero value
            continue
        row, sums = [_EMPTY] * n, class_sums[classes[i]]
        for key in keys:
            (j, m), v = divmod(key, n), r[key]
            if stored:
                if not (v := kernel_scalar(v)):
                    continue
                if classes[m] != sums[classes[j]]:
                    raise _uneven(i, j, m)
            if (cell := row[j]) is _EMPTY:
                cell = row[j] = {}
            cell[m] = v
        rows[i] = tuple(row)
    return tuple(rows)


def _twisted(a: ColorHomAlgebra, name: str) -> ProductIndex:
    """The index of the declared product name on (a, alpha), times-image x*alpha(y) or image-times alpha(x)*y.

    Kept in a's instance dict under name: a's product_index if alpha is the identity, else that of
    the unreduced rows (_product_table).
    """
    if name not in vars(a):
        identity = all(len(c) == 1 and c.get(t) == 1 for t, c in enumerate(a.alpha.sparse_columns))
        vars(a)[name] = a.product_index if identity else _product_index(_product_table(name, a, a.alpha, False))
    return vars(a)[name]


_SIDES, _SIDED = ("left", "right", "both"), ("left-", "right-")


def _groups(groups, side: str) -> tuple:
    if side not in _SIDES:
        raise StructureError(f"side must be left/right/both, got {side!r}")
    return _kept(groups, side)


@cache
def _kept(groups, side: str) -> tuple:
    """The nonempty groups, each keeping its unsided conditions and the sided ones side names."""
    keep = _SIDED if side == "both" else (side + "-",)
    kept = (tuple(c for c in g if c.startswith(keep) or not c.startswith(_SIDED)) for g in groups)
    return tuple(group for group in kept if group)


def _holds(source, target, f, groups, side="both", weight=0, form=None) -> Verdict:
    """Run condition groups on (source, target, f) in order; the first failure wins.

    side is checked before anything runs; weight is a kernel scalar.  A
    group computes the slices of all its conditions together, and the first
    tuple where one is nonzero runs every condition, in order, for the witness.
    """
    groups, s = _groups(groups, side), (target, source, f, {}, weight, form)  # a _Scope's fields
    for group in groups:
        arity, left, _ = _CONDITIONS[group[0]]
        slices = [_slice(name)(*s) for name in group]
        width = 1 if type(left[0][2]) is B else None  # a form's value is a scalar
        v = _first_failure(source, slices, _ORDERS.get(group[0], range(arity)), group, s, width)
        if not v:
            return v
    return PASS


# a map as its columns, their inverse lists and its degree, whatever its entries
_Images = NamedTuple("_Images", [("sparse_columns", tuple), ("inverse_lists", tuple), ("degree", object)])


def commutes_with_twist(a: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """f must commute with a's twisting map; witness compares columns."""
    if f.basis != a.basis:
        raise StructureError("composition needs a shared basis")
    return _holds(a, a, f, PREDICATE_CONDITIONS["commutes_with_twist"])


def is_weak_morphism(a: ColorHomAlgebra, b: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """f(x *_a y) = f(x) *_b f(y); both products live on the shared basis."""
    return _morphism(a, b, f, "weak_morphism")


def is_morphism(a: ColorHomAlgebra, b: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """Weak morphism that also intertwines the twisting maps: f.alpha_a = alpha_b.f."""
    return _morphism(a, b, f, "morphism")


def _morphism(a: ColorHomAlgebra, b: ColorHomAlgebra, f: GradedLinearMap, name: str) -> Verdict:
    if a.basis != b.basis:
        raise StructureError("the two algebras must share a basis")
    if a.bicharacter != b.bicharacter:
        raise StructureError("the two algebras must share a bicharacter")
    _require_even_endo(a.basis, f, "morphism candidate")
    return _holds(a, b, f, PREDICATE_CONDITIONS[name])


def is_derivation(a: ColorHomAlgebra, d: GradedLinearMap, degree=None) -> Verdict:
    """Colored Leibniz rule: d(x*y) = d(x)*y + eps(deg d, x) x*d(y)."""
    if d.basis != a.basis:
        raise StructureError("derivation candidate lives on a different basis")
    if degree is not None and degree != d.degree:
        raise StructureError("declared degree disagrees with the map's degree")
    return _holds(a, a, d, PREDICATE_CONDITIONS["derivation"])


def is_averaging(a: ColorHomAlgebra, f: GradedLinearMap, side: str = "both") -> Verdict:
    """Averaging operator: commutes with alpha and absorbs itself.

    left side:  f(x)*f(y) = f(f(x)*y);  right side:  f(x)*f(y) = f(x*f(y)).
    """
    _require_even_endo(a.basis, f, "averaging candidate")
    return _holds(a, a, f, PREDICATE_CONDITIONS["averaging"], side)


def is_centroid(a: ColorHomAlgebra, f: GradedLinearMap, side: str = "both") -> Verdict:
    """Centroid element: commutes with alpha and slides out of the product."""
    _require_even_endo(a.basis, f, "centroid candidate")
    return _holds(a, a, f, PREDICATE_CONDITIONS["centroid"], side)


def is_rota_baxter(l: ColorHomAlgebra, r: GradedLinearMap, weight) -> Verdict:
    """Weight-lambda identity on l's own product, plus twist-commutation.

    [r(x), r(y)] = r([r(x), y] + [x, r(y)] + lambda [x, y]), where [,] is
    l's product.  Whether that product is Hom-Lie is a separate check.
    """
    _require_even_endo(l.basis, r, "operator")
    lam = l.field.kernel_scalar(weight)
    return _holds(l, l, r, PREDICATE_CONDITIONS["rota_baxter"], weight=lam)


def in_alpha_center(l: ColorHomAlgebra, x) -> bool:
    """True when [x, alpha(y)] = 0 for every y (checked on basis images)."""
    if len(x) != l.dim:
        raise StructureError(f"vectors must have length {l.dim}")
    # x need not be homogeneous, so the map e_0 -> x is its columns alone
    images = _Images((sparse_vector(l.field, x),) + ({},) * (l.dim - 1), None, None)
    return bool(_holds(l, l, images, (("alpha-center",),)))


def check_bracket_operator_conditions(l: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """The two conditions under which x∘y = [f(x), y] is Hom-Novikov, after twist-commutation.

    defect-centrality: f([f(x),y] + [x,f(y)]) - [f(x),f(y)] lies in the
    alpha-center of l for all basis x, y; the witness, when one exists,
    names (x, y, z) with [defect, alpha(z)] != 0.
    operator-right-commutativity: [f([f(x),y]), alpha(z)] =
    eps(y,z) [f([f(x),z]), alpha(y)], the right-commutativity of x∘y.
    """
    _require_even_endo(l.basis, f, "operator")
    return _holds(l, l, f, PREDICATE_CONDITIONS["bracket_operator_conditions"])

