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
algebra's product index (core.ProductIndex), or, beside an alpha, of its
twisted products x*alpha(y) and alpha(x)*y (core.TwistedIndex, built only
for the slices that read it), so each identity term is two loops; alpha
elsewhere through its columns, f through its columns and inverse lists,
the form through its sparse Gram rows; a term of degree 2 in f is one
chained nest.  A tuple no slice reaches has every term zero, so
the first tuple with a nonzero value (mod p over F_p) is the first failing
tuple of a scan over every tuple, and the sides, compiled per tuple
(_compiled), run there alone for the witness (_first_failure).

The constructions' products are declared in the same language, with two
slots and no right side (_PRODUCTS), and _product_algebra builds each from
its slices, which hold the rows of the product.

identity_sides and identity_residual_on_vectors run the identities compiled
for vector arguments, computing every product and image instead of reading
stored cells: the independent route the tests compare the scans against.

PREDICATE_CONDITIONS lists each operator predicate's condition groups in
the order they run.  The conditions whose terms all have degree 1 in f are
its linear part (linear_conditions); catalog.search_maps solves their
equations, read off their slices with the entry of f in each key
(_linear_equations), and visits each other condition at the tuples with
x_0 = e_k once it sets column k, each term f(y) at the top of a side kept
apart (search_instances).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct
from typing import NamedTuple

from .core import (
    ColorHomAlgebra,
    GradedLinearMap,
    _algebra_from_cells,
    _algebra_like,
    _column_rows,
    _require_even_endo,
    _row_reduce,
    dense_vector,
    homogeneous_components,
    sparse_add,
    sparse_apply,
    sparse_product,
    sparse_scale,
    sparse_sub,
    sparse_vector,
)
from .errors import StructureError

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
    "linear_conditions",
    "search_instances",
    "IDENTITY_ARITY",
    "IDENTITIES_BY_CHECK",
    "identity_sides",
    "identity_residual_on_vectors",
]


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample: which identity, where, and both sides.

    left/right are coordinate tuples (scalar comparisons use length-1
    tuples); checks that fail for a non-evaluative reason (a singular map)
    carry left = right = None.
    """

    identity: str
    indices: tuple[int, ...]
    left: tuple | None
    right: tuple | None


@dataclass(frozen=True)
class Verdict:
    passes: bool
    witness: Witness | None = None

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

# coefficient factors: F0 and WEIGHT as Python source, and slot pairs (see _side_source)
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


def _source(node, under: bool = False, basis: bool = True) -> str:
    """Python source for a node's value at the arguments k0, k1, ...

    It reads the fields of a _Scope by name; under says whether an F
    encloses the node.  With basis, k_p is a basis index, and a product or
    image of basis vectors reads the stored cell or column; otherwise k_p is
    a pair (degree, sparse vector), and every product and image is computed.
    """
    kind = type(node)
    if kind is int:
        return f"{{k{node}: 1}}" if basis else f"k{node}[1]"
    algebra = "source" if under else "target"
    if kind is P:
        x, y = node
        if basis and type(x) is int and type(y) is int:
            return f"{algebra}.product_rows[k{x}][k{y}]"
        return f"sparse_product({algebra}, {_source(x, under, basis)}, {_source(y, under, basis)})"
    if kind is B:
        v = f"form.pairing({_source(node.x, under, basis)}, {_source(node.y, under, basis)})"
        return f"({{0: {algebra}.field.kernel_scalar(v)}} if (v := {v}) else {{}})"
    m, under = ("f", True) if kind is F else (f"{algebra}.alpha", under)
    if basis and type(node.x) is int:
        return f"{m}.sparse_columns[k{node.x}]"
    return f"sparse_apply({m}, {_source(node.x, under, basis)})"


def _side_source(terms, basis: bool) -> str:
    """Python source for the signed sum of a side's terms; a slot pair reads its arguments' eps."""
    if len(terms) == 1 and terms[0][:2] == (1, ()):
        return _source(terms[0][2], basis=basis)
    eps = "source.eps_table[k{}][k{}]" if basis else "source.field.kernel_scalar(source.eps(k{}[0], k{}[0]))"
    parts = []
    for sign, factors, node in terms:
        coefficient = [str(sign), *(c if type(c) is str else eps.format(*c) for c in factors)]
        parts.append(f"({' * '.join(coefficient)}, {_source(node, basis=basis)})")
    return f"_sum({', '.join(parts)})"


def _sum(*terms) -> dict:
    """The sum of coefficient * value over the (coefficient, value) terms."""
    out = {}
    for coefficient, value in terms:
        if value:
            if coefficient != 1:
                value = sparse_scale(coefficient, value)
            # value may be a stored cell: sparse_add copies, nothing is mutated
            out = sparse_add(out, value) if out else value
    return out


def _evaluator(arity: int, *sides, basis: bool = True):
    """The sides, compiled once from Python source: a function of a scope's fields.

    It returns the function of the arguments k0, k1, ... that gives the
    tuple of the sides' values, so a tuple costs one call plus the sparse
    products and images its terms name, as a hand-written closure would.
    """
    keys = ", ".join(f"k{p}" for p in range(arity))
    body = ", ".join(_side_source(side, basis) for side in sides)
    return eval(f"lambda {', '.join(_Scope._fields)}: lambda {keys}: ({body},)", globals())


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
    is read with it from the twisted products (core.TwistedIndex): a climbed
    alpha(e_u) from ax_row or xa_col at u, another input alpha(y) from xa_row
    or ax_col at u, y then bound from its index; so each identity term is
    two loops.  An alpha or f elsewhere loops over its column, a form over a
    Gram row or column.  Names with s_ read the source algebra (under an F).
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


# the lists a slice reads, bound once per call: the target's always, the others
# where a name in the body starts with their prefix
_LISTS = {
    "": "columns, eps, n, nn = target.alpha.sparse_columns, target.eps_table, target.dim, target.dim ** 2\n"
        " by_key, alpha_rows, row_entries, col_entries = target.product_index",
    "s_": "s_columns = source.alpha.sparse_columns\n"
          " s_by_key, s_alpha_rows, s_row_entries, s_col_entries = source.product_index",
    "xa_|ax_": "xa_row, xa_col, ax_row, ax_col = target.twisted_index",
    "f_": "f_columns, f_rows = f.sparse_columns, f.inverse_lists",
    "g_": "g_rows, g_columns = form.gram_rows, _column_rows(form.gram_rows)",
}

# slot orders other than the lexicographic one: for a fixed z the invariance clause
# pairs off products against it, and the first reported failure follows that grouping
_ORDERS = {"invariance": (2, 1, 0)}


@cache
def _slice(name: str, entry_in_key: bool = False):
    """A declaration's slice function, compiled once from _slice_source: a function of a scope's fields."""
    scope: dict = {}
    exec(_slice_source(name, entry_in_key), globals(), scope)
    return scope["slice_of"]


def _slice_source(name: str, entry_in_key: bool = False) -> str:
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
    to its key times n*n.
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
        lines += [f"{' ' * depth}for {loop}:" for depth, (loop, _) in enumerate(loops, 1)]
        if taken:
            lines.insert(-1, f"{' ' * len(loops)}{', '.join(b for b, _ in taken)} = {', '.join(e for _, e in taken)}")
        key = " + ".join(["b"] * bool(key_out) + [x for x in key if x not in key_out]) or "0"
        value = " * ".join(["w"] * bool(value_out) + [x for x in value if x not in value_out]) or "1"
        q = key if key.isidentifier() or key == "0" else "q"  # the key computed once: the right side runs first
        lines.append(f"{' ' * (len(loops) + 1)}r[{q}] = r.get({key if q == key else f'q := {key}'}, 0) + {value}")
    lines += [" return r", "return scan_slice"]
    body = "\n".join(" " + line for line in lines)
    prelude = "".join(f" {lists}\n" for prefix, lists in _LISTS.items() if re.search(rf"\b(?:{prefix})", body))
    return f"def slice_of(target, source=None, f=None, eps_f=None, weight=0, form=None):\n{prelude}{body}"


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


def _slots(term) -> tuple:
    """The slots of a term with one of the three support shapes, in the order named; else ()."""
    match term:
        case P(int(p), int(q)):
            return p, q
        case P(P(int(p), int(q)), A(int(r))) | P(A(int(p)), P(int(q), int(r))):
            return p, q, r
    return ()


def _require_support_shapes(identities) -> None:
    """Raise unless every term has a support shape naming each slot once: the slice nests know no other."""
    for name, (arity, left, right) in identities.items():
        for _, _, node in left + right:
            if sorted(_slots(node)) != list(range(arity)):
                raise StructureError(f"identity {name!r}: no support walk for the term {node!r}")


_require_support_shapes(_IDENTITIES)


def _require_arguments(a: ColorHomAlgebra, name: str, vectors, degrees=None) -> None:
    """Raise unless name is an identity whose slots vectors (and degrees) fill, each vector of length dim."""
    if name not in IDENTITY_ARITY:
        raise StructureError(f"unknown identity {name!r}")
    arity = IDENTITY_ARITY[name]
    if len(vectors) != arity or len(vectors if degrees is None else degrees) != arity:
        raise StructureError(f"identity {name!r} takes {arity} arguments")
    for v in vectors:
        if len(v) != a.dim:
            raise StructureError(f"vector length {len(v)} != dim {a.dim}")


def identity_sides(a: ColorHomAlgebra, name: str, degrees, vectors):
    """Evaluate one identity's two sides on homogeneous arguments."""
    _require_arguments(a, name, vectors, degrees)
    return tuple(_dense(a, side) for side in _sparse_sides(a, name, zip(degrees, vectors)))


def _sparse_sides(a: ColorHomAlgebra, name: str, arguments):
    """An identity's sparse sides at homogeneous arguments (degree, vector)."""
    sides = _compiled(name, basis=False)(*_Scope(a, a, None, {}, 0, None))
    return sides(*((d, sparse_vector(a.field, v)) for d, v in arguments))


def _dense(a: ColorHomAlgebra, x: dict) -> tuple:
    return dense_vector(a.field, a.dim, x)


def _first_failure(a: ColorHomAlgebra, slices, order, names, scope, width: int | None = None) -> Verdict:
    """The first tuple where the named declarations fail, from their slices, with the first failing one there.

    The slices fix the first slot of order, one index at a time.  The witness
    is the tuple of the least key with a nonzero value (mod p over F_p) in
    one of them, not the least key reached, since contributions can cancel;
    once it is the index's first tuple, no later slice is computed.  There
    alone the sides, compiled per tuple, run for the names in order, and the
    first pair that differs, reduced over F_p, is made dense with width
    coordinates (a.dim unless given; a scalar keeps its value at key 0).
    """
    n, field = a.dim, a.field
    p, top = field.p, n ** 3
    for i in range(n):
        least = top
        for scan_slice in slices:
            r = scan_slice(i)
            nonzero = [k for k, v in r.items() if v] if p is None else [k for k, v in r.items() if v % p]
            if nonzero:
                least = min(least, *nonzero)
                if least < n:
                    break
        if least < top:
            j = least // n
            digits = (i, *divmod(j, n)) if len(order) == 3 else (i, j)[:len(order)]
            idx = digits if order[0] == 0 else tuple(digits[order.index(s)] for s in range(len(order)))
            for name in names:
                left, right = _compiled(name)(*scope)(*idx)
                if left != right and (p is None or _reduced(left, p) != _reduced(right, p)):
                    return _fail(name, idx, dense_vector(field, width or n, left), dense_vector(field, width or n, right))
    return PASS


def _reduced(x: dict, p: int) -> dict:
    """A sparse vector of F_p kernel scalars with every value in [0, p) and no zeros."""
    return {k: c % p for k, c in x.items() if c % p}


def _scan(a: ColorHomAlgebra, name: str) -> Verdict:
    """Quantify one identity over basis tuples, one slot-0 slice at a time."""
    scope = _Scope(a, a, None, {}, 0, None)
    return _first_failure(a, [_slice(name)(a)], range(IDENTITY_ARITY[name]), [name], scope)


def _scan_check(a: ColorHomAlgebra, check: str) -> Verdict:
    """Scan the identities a named check quantifies, in order; the first failure wins."""
    for name in IDENTITIES_BY_CHECK[check]:
        v = _scan(a, name)
        if not v:
            return v
    return PASS


def identity_residual_on_vectors(a: ColorHomAlgebra, name: str, vectors) -> tuple:
    """left - right on arbitrary vectors, via homogeneous decomposition.

    The identity only makes sense slotwise on homogeneous elements (the
    bicharacter needs degrees), so each argument is split into components
    and the residual summed over all component combinations.
    """
    _require_arguments(a, name, vectors)
    split = [homogeneous_components(a.basis, v) for v in vectors]
    total = {}
    for combo in iproduct(*split):
        total = sparse_add(total, sparse_sub(*_sparse_sides(a, name, combo)))
    return _dense(a, total)


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
    """The commutator bracket of a satisfies the Hom-Lie axioms."""
    return check_hom_lie(_product_algebra("bracket", a))


# ---------------------------------------------------------------------------
# properties of the twisting map

def check_multiplicative(a: ColorHomAlgebra) -> Verdict:
    """alpha(x*y) = alpha(x)*alpha(y) on all basis pairs."""
    return is_weak_morphism(a, a, a.alpha)


def check_regular(a: ColorHomAlgebra) -> Verdict:
    """alpha is an algebra automorphism: multiplicative and invertible."""
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
    """The algebra on a's basis with the declared product on (a, f), and alpha, or a's own if None.

    Slice i's keys j*n + m are the cells ((i, j), {m: value}), zeros dropped, j ascending, so
    row-major, each validated as any product is (_algebra_from_cells, _algebra_like if alpha is kept).
    """
    _require_dim(a, f)
    n, scan_slice = a.dim, _slice(name)(a, a, f)

    def cells():
        for i in range(n):
            row: dict = {}
            for key, v in scan_slice(i).items():
                if v:
                    row.setdefault(key // n, {})[key % n] = v
            yield from (((i, j), row[j]) for j in sorted(row))

    return _algebra_like(a, cells()) if alpha is None else _algebra_from_cells(a.basis, a.bicharacter, cells(), alpha)


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


def _f_degree(node) -> int:
    """The number of F nodes in a term."""
    return 0 if type(node) is int else (type(node) is F) + sum(map(_f_degree, node))


def linear_conditions(predicate: str, side: str = "both") -> tuple:
    """The predicate's linear part: the conditions side keeps whose terms all have degree 1 in f."""
    if predicate not in PREDICATE_CONDITIONS:
        raise StructureError(f"unknown predicate {predicate!r}")
    return tuple(
        name for group in _groups(PREDICATE_CONDITIONS[predicate], side) for name in group
        if all(_f_degree(node) == 1 for terms in _CONDITIONS[name][1:] for _, _, node in terms)
    )


@cache
def _compiled(name: str, basis: bool = True):
    """A declaration's sides, compiled on first use: a function of a scope's fields."""
    return _evaluator(*(_IDENTITIES.get(name) or _CONDITIONS[name]), basis=basis)


def _holds(source, target, f, groups, side="both", weight=0, form=None) -> Verdict:
    """Run condition groups on (source, target, f) in order; the first failure wins.

    side is checked before anything runs; weight is a kernel scalar.  A
    group computes the slices of all its conditions together, and the first
    tuple where one is nonzero runs every condition, in order, for the witness.
    """
    groups, s = _groups(groups, side), _Scope(target, source, f, {}, weight, form)
    for group in groups:
        arity, left, _ = _CONDITIONS[group[0]]
        slices = [_slice(name)(*s) for name in group]
        width = 1 if type(left[0][2]) is B else None  # a form's value is a scalar
        v = _first_failure(source, slices, _ORDERS.get(group[0], range(arity)), group, s, width)
        if not v:
            return v
    return PASS


def _linear_equations(a: ColorHomAlgebra, names, positions, form=None) -> list:
    """The equations the named linear conditions put on the entries of an even map, as sparse rows.

    Variable v is the entry at positions[v] = (k, m), the e_k coefficient of
    f(e_m).  The slices run with v in each key (_slice(name, True)) on the
    map whose entry there is v, so a key codes a tuple, an output key and
    the variable: each (tuple, output key) is one row, unreduced (over F_p a
    value may be a multiple of p, which the elimination drops).  No map is
    built and no side is evaluated.
    """
    n, rows, columns = a.dim, {}, [{} for _ in range(a.dim)]
    for v, (k, m) in enumerate(positions):
        columns[m][k] = v
    entries = _Images(tuple(columns), _column_rows(columns), a.group.zero())
    for name in names:
        scan_slice = _slice(name, True)(*_Scope(a, a, entries, {}, 0, form))
        for i in range(n):
            for key, value in scan_slice(i).items():
                rows.setdefault((name, i, key // (n * n)), {})[key % (n * n)] = value
    return list(rows.values())


# a map as its columns, their inverse lists and its degree, whatever its entries
_Images = NamedTuple("_Images", [("sparse_columns", tuple), ("inverse_lists", tuple), ("degree", object)])


def _split(name: str) -> tuple:
    """A condition's left - right less its terms f(y) at the top, and (sign, factors, y) for each, signed likewise."""
    _, left, right = _CONDITIONS[name]
    signed = [*left, *((-s, c, t) for s, c, t in right)]
    return [t for t in signed if type(t[2]) is not F], [(s, c, t.x) for s, c, t in signed if type(t) is F]


@cache
def _forcing(name: str):
    """A condition's rest and the y of each top term f(y) (_split), compiled once: a function of a scope's fields."""
    rest, top = _split(name)
    return _evaluator(_CONDITIONS[name][0], rest, *([term] for term in top))


def search_instances(predicate: str, side: str, a: ColorHomAlgebra, columns, weight=0, form=None) -> list:
    """(sides, arity) for each condition side keeps beyond the predicate's linear part, in order, on (a, a, f).

    f is the even map with the given columns, only ever indexed: a search
    passes the columns it has set and learns which unset one a tuple reads
    from what indexing raises.  Every such condition reads f(x_0) before any
    other column, so a search visits its tuples with x_0 = e_k once column k
    is set.  sides(*idx) is (rest, y_1, ..., y_m), left - right = rest +
    f(y_1) + ... + f(y_m): each term f(y) at the top of a side is kept
    unapplied, its coefficient in y.  weight is a kernel scalar.
    """
    linear = linear_conditions(predicate, side)
    scope = _Scope(a, a, _Images(columns, None, a.group.zero()), {}, weight, form)
    names = [name for group in _groups(PREDICATE_CONDITIONS[predicate], side) for name in group if name not in linear]
    return [(_forcing(name)(*scope), _CONDITIONS[name][0]) for name in names]


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
