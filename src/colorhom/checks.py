"""Identity checks with exact witnesses.

Every check quantifies an identity over basis tuples (sufficient by
multilinearity: once degrees are fixed, both sides are linear in each slot).
A failing check returns the first offending tuple in lexicographic slot
order together with the exactly evaluated left and right sides, so every
reported failure can be replayed.  Operator predicates and the declared
quadratic clauses run on one loop (_first_failure) over basis tuples given in
lexicographic order: each condition maps basis indices to sparse sides, and
only a witness is made dense.  An identity scan instead computes one slot-0
slice at a time (_slice: left - right of every tuple (i, ...) in one dict)
and hands the first tuple with a nonzero value (mod p over F_p) alone to
that loop, for the witness.

All of them are declared once, in one term language (signed sums of
products, alpha(.), f(.) and the form over the arguments, with eps signs),
and _compiled and _slice turn each declaration, on first use, into the
function that runs it.

A slice reads only the nonzero contributions of its terms.  Each identity
term has one of three shapes, x*y, (x*y)*alpha(z) or alpha(x)*(y*z),
checked at import, and each shape, with the position of slot 0, is one
loop nest over nonempty cells, nonzero alpha entries and the lists of the
algebra's product index (core.ProductIndex), so no loop reads an empty
cell.  A tuple the slice never reaches has every term zero, so both sides
are {} and it passes; the first failing tuple, and its sides, are therefore
those of a scan over every tuple.  A scan that fails in slice i computes
slices 0..i only.

identity_sides and identity_residual_on_vectors (on arbitrary vectors, split
into homogeneous components) run the identities compiled for vector
arguments, computing every product and image instead of reading stored
cells: the independent route the test-suite compares the basis scans against.

One table, PREDICATE_CONDITIONS, lists the condition groups of each operator
predicate (morphisms, derivations, averaging, Rota-Baxter and centroid
operators, twist commutation, involution, B-symmetry) in the order they run.
A condition whose terms all have degree 1 in f, counted from its
declaration, is linear in f; those are the predicate's linear part
(linear_conditions), which catalog.search_maps solves exactly from the
equations _linear_equations scatters out of the terms' nonzero
contributions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import product as iproduct
from typing import NamedTuple

from .core import (
    ColorHomAlgebra,
    GradedLinearMap,
    _bracket,
    _operator_product,
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
    "condition_residual",
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


# (type of the term's first factor, position of slot 0) -> the loops over
# the term's nonzero contributions in one slot-0 slice.  k{0}, k{1}, k{2} are
# the slots at the shape's positions (p, q) or (p, q, s), and z is the value
# at the output key k.  x_p*x_q (first factor an int): z in the cell (p, q).
# (x_p*x_q)*alpha(x_s) (a P): x at key m of the cell (p, q), y at key t of
# alpha's column s, z in the cell (m, t).  alpha(x_p)*(x_q*x_s) (an A): y at
# key t of alpha's column p, x at key m of the cell (q, s), z in the cell (t, m).
_NESTS = {
    (int, 0): ("k{1} in by_row[k0]", "k, z in rows[k0][k{1}].items()"),
    (int, 1): ("k{0} in by_col[k0]", "k, z in rows[k{0}][k0].items()"),
    (P, 0): ("k{1} in by_row[k0]", "m, x in rows[k0][k{1}].items()", "t in by_row[m]",
            "k{2}, y in alpha_rows[t]", "k, z in rows[m][t].items()"),
    (P, 1): ("k{0} in by_col[k0]", "m, x in rows[k{0}][k0].items()", "t in by_row[m]",
            "k{2}, y in alpha_rows[t]", "k, z in rows[m][t].items()"),
    (P, 2): ("t, y in columns[k0].items()", "m in by_col[t]", "k{0}, k{1}, x in by_key[m]",
            "k, z in rows[m][t].items()"),
    (A, 0): ("t, y in columns[k0].items()", "m in by_row[t]", "k{1}, k{2}, x in by_key[m]",
            "k, z in rows[t][m].items()"),
    (A, 1): ("k{2} in by_row[k0]", "m, x in rows[k0][k{2}].items()", "t in by_col[m]",
            "k{0}, y in alpha_rows[t]", "k, z in rows[t][m].items()"),
    (A, 2): ("k{1} in by_col[k0]", "m, x in rows[k{1}][k0].items()", "t in by_col[m]",
            "k{0}, y in alpha_rows[t]", "k, z in rows[t][m].items()"),
}


@cache
def _slice(name: str):
    """An identity's slice function, compiled once from Python source: a function of the algebra.

    Its value maps a slot-0 index k0 to one dict r holding, at the key
    (k1*n + k2)*n + k (k1*n + k for a pair), left - right at the output key
    k of the tuple (k0, k1, k2): every left term is added and every right
    term subtracted, each as the loop nest of _NESTS that its shape and the
    position of slot 0 select, so no loop reads an empty cell.  A key a
    contribution reached holds a value, possibly zero.
    """
    arity, left, right = _IDENTITIES[name]
    base = "(k1 * n + k2) * n" if arity == 3 else "k1 * n"
    lines = ["rows, columns, eps, n = a.product_rows, a.alpha.sparse_columns, a.eps_table, a.dim",
             "by_row, by_col, by_key, alpha_rows = a.product_index", "def scan_slice(k0):", " r = {}"]
    for sign, factors, node in left + [(-sign, factors, node) for sign, factors, node in right]:
        slots = _slots(node)
        loops = [loop.format(*slots) for loop in _NESTS[type(node.x), slots.index(0)]]
        w = " * ".join([str(sign)] * (sign != 1) + [f"eps[k{s}][k{t}]" for s, t in factors]
                       + ["x", "y"] * (len(loops) > 2)) or "1"
        lines += [f"{' ' * depth}for {loop}:" for depth, loop in enumerate(loops, 1)]
        lines.insert(-1, f"{' ' * len(loops)}b, w = {base}, {w}")
        lines.append(f"{' ' * (len(loops) + 1)}r[b + k] = r.get(b + k, 0) + w * z")
    lines += [" return r", "return scan_slice"]
    scope: dict = {}
    exec("def slice_of(a):\n" + "\n".join(" " + line for line in lines), scope)
    return scope["slice_of"]


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


def _every_tuple(a: ColorHomAlgebra, arity: int):
    return iproduct(range(a.dim), repeat=arity)


def _first_failure(a: ColorHomAlgebra, tuples, conditions, width: int | None = None) -> Verdict:
    """Check (name, sides) conditions on basis tuples, given in lexicographic slot order.

    The caller passes every tuple, or only those where some condition can
    fail.  At each tuple the conditions run in the order given.  sides(*indices)
    returns (left, right) as sparse vectors of kernel scalars; only a
    failing pair is made dense, for the witness, with width coordinates
    (a.dim unless given; a scalar condition keeps its value at key 0 and
    passes width=1).  Over F_p the sides are unreduced: equal ones are
    equal mod p, and only unequal ones are reduced and compared again.
    """
    field = a.field
    p, width = field.p, width or a.dim
    for idx in tuples:
        for name, sides in conditions:
            left, right = sides(*idx)
            if left != right and (p is None or _reduced(left, p) != _reduced(right, p)):
                return _fail(
                    name, idx, dense_vector(field, width, left), dense_vector(field, width, right)
                )
    return PASS


def _reduced(x: dict, p: int) -> dict:
    """A sparse vector of F_p kernel scalars with every value in [0, p) and no zeros."""
    return {k: c % p for k, c in x.items() if c % p}


def _scan(a: ColorHomAlgebra, name: str) -> Verdict:
    """Quantify one identity over basis tuples, one slot-0 slice at a time.

    The slice function gives left - right at every tuple of a slice where
    some term is nonzero; every other tuple has all its terms zero, so both
    sides are {} and it passes.  Only the first tuple with a nonzero value
    reaches the sides, for the witness, and a scan that fails in slice i
    computes slices 0..i only.
    """
    # on basis vectors a product is a stored cell and an image a column
    sides = _compiled(name)(*_Scope(a, a, None, {}, 0, None))
    return _first_failure(a, _failing(a, _slice(name)(a), IDENTITY_ARITY[name]), [(name, sides)])


def _failing(a: ColorHomAlgebra, scan_slice, arity: int):
    """In each slice with a nonzero value (mod p over F_p), in order, the tuple of its least nonzero key.

    The least nonzero key, not the least key reached: the contributions at
    a key can cancel.
    """
    n, p = a.dim, a.field.p
    for i in range(n):
        r = scan_slice(i)
        nonzero = [k for k, v in r.items() if v] if p is None else [k for k, v in r.items() if v % p]
        if nonzero:
            j = min(nonzero) // n
            yield (i, *divmod(j, n)) if arity == 3 else (i, j)


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
    return check_hom_lie(_bracket(a))


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
    # one side: the bracket-operator defect f([f(x), y] + [x, f(y)]) - [f(x), f(y)]
    "defect": (2, [(1, (), F(P(F(0), 1))), (1, (), F(P(0, F(1)))), (-1, (), P(F(0), F(1)))]),
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
    "bracket_operator_conditions": (("twist-commutation",),),
    "commutes_with_twist": (("twist-commutation",),),
    "symmetric_automorphism": (("product-morphism",), ("twist-compatibility",), ("b-symmetry",)),
    "involutive": (("involution",),),
}

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
    group runs on every tuple of its arity, all its conditions at each tuple.
    """
    groups, s = _groups(groups, side), _Scope(target, source, f, {}, weight, form)
    for group in groups:
        arity, left, _ = _CONDITIONS[group[0]]
        conditions = [(name, _compiled(name)(*s)) for name in group]
        width = 1 if type(left[0][2]) is B else None  # a form's value is a scalar
        v = _first_failure(source, _every_tuple(source, arity), conditions, width)
        if not v:
            return v
    return PASS


def condition_residual(a: ColorHomAlgebra, f: GradedLinearMap, names, weight=0, form=None) -> dict:
    """left - right of the named conditions on (a, a, f) at every tuple.

    Returns {(name, indices, key): field element}, zeros dropped.  The
    reference route for the linear parts: on the unit maps it gives the
    equations _linear_equations scatters without building them.
    """
    s = _Scope(a, a, f, {}, a.field.kernel_scalar(weight), form)
    coerce = a.field.coerce
    out = {}
    for name in names:
        sides = _compiled(name)(*s)
        for idx in _every_tuple(a, _CONDITIONS[name][0]):
            for key, value in sparse_sub(*sides(*idx)).items():
                if value := coerce(value):
                    out[name, idx, key] = value
    return out


def _linear_equations(a: ColorHomAlgebra, names, positions, form=None) -> list:
    """The equations the named linear conditions put on the entries of an even map, as sparse rows.

    Variable v is the entry at positions[v] = (k, m), the e_k coefficient of
    f(e_m).  Each row belongs to one tuple and output key of one condition
    and holds, at v, the value there of left - right on the unit map
    E_(k,m), so the rows are what condition_residual gives on the unit maps,
    but unreduced: over F_p a value may be a multiple of p, which the
    elimination drops.  They are scattered from the nonzero contributions
    of each term (_unit_parts): no map is built and no side is evaluated.
    """
    n = a.dim
    by_column = [[] for _ in range(n)]
    for v, (k, m) in enumerate(positions):
        by_column[m].append((k, v))
    gram = form and [[a.field.kernel_scalar(g) for g in row] for row in form.gram]
    rows = []
    for name in names:
        arity, left, right = _CONDITIONS[name]
        weights = [n ** (arity - s) for s in range(arity)]
        equations: dict = {}
        for sign, factors, node in left + [(-sign, factors, node) for sign, factors, node in right]:
            inner, outer = _unit_parts(a, node, factors, weights, gram)
            for m, variables in enumerate(by_column):
                for code, y in inner[m]:
                    for k, v in variables:
                        for key, z in outer[k]:
                            row = equations.setdefault(code + key, {})
                            row[v] = row.get(v, 0) + sign * y * z
        rows += equations.values()
    return rows


def _unit_parts(a: ColorHomAlgebra, node, factors, w, gram) -> tuple:
    """A linear term as (inner, outer): on the unit map f(e_m) = e_k its contributions are inner[m] x outer[k].

    The term is a context around its one F(Y), Y free of f, so on that map
    it is Y[m] times the context at e_k.  inner[m] lists (code, Y[m]) over
    the tuples with Y[m] != 0, outer[k] (code, z) over the nonzero
    coefficients z of the context at e_k, read from the product index, alpha
    or the Gram rows; a code sums each slot's index times its weight, and
    outer's adds the output key (0 for a form).  The maps are even, so the
    factor F0 = eps(0, deg x_0) is 1, and a term with another factor is refused.
    """
    if set(factors) - {F0}:
        raise StructureError(f"no unit scatter for the factors {factors!r}")
    ns, rows, columns = range(a.dim), a.product_rows, a.alpha.sparse_columns
    by_row, by_col, by_key, alpha_rows = a.product_index
    match node:
        case F(y):
            outer = [[(k, 1)] for k in ns]
        case P(F(y), int(q)):
            outer = [[(j * w[q] + t, z) for j in by_row[k] for t, z in rows[k][j].items()] for k in ns]
        case P(int(q), F(y)):
            outer = [[(i * w[q] + t, z) for i in by_col[k] for t, z in rows[i][k].items()] for k in ns]
        case A(F(y)):
            outer = [list(columns[k].items()) for k in ns]
        case B(F(y), int(q)):
            outer = [[(j * w[q], g) for j, g in enumerate(gram[k]) if g] for k in ns]
        case B(int(q), F(y)):
            outer = [[(i * w[q], row[k]) for i, row in enumerate(gram) if row[k]] for k in ns]
        case _:
            raise StructureError(f"no unit scatter for the term {node!r}")
    match y:
        case int(p):
            inner = [[(m * w[p], 1)] for m in ns]
        case P(int(p), int(q)):
            inner = [[(i * w[p] + j * w[q], c) for i, j, c in by_key[m]] for m in ns]
        case A(int(p)):
            inner = [[(r * w[p], c) for r, c in alpha_rows[m]] for m in ns]
        case _:
            raise StructureError(f"no unit scatter for the term {node!r}")
    return inner, outer


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
    xs, ac = sparse_vector(l.field, x), l.alpha.sparse_columns
    center = [("alpha-center", lambda j: (sparse_product(l, xs, ac[j]), {}))]
    return bool(_first_failure(l, _every_tuple(l, 1), center))


def check_bracket_operator_conditions(l: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """The two conditions under which x∘y = [f(x), y] is Hom-Novikov.

    defect-centrality: f([f(x),y] + [x,f(y)]) - [f(x),f(y)] lies in the
    alpha-center of l for all basis x, y; the witness, when one exists,
    names (x, y, z) with [defect, alpha(z)] != 0.
    operator-right-commutativity: [f([f(x),y]), alpha(z)] =
    eps(y,z) [f([f(x),z]), alpha(y)], the right-commutativity of x∘y.
    """
    _require_even_endo(l.basis, f, "operator")
    v = _holds(l, l, f, PREDICATE_CONDITIONS["bracket_operator_conditions"])
    if not v:
        return v
    defect_at, ac = _compiled("defect")(*_Scope(l, l, f, {}, 0, None)), l.alpha.sparse_columns
    defect = cache(lambda i, j: defect_at(i, j)[0])
    # both sides vanish where the defect of (i, j) is empty
    nonzero_defect = ((i, j, k) for i, j in _every_tuple(l, 2) if defect(i, j) for k in range(l.dim))
    centrality = ("defect-centrality", lambda i, j, k: (sparse_product(l, defect(i, j), ac[k]), {}))
    v = _first_failure(l, nonzero_defect, [centrality])
    if not v:
        return v
    v = _scan(_operator_product(l, f), "right-commutativity")
    return v or Verdict(False, replace(v.witness, identity="operator-right-commutativity"))
