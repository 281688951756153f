"""Identity checks with exact witnesses.

Every check quantifies an identity over basis tuples (sufficient by
multilinearity: once degrees are fixed, both sides are linear in each slot).
A failing check returns the first offending tuple in lexicographic slot
order together with the exactly evaluated left and right sides, so every
reported failure can be replayed.  Identity scans, operator predicates and
the declared quadratic clauses share one loop (_first_failure) over basis
tuples given in lexicographic order: each condition maps basis indices to
sparse sides, and only a witness is made dense.

All of them are declared once, in one term language (signed sums of
products, alpha(.), f(.) and the form over the arguments, with eps signs),
and _compiled turns each declaration, on first use, into the function that
runs it.

An identity scan visits only the support of its terms.  Each identity term
has one of three shapes, x*y, (x*y)*alpha(z) or alpha(x)*(y*z), checked at
import, and the algebra's product index (core.ProductIndex) tells where each
can be nonzero on basis vectors.  At a skipped tuple every term is zero, so
both sides are {} and the tuple passes; the first failing tuple, and its
sides, are therefore those of a scan over every tuple.  The support is
built one slot-0 value at a time, so a scan that stops early pays only for
the slices it reached.

identity_sides and identity_residual_on_vectors (on arbitrary vectors, split
into homogeneous components) run the identities compiled for vector
arguments, computing every product and image instead of reading stored
cells: the independent route the test-suite compares the basis scans against.

One table, PREDICATE_CONDITIONS, lists the condition groups of each operator
predicate (morphisms, derivations, averaging, Rota-Baxter and centroid
operators, twist commutation, involution, B-symmetry) in the order they run.
A condition whose terms all have degree 1 in f, counted from its
declaration, is linear in f; those are the predicate's linear part
(linear_conditions), which catalog.search_maps solves exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import product as iproduct
from typing import NamedTuple

from .core import (
    ColorHomAlgebra,
    GradedLinearMap,
    _algebra_from_cells,
    _bracket_cell,
    _operator_cell,
    _require_even_endo,
    dense_vector,
    homogeneous_components,
    matrix_rank,
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
    """eps(deg f, deg e_i), evaluated once per degree and kept in eps_f."""
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
    """Raise unless every term has a support shape naming each slot once: the walk knows no other."""
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
    """Quantify one identity over basis tuples.

    Only the support of the identity's terms is visited: every other tuple
    has all its terms zero, so both sides are {} and it passes.
    """
    arity, left, right = _IDENTITIES[name]
    terms = [node for _, _, node in left + right]
    support = _support(a, terms) if arity == 3 else _pair_support(a, terms)
    # on basis vectors a product is a stored cell and an image a column
    return _first_failure(a, support, [(name, _compiled(name)(*_Scope(a, a, None, {}, 0, None)))])


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(masks, keys) -> int:
    out = 0
    for k in keys:
        out |= masks[k]
    return out


def _pair_support(a: ColorHomAlgebra, terms):
    """The pairs (i, j) where some x_p * x_q term can be nonzero, in lexicographic order."""
    x = a.product_index
    for i in range(a.dim):
        js = set()
        for term in terms:
            js.update(x.by_row[i] if term.x == 0 else x.by_col[i])
        for j in sorted(js):
            yield i, j


def _support(a: ColorHomAlgebra, terms):
    """The triples where some three-slot term can be nonzero, in lexicographic order.

    Built one slot-0 value at a time, so a scan that stops in slice i has
    paid for slices up to i only.  A slice is a bit set with bit j*n + k
    for the candidate (i, j, k).
    """
    n = a.dim
    for i in range(n):
        found = 0
        for term in terms:
            slot, bits = _term_bits(a, term, i)
            found |= bits if slot == 1 else _transposed(bits, n)
        for b in _bits(found):
            yield (i, *divmod(b, n))


def _transposed(bits: int, n: int) -> int:
    """The bit set with bit v*n + u for each bit u*n + v of bits."""
    out = 0
    for b in _bits(bits):
        u, v = divmod(b, n)
        out |= 1 << v * n + u
    return out


def _term_bits(a: ColorHomAlgebra, term, i: int):
    """Where a three-slot term can be nonzero once slot 0 holds basis index i.

    Returns (slot, bits): bits has bit u*n + v where u is the value of that
    slot and v the value of the term's third slot that goes with it.
    """
    x, n, columns = a.product_index, a.dim, a.alpha.sparse_columns
    if type(term.x) is P:
        # (e_p e_q) alpha(e_r): a nonempty cell (p, q), and r in aright of one of its keys
        (p, q), r = term.x, term.y.x
        if p == 0:
            return q, _spread(x.aright, _in_row(a, i), n)
        if q == 0:
            return p, _spread(x.aright, _in_column(a, i), n)
        # the cells with a key m such that e_m * alpha(e_i) can be nonzero
        return p, _union(x.by_key, {m for k in columns[i] for m in x.by_col[k]})
    # alpha(e_p) (e_q e_r): a nonempty cell (q, r), and p in aleft of one of its keys
    p, (q, r) = term.x.x, term.y
    if p == 0:
        # the cells with a key m such that alpha(e_i) * e_m can be nonzero
        return q, _union(x.by_key, {m for k in columns[i] for m in x.by_row[k]})
    if q == 0:
        return r, _spread(x.aleft, _in_row(a, i), n)
    return q, _spread(x.aleft, _in_column(a, i), n)


def _in_row(a: ColorHomAlgebra, i: int):
    """(j, e_i * e_j) over the nonempty cells of row i."""
    return ((j, a.product_rows[i][j]) for j in a.product_index.by_row[i])


def _in_column(a: ColorHomAlgebra, j: int):
    """(i, e_i * e_j) over the nonempty cells of column j."""
    return ((i, a.product_rows[i][j]) for i in a.product_index.by_col[j])


def _spread(masks, cells, n: int) -> int:
    """Bit u*n + v for each (u, cell) of cells and each v in masks[m] of a key m of the cell."""
    bits = 0
    for u, cell in cells:
        bits |= _union(masks, cell) << u * n
    return bits


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
    bracket = _algebra_from_cells(a.basis, a.bicharacter, _bracket_cell(a), a.alpha)
    return check_hom_lie(bracket)


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
    if matrix_rank(a.field, a.alpha.matrix) != a.dim:
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

    Returns {(name, indices, key): field element}, zeros dropped.
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
    product = _algebra_from_cells(l.basis, l.bicharacter, _operator_cell(l, f), l.alpha)
    v = _scan(product, "right-commutativity")
    return v or Verdict(False, replace(v.witness, identity="operator-right-commutativity"))
