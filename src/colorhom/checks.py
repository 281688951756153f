"""Identity checks with exact witnesses.

Every check quantifies an identity over basis tuples (sufficient by
multilinearity: once degrees are fixed, both sides are linear in each slot).
A failing check returns the first offending tuple in lexicographic slot
order together with the exactly evaluated left and right sides, so every
reported failure can be replayed.  Identity scans and operator predicates
share one loop (_first_failure) over basis tuples given in lexicographic
order: each condition maps basis indices to sparse sides, and only a
witness is made dense.

Each identity is declared once, as the signed terms of its two sides in
three shapes (C: x*y, L: (x*y)*alpha(z), R: alpha(x)*(y*z)), and _sides
sums them.  An identity scan visits only the support of those terms: the
algebra's product index (core.ProductIndex) tells where each term can be
nonzero on basis vectors.  At a skipped tuple every term is zero, so both
sides are {} and the tuple passes; the first failing tuple, and its sides,
are therefore those of a scan over every tuple.  The support is built one
slot-0 value at a time, so a scan that stops early pays only for the
slices it reached.

The same term sums back identity_sides and identity_residual_on_vectors,
which evaluates an identity on arbitrary (non-homogeneous) vectors by
splitting them into homogeneous components; it is the independent route the
test-suite compares the basis scans against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct
from typing import NamedTuple

from .core import (
    ColorHomAlgebra,
    GradedLinearMap,
    _algebra_from_cells,
    _bracket_cell,
    _require_even_endo,
    dense_vector,
    homogeneous_components,
    identity_map,
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
# identities as signed sums of terms
#
# Every identity is multilinear: each side is a sum of products of three
# shapes, each naming every slot once.  A term (sign, pairs, shape) is worth
# sign times eps(deg s, deg t) for each slot pair (s, t) in pairs, times the
# shape's product; a bracket [u, v] = u*v - eps(u, v) v*u gives two terms.

class C(NamedTuple):
    """e_p * e_q on the arguments in slots p and q."""

    p: int
    q: int


class L(NamedTuple):
    """(e_p * e_q) * alpha(e_r)."""

    p: int
    q: int
    r: int


class R(NamedTuple):
    """alpha(e_p) * (e_q * e_r)."""

    p: int
    q: int
    r: int


E01, E12, E20 = (0, 1), (1, 2), (2, 0)

# name -> (arity, left terms, right terms)
_IDENTITIES = {
    "epsilon-commutativity": (2, [(1, (), C(0, 1))], [(1, (E01,), C(1, 0))]),
    "hom-associativity": (3, [(1, (), R(0, 1, 2))], [(1, (), L(0, 1, 2))]),
    "right-commutativity": (3, [(1, (), L(0, 1, 2))], [(1, (E12,), L(0, 2, 1))]),
    # the twisted associator is eps-symmetric in its first two slots
    "left-symmetry": (
        3,
        [(1, (), L(0, 1, 2)), (-1, (), R(0, 1, 2))],
        [(1, (E01,), L(1, 0, 2)), (-1, (E01,), R(1, 0, 2))],
    ),
    "skew-symmetry": (2, [(1, (), C(0, 1))], [(-1, (E01,), C(1, 0))]),
    "hom-jacobi": (
        3, [(1, (E20,), R(0, 1, 2)), (1, (E01,), R(1, 2, 0)), (1, (E12,), R(2, 0, 1))], []
    ),
    # eps(z,x) [x,y]*alpha(z) + eps(x,y) [y,z]*alpha(x) + eps(y,z) [z,x]*alpha(y)
    "cyclic-right-products": (3, [
        (1, (E20,), L(0, 1, 2)), (-1, (E20, E01), L(1, 0, 2)),
        (1, (E01,), L(1, 2, 0)), (-1, (E01, E12), L(2, 1, 0)),
        (1, (E12,), L(2, 0, 1)), (-1, (E12, E20), L(0, 2, 1)),
    ], []),
    # eps(z,x) alpha(x)*[y,z] + eps(x,y) alpha(y)*[z,x] + eps(y,z) alpha(z)*[x,y]
    "cyclic-left-products": (3, [
        (1, (E20,), R(0, 1, 2)), (-1, (E20, E12), R(0, 2, 1)),
        (1, (E01,), R(1, 2, 0)), (-1, (E01, E20), R(1, 0, 2)),
        (1, (E12,), R(2, 0, 1)), (-1, (E12, E01), R(2, 1, 0)),
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


def _shapes(name: str) -> list:
    _, left, right = _IDENTITIES[name]
    return [shape for _, _, shape in left + right]


def _sides(a: ColorHomAlgebra, terms, keys, eps, products, images) -> tuple:
    """An identity's (left, right), the signed sums of its (left, right) terms, as sparse vectors.

    Slot s of the identity is keys[s]: products[keys[s]][keys[t]] is the
    sparse product of the arguments in slots s and t, images[keys[s]] the
    image of the argument in slot s under alpha, and eps[keys[s]][keys[t]]
    the bicharacter on their degrees.
    """
    sides = []
    for side_terms in terms:
        out = {}
        for sign, pairs, shape in side_terms:
            kind = type(shape)
            if kind is C:
                value = products[keys[shape.p]][keys[shape.q]]
            elif kind is L:
                value = products[keys[shape.p]][keys[shape.q]]
                if value:
                    value = sparse_product(a, value, images[keys[shape.r]])
            else:
                value = products[keys[shape.q]][keys[shape.r]]
                if value:
                    value = sparse_product(a, images[keys[shape.p]], value)
            if value:
                coefficient = sign
                for s, t in pairs:
                    coefficient *= eps[keys[s]][keys[t]]
                if coefficient != 1:
                    value = sparse_scale(coefficient, value)
                # value may be a stored cell: sparse_add copies, nothing is mutated
                out = sparse_add(out, value) if out else value
        sides.append(out)
    return tuple(sides)


def identity_sides(a: ColorHomAlgebra, name: str, degrees, vectors):
    """Evaluate one identity's two sides on homogeneous arguments."""
    return tuple(_dense(a, side) for side in _sparse_sides(a, name, degrees, vectors))


def _sparse_sides(a: ColorHomAlgebra, name: str, degrees, vectors):
    if name not in _IDENTITIES:
        raise StructureError(f"unknown identity {name!r}")
    arity = IDENTITY_ARITY[name]
    if len(degrees) != arity or len(vectors) != arity:
        raise StructureError(f"identity {name!r} takes {arity} arguments")
    n = a.dim
    for v in vectors:
        if len(v) != n:
            raise StructureError(f"vector length {len(v)} != dim {n}")
    field = a.field
    eps = [[field.kernel_scalar(a.eps(d, e)) for e in degrees] for d in degrees]
    vecs = [sparse_vector(field, v) for v in vectors]
    products = [[sparse_product(a, x, y) for y in vecs] for x in vecs]
    images = [sparse_apply(a.alpha, x) for x in vecs]
    return _sides(a, _IDENTITIES[name][1:], range(arity), eps, products, images)


def _dense(a: ColorHomAlgebra, x: dict) -> tuple:
    return dense_vector(a.field, a.dim, x)


def _units(a: ColorHomAlgebra) -> list:
    return [{i: 1} for i in range(a.dim)]


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
    """Quantify one identity over basis tuples, fed as unit vectors.

    Only the support of the identity's terms is visited: every other tuple
    has all its terms zero, so both sides are {} and it passes.
    """
    arity, *terms = _IDENTITIES[name]
    eps, rows, columns = a.eps_table, a.product_rows, a.alpha.sparse_columns
    shapes = _shapes(name)
    support = _support(a, shapes) if arity == 3 else _pair_support(a, shapes)
    # on basis vectors a product is a stored cell and an image a column
    return _first_failure(
        a, support, [(name, lambda *idx: _sides(a, terms, idx, eps, rows, columns))]
    )


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
    """The pairs (i, j) where some C term can be nonzero, in lexicographic order."""
    x = a.product_index
    for i in range(a.dim):
        js = set()
        for term in terms:
            js.update(x.by_row[i] if term.p == 0 else x.by_col[i])
        for j in sorted(js):
            yield i, j


def _support(a: ColorHomAlgebra, terms):
    """The triples where some L or R term can be nonzero, in lexicographic order.

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
        while found:
            low = found & -found
            found ^= low
            yield (i, *divmod(low.bit_length() - 1, n))


def _transposed(bits: int, n: int) -> int:
    """The bit set with bit v*n + u for each bit u*n + v of bits."""
    out = 0
    for b in _bits(bits):
        u, v = divmod(b, n)
        out |= 1 << v * n + u
    return out


def _term_bits(a: ColorHomAlgebra, term, i: int):
    """Where an L or R term can be nonzero once slot 0 holds basis index i.

    Returns (slot, bits): bits has bit u*n + v where u is the value of that
    slot and v the value of the term's third slot that goes with it.
    """
    x, n, columns = a.product_index, a.dim, a.alpha.sparse_columns
    p, q, r = term
    if type(term) is L:
        # (e_p e_q) alpha(e_r): a nonempty cell (p, q), and r in aright of one of its keys
        if p == 0:
            return q, _spread(x.aright, _in_row(a, i), n)
        if q == 0:
            return p, _spread(x.aright, _in_column(a, i), n)
        # the cells with a key m such that e_m * alpha(e_i) can be nonzero
        return p, _union(x.by_key, {m for k in columns[i] for m in x.by_col[k]})
    # alpha(e_p) (e_q e_r): a nonempty cell (q, r), and p in aleft of one of its keys
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
    if name not in _IDENTITIES:
        raise StructureError(f"unknown identity {name!r}")
    arity = IDENTITY_ARITY[name]
    if len(vectors) != arity:
        raise StructureError(f"identity {name!r} takes {arity} arguments")
    split = [homogeneous_components(a.basis, v) for v in vectors]
    total = {}
    for combo in iproduct(*split):
        degs = tuple(d for d, _ in combo)
        vecs = tuple(v for _, v in combo)
        total = sparse_add(total, sparse_sub(*_sparse_sides(a, name, degs, vecs)))
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
    ident = identity_map(a.basis)
    return _first_failure(a, *_composites(a, "involution", (a.alpha, a.alpha), (ident, ident)))


def _composites(a: ColorHomAlgebra, name: str, left, right) -> tuple:
    """left[0] after left[1] equals right[0] after right[1]: one condition per column."""
    (m, p), (q, r) = left, right
    pc, rc = p.sparse_columns, r.sparse_columns
    return _every_tuple(a, 1), [(name, lambda i: (sparse_apply(m, pc[i]), sparse_apply(q, rc[i])))]


# ---------------------------------------------------------------------------
# operator predicates
#
# Each condition is a function of basis indices returning sparse sides, run
# on the shared loop; images of basis vectors are the maps' sparse columns.
#
# The conditions that are linear in the map are stated once, by builders
# returning (tuples, [(name, sides)]) for _first_failure: _twist_commutation,
# _twist_compatibility, _leibniz, _centroid_sides and quadratic._b_symmetry.
# Their tuples do not depend on the map, so catalog.search_maps can evaluate
# them on unit maps and solve them (catalog.OPERATIONS names each
# predicate's linear part).

def _require_shared_space(a: ColorHomAlgebra, b: ColorHomAlgebra):
    if a.basis != b.basis:
        raise StructureError("the two algebras must share a basis")
    if a.bicharacter != b.bicharacter:
        raise StructureError("the two algebras must share a bicharacter")


def _twist_commutation(a: ColorHomAlgebra, f: GradedLinearMap) -> tuple:
    """alpha.f = f.alpha, column by column."""
    return _composites(a, "twist-commutation", (a.alpha, f), (f, a.alpha))


def _twist_compatibility(a: ColorHomAlgebra, b: ColorHomAlgebra, f: GradedLinearMap) -> tuple:
    """f.alpha_a = alpha_b.f, column by column."""
    return _composites(a, "twist-compatibility", (f, a.alpha), (b.alpha, f))


def commutes_with_twist(a: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """f must commute with a's twisting map; witness compares columns."""
    if f.basis != a.basis:
        raise StructureError("composition needs a shared basis")
    return _first_failure(a, *_twist_commutation(a, f))


def is_weak_morphism(a: ColorHomAlgebra, b: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """f(x *_a y) = f(x) *_b f(y); both products live on the shared basis."""
    _require_shared_space(a, b)
    _require_even_endo(a.basis, f, "morphism candidate")
    rows, fc = a.product_rows, f.sparse_columns

    def product_morphism(i, j):
        return sparse_apply(f, rows[i][j]), sparse_product(b, fc[i], fc[j])

    return _first_failure(a, _every_tuple(a, 2), [("product-morphism", product_morphism)])


def is_morphism(a: ColorHomAlgebra, b: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """Weak morphism that also intertwines the twisting maps: f.alpha_a = alpha_b.f."""
    v = is_weak_morphism(a, b, f)
    if not v:
        return v
    return _first_failure(a, *_twist_compatibility(a, b, f))


def _leibniz(a: ColorHomAlgebra, d: GradedLinearMap) -> tuple:
    """d(x*y) = d(x)*y + eps(deg d, x) x*d(y) on every basis pair."""
    rows, dc, units, degs = a.product_rows, d.sparse_columns, _units(a), a.degrees
    # eps(deg d, deg e_i), evaluated once per basis degree the scan reaches
    eps_d = cache(lambda degree: a.field.kernel_scalar(a.eps(d.degree, degree)))

    def leibniz(i, j):
        left = sparse_apply(d, rows[i][j])
        first = sparse_product(a, dc[i], units[j])
        second = sparse_scale(eps_d(degs[i]), sparse_product(a, units[i], dc[j]))
        return left, sparse_add(first, second)

    return _every_tuple(a, 2), [("leibniz", leibniz)]


def is_derivation(a: ColorHomAlgebra, d: GradedLinearMap, degree=None) -> Verdict:
    """Colored Leibniz rule: d(x*y) = d(x)*y + eps(deg d, x) x*d(y)."""
    if d.basis != a.basis:
        raise StructureError("derivation candidate lives on a different basis")
    if degree is not None and degree != d.degree:
        raise StructureError("declared degree disagrees with the map's degree")
    return _first_failure(a, *_leibniz(a, d))


def _sides_chosen(a: ColorHomAlgebra, side: str, left, right) -> tuple:
    """The left and/or right (name, sides) condition on every basis pair; left first."""
    if side not in ("left", "right", "both"):
        raise StructureError(f"side must be left/right/both, got {side!r}")
    conditions = [c for s, c in (("left", left), ("right", right)) if side in (s, "both")]
    return _every_tuple(a, 2), conditions


def _sided(a: ColorHomAlgebra, f: GradedLinearMap, side: str, role: str, sides) -> Verdict:
    """An even operator that commutes with alpha and meets its conditions sides(a, f, side)."""
    _require_even_endo(a.basis, f, role)
    conditions = sides(a, f, side)
    v = commutes_with_twist(a, f)
    if not v:
        return v
    return _first_failure(a, *conditions)


def _averaging_sides(a: ColorHomAlgebra, f: GradedLinearMap, side: str) -> tuple:
    """left: f(x)*f(y) = f(f(x)*y); right: f(x)*f(y) = f(x*f(y)).  Quadratic in f."""
    fc, units = f.sparse_columns, _units(a)

    def left(i, j):
        return sparse_product(a, fc[i], fc[j]), sparse_apply(f, sparse_product(a, fc[i], units[j]))

    def right(i, j):
        return sparse_product(a, fc[i], fc[j]), sparse_apply(f, sparse_product(a, units[i], fc[j]))

    return _sides_chosen(a, side, ("left-averaging", left), ("right-averaging", right))


def is_averaging(a: ColorHomAlgebra, f: GradedLinearMap, side: str = "both") -> Verdict:
    """Averaging operator: commutes with alpha and absorbs itself.

    left side:  f(x)*f(y) = f(f(x)*y);  right side:  f(x)*f(y) = f(x*f(y)).
    """
    return _sided(a, f, side, "averaging candidate", _averaging_sides)


def _centroid_sides(a: ColorHomAlgebra, f: GradedLinearMap, side: str) -> tuple:
    """left: f(x*y) = f(x)*y; right: f(x*y) = x*f(y)."""
    rows, fc, units = a.product_rows, f.sparse_columns, _units(a)

    def left(i, j):
        return sparse_apply(f, rows[i][j]), sparse_product(a, fc[i], units[j])

    def right(i, j):
        return sparse_apply(f, rows[i][j]), sparse_product(a, units[i], fc[j])

    return _sides_chosen(a, side, ("left-centroid", left), ("right-centroid", right))


def is_centroid(a: ColorHomAlgebra, f: GradedLinearMap, side: str = "both") -> Verdict:
    """Centroid element: commutes with alpha and slides out of the product."""
    return _sided(a, f, side, "centroid candidate", _centroid_sides)


def is_rota_baxter(l: ColorHomAlgebra, r: GradedLinearMap, weight) -> Verdict:
    """Weight-lambda identity on l's own product, plus twist-commutation.

    [r(x), r(y)] = r([r(x), y] + [x, r(y)] + lambda [x, y]), where [,] is
    l's product.  Whether that product is Hom-Lie is a separate check.
    """
    _require_even_endo(l.basis, r, "operator")
    lam = l.field.kernel_scalar(weight)
    v = commutes_with_twist(l, r)
    if not v:
        return v
    rows, rc, units = l.product_rows, r.sparse_columns, _units(l)

    def rota_baxter(i, j):
        inner = sparse_add(sparse_product(l, rc[i], units[j]), sparse_product(l, units[i], rc[j]))
        inner = sparse_add(inner, sparse_scale(lam, rows[i][j]))
        return sparse_product(l, rc[i], rc[j]), sparse_apply(r, inner)

    return _first_failure(l, _every_tuple(l, 2), [("rota-baxter", rota_baxter)])


def in_alpha_center(l: ColorHomAlgebra, x) -> bool:
    """True when [x, alpha(y)] = 0 for every y (checked on basis images)."""
    if len(x) != l.dim:
        raise StructureError(f"vectors must have length {l.dim}")
    xs, ac = sparse_vector(l.field, x), l.alpha.sparse_columns
    center = [("alpha-center", lambda j: (sparse_product(l, xs, ac[j]), {}))]
    return bool(_first_failure(l, _every_tuple(l, 1), center))


def check_bracket_operator_conditions(l: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """The two conditions under which x*y = [f(x), y] is Hom-Novikov.

    defect-centrality: f([f(x),y] + [x,f(y)]) - [f(x),f(y)] lies in the
    alpha-center of l for all basis x, y; the witness, when one exists,
    names (x, y, z) with [defect, alpha(z)] != 0.
    operator-right-commutativity: [f([f(x),y]), alpha(z)] =
    eps(y,z) [f([f(x),z]), alpha(y)] on basis triples.
    """
    _require_even_endo(l.basis, f, "operator")
    v = commutes_with_twist(l, f)
    if not v:
        return v
    n = l.dim
    fc, ac, units, eps = f.sparse_columns, l.alpha.sparse_columns, _units(l), l.eps_table
    # fx_y[i][j] = [f(e_i), e_j]
    fx_y = [[sparse_product(l, fc[i], units[j]) for j in range(n)] for i in range(n)]
    defect = [
        [
            sparse_sub(
                sparse_apply(f, sparse_add(fx_y[i][j], sparse_product(l, units[i], fc[j]))),
                sparse_product(l, fc[i], fc[j]),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    # both sides vanish where defect[i][j] is empty
    nonzero_defect = (
        (i, j, k) for i, row in enumerate(defect) for j, c in enumerate(row) if c for k in range(n)
    )
    v = _first_failure(
        l,
        nonzero_defect,
        [("defect-centrality", lambda i, j, k: (sparse_product(l, defect[i][j], ac[k]), {}))],
    )
    if not v:
        return v
    g = [[sparse_apply(f, c) for c in row] for row in fx_y]

    def operator_right_commutativity(i, j, k):
        left = sparse_product(l, g[i][j], ac[k])
        return left, sparse_scale(eps[j][k], sparse_product(l, g[i][k], ac[j]))

    def nonzero_g():
        # both sides vanish where g[i][j] and g[i][k] are empty
        for i, row in enumerate(g):
            some = [k for k, c in enumerate(row) if c]
            for j, c in enumerate(row):
                for k in range(n) if c else some:
                    yield i, j, k

    return _first_failure(
        l, nonzero_g(), [("operator-right-commutativity", operator_right_commutativity)]
    )
