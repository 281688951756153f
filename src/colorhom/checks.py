"""Identity checks with exact witnesses.

Every check quantifies an identity over basis tuples (sufficient by
multilinearity: once degrees are fixed, both sides are linear in each slot).
A failing check returns the first offending tuple in lexicographic slot
order together with the exactly evaluated left and right sides, so every
reported failure can be replayed.  Identity scans and operator predicates
share one loop (_first_failure): each condition maps basis indices to
sparse sides, and only a witness is made dense.

The same two-sided identity evaluators back identity_residual_on_vectors,
which evaluates an identity on arbitrary (non-homogeneous) vectors by
splitting them into homogeneous components; it is the independent route the
test-suite compares the basis scans against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct

from .core import (
    ColorHomAlgebra,
    GradedLinearMap,
    _algebra_from_cells,
    _bracket_cell,
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
# two-sided identity evaluators on homogeneous arguments
#
# Each takes (algebra, eps, keys, vectors): vectors[s] is a sparse vector,
# homogeneous of some degree, and eps[keys[s]][keys[t]] is the bicharacter on
# the degrees of slots s and t.  The basis scans pass the algebra's eps_table
# with basis indices as keys; identity_sides passes a table over its slots.
# Each returns (left, right) as sparse vectors.

def _mul(a, x, y):
    return sparse_product(a, x, y)


def _al(a, x):
    return sparse_apply(a.alpha, x)


def _bracket(a, e, x, y):
    # x*y - e y*x with e = eps(x, y), formed from a's own product
    return sparse_sub(_mul(a, x, y), sparse_scale(e, _mul(a, y, x)))


def _sides_epsilon_commutativity(a, eps, keys, vecs):
    (dx, dy), (x, y) = keys, vecs
    return _mul(a, x, y), sparse_scale(eps[dx][dy], _mul(a, y, x))


def _sides_hom_associativity(a, eps, keys, vecs):
    x, y, z = vecs
    return _mul(a, _al(a, x), _mul(a, y, z)), _mul(a, _mul(a, x, y), _al(a, z))


def _sides_right_commutativity(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    left = _mul(a, _mul(a, x, y), _al(a, z))
    right = sparse_scale(eps[dy][dz], _mul(a, _mul(a, x, z), _al(a, y)))
    return left, right


def _sides_left_symmetry(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    left = sparse_sub(_mul(a, _mul(a, x, y), _al(a, z)), _mul(a, _al(a, x), _mul(a, y, z)))
    assoc_yx = sparse_sub(
        _mul(a, _mul(a, y, x), _al(a, z)), _mul(a, _al(a, y), _mul(a, x, z))
    )
    return left, sparse_scale(eps[dx][dy], assoc_yx)


def _sides_skew_symmetry(a, eps, keys, vecs):
    (dx, dy), (x, y) = keys, vecs
    return _mul(a, x, y), sparse_scale(-eps[dx][dy], _mul(a, y, x))


def _sides_hom_jacobi(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    acc = sparse_scale(eps[dz][dx], _mul(a, _al(a, x), _mul(a, y, z)))
    acc = sparse_add(acc, sparse_scale(eps[dx][dy], _mul(a, _al(a, y), _mul(a, z, x))))
    acc = sparse_add(acc, sparse_scale(eps[dy][dz], _mul(a, _al(a, z), _mul(a, x, y))))
    return acc, {}


def _sides_cyclic_right_products(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    acc = sparse_scale(eps[dz][dx], _mul(a, _bracket(a, eps[dx][dy], x, y), _al(a, z)))
    acc = sparse_add(
        acc, sparse_scale(eps[dx][dy], _mul(a, _bracket(a, eps[dy][dz], y, z), _al(a, x)))
    )
    acc = sparse_add(
        acc, sparse_scale(eps[dy][dz], _mul(a, _bracket(a, eps[dz][dx], z, x), _al(a, y)))
    )
    return acc, {}


def _sides_cyclic_left_products(a, eps, keys, vecs):
    (dx, dy, dz), (x, y, z) = keys, vecs
    acc = sparse_scale(eps[dz][dx], _mul(a, _al(a, x), _bracket(a, eps[dy][dz], y, z)))
    acc = sparse_add(
        acc, sparse_scale(eps[dx][dy], _mul(a, _al(a, y), _bracket(a, eps[dz][dx], z, x)))
    )
    acc = sparse_add(
        acc, sparse_scale(eps[dy][dz], _mul(a, _al(a, z), _bracket(a, eps[dx][dy], x, y)))
    )
    return acc, {}


_IDENTITIES = {
    "epsilon-commutativity": (2, _sides_epsilon_commutativity),
    "hom-associativity": (3, _sides_hom_associativity),
    "right-commutativity": (3, _sides_right_commutativity),
    "left-symmetry": (3, _sides_left_symmetry),
    "skew-symmetry": (2, _sides_skew_symmetry),
    "hom-jacobi": (3, _sides_hom_jacobi),
    "cyclic-right-products": (3, _sides_cyclic_right_products),
    "cyclic-left-products": (3, _sides_cyclic_left_products),
}

IDENTITY_ARITY = {name: arity for name, (arity, _) in _IDENTITIES.items()}

# which multilinear identities each algebra-level check quantifies
IDENTITIES_BY_CHECK = {
    "epsilon_commutative": ("epsilon-commutativity",),
    "hom_associative": ("hom-associativity",),
    "hom_novikov": ("right-commutativity", "left-symmetry"),
    "left_symmetric": ("left-symmetry",),
    "hom_lie": ("skew-symmetry", "hom-jacobi"),
    "cyclic_commutator_products": ("cyclic-right-products", "cyclic-left-products"),
}


def identity_sides(a: ColorHomAlgebra, name: str, degrees, vectors):
    """Evaluate one identity's two sides on homogeneous arguments."""
    return tuple(_dense(a, side) for side in _sparse_sides(a, name, degrees, vectors))


def _sparse_sides(a: ColorHomAlgebra, name: str, degrees, vectors):
    if name not in _IDENTITIES:
        raise StructureError(f"unknown identity {name!r}")
    arity, sides = _IDENTITIES[name]
    if len(degrees) != arity or len(vectors) != arity:
        raise StructureError(f"identity {name!r} takes {arity} arguments")
    n = a.dim
    for v in vectors:
        if len(v) != n:
            raise StructureError(f"vector length {len(v)} != dim {n}")
    field = a.field
    eps = [[field.kernel_scalar(a.eps(d, e)) for e in degrees] for d in degrees]
    return sides(a, eps, tuple(range(arity)), tuple(sparse_vector(field, v) for v in vectors))


def _dense(a: ColorHomAlgebra, x: dict) -> tuple:
    return dense_vector(a.field, a.dim, x)


def _units(a: ColorHomAlgebra) -> list:
    return [{i: 1} for i in range(a.dim)]


def _first_failure(a: ColorHomAlgebra, arity: int, conditions) -> Verdict:
    """Check (name, sides) conditions on every basis tuple, lexicographic slot order.

    At each tuple the conditions run in the order given.  sides(*indices)
    returns (left, right) as sparse vectors of kernel scalars; only a
    failing pair is made dense, for the witness.  Over F_p the sides are
    unreduced: equal ones are equal mod p, and only unequal ones are
    reduced and compared again.
    """
    p = a.field.p
    for idx in iproduct(range(a.dim), repeat=arity):
        for name, sides in conditions:
            left, right = sides(*idx)
            if left != right and (p is None or _reduced(left, p) != _reduced(right, p)):
                return _fail(name, idx, _dense(a, left), _dense(a, right))
    return PASS


def _reduced(x: dict, p: int) -> dict:
    """A sparse vector of F_p kernel scalars with every value in [0, p) and no zeros."""
    return {k: c % p for k, c in x.items() if c % p}


def _scan(a: ColorHomAlgebra, name: str) -> Verdict:
    """Quantify one identity over basis tuples, fed as unit vectors."""
    arity, sides = _IDENTITIES[name]
    eps = a.eps_table
    units = _units(a)
    return _first_failure(
        a, arity, [(name, lambda *idx: sides(a, eps, idx, tuple(map(units.__getitem__, idx))))]
    )


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
    return _composites_agree(a, "involution", (a.alpha, a.alpha), (ident, ident))


def _composites_agree(a: ColorHomAlgebra, name: str, left, right) -> Verdict:
    """left[0] after left[1] equals right[0] after right[1]; witness compares columns."""
    (m, p), (q, r) = left, right
    pc, rc = p.sparse_columns, r.sparse_columns
    return _first_failure(
        a, 1, [(name, lambda i: (sparse_apply(m, pc[i]), sparse_apply(q, rc[i])))]
    )


# ---------------------------------------------------------------------------
# operator predicates
#
# Each condition is a function of basis indices returning sparse sides, run
# on the shared loop; images of basis vectors are the maps' sparse columns.

def _require_shared_space(a: ColorHomAlgebra, b: ColorHomAlgebra):
    if a.basis != b.basis:
        raise StructureError("the two algebras must share a basis")
    if a.bicharacter != b.bicharacter:
        raise StructureError("the two algebras must share a bicharacter")


def _require_even_endo(a: ColorHomAlgebra, f: GradedLinearMap, role: str):
    if f.basis != a.basis:
        raise StructureError(f"{role} lives on a different basis")
    if not f.is_even:
        raise StructureError(f"{role} must be even (degree 0)")


def commutes_with_twist(a: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """f must commute with a's twisting map; witness compares columns."""
    if f.basis != a.basis:
        raise StructureError("composition needs a shared basis")
    return _composites_agree(a, "twist-commutation", (a.alpha, f), (f, a.alpha))


def is_weak_morphism(a: ColorHomAlgebra, b: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """f(x *_a y) = f(x) *_b f(y); both products live on the shared basis."""
    _require_shared_space(a, b)
    _require_even_endo(a, f, "morphism candidate")
    rows, fc = a.product_rows, f.sparse_columns

    def product_morphism(i, j):
        return sparse_apply(f, rows[i][j]), sparse_product(b, fc[i], fc[j])

    return _first_failure(a, 2, [("product-morphism", product_morphism)])


def is_morphism(a: ColorHomAlgebra, b: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """Weak morphism that also intertwines the twisting maps: f.alpha_a = alpha_b.f."""
    v = is_weak_morphism(a, b, f)
    if not v:
        return v
    return _composites_agree(a, "twist-compatibility", (f, a.alpha), (b.alpha, f))


def is_derivation(a: ColorHomAlgebra, d: GradedLinearMap, degree=None) -> Verdict:
    """Colored Leibniz rule: d(x*y) = d(x)*y + eps(deg d, x) x*d(y)."""
    if d.basis != a.basis:
        raise StructureError("derivation candidate lives on a different basis")
    if degree is not None and degree != d.degree:
        raise StructureError("declared degree disagrees with the map's degree")
    rows, dc, units, degs = a.product_rows, d.sparse_columns, _units(a), a.degrees
    # eps(deg d, deg e_i), evaluated once per basis degree the scan reaches
    eps_d = cache(lambda degree: a.field.kernel_scalar(a.eps(d.degree, degree)))

    def leibniz(i, j):
        left = sparse_apply(d, rows[i][j])
        first = sparse_product(a, dc[i], units[j])
        second = sparse_scale(eps_d(degs[i]), sparse_product(a, units[i], dc[j]))
        return left, sparse_add(first, second)

    return _first_failure(a, 2, [("leibniz", leibniz)])


def _sided(a: ColorHomAlgebra, f: GradedLinearMap, side: str, role: str, left, right) -> Verdict:
    """An even operator that commutes with alpha and meets its left and/or right condition.

    left and right are (name, sides) conditions; with side="both" the left
    one runs first at each pair.
    """
    _require_even_endo(a, f, role)
    if side not in ("left", "right", "both"):
        raise StructureError(f"side must be left/right/both, got {side!r}")
    v = commutes_with_twist(a, f)
    if not v:
        return v
    conditions = [c for s, c in (("left", left), ("right", right)) if side in (s, "both")]
    return _first_failure(a, 2, conditions)


def is_averaging(a: ColorHomAlgebra, f: GradedLinearMap, side: str = "both") -> Verdict:
    """Averaging operator: commutes with alpha and absorbs itself.

    left side:  f(x)*f(y) = f(f(x)*y);  right side:  f(x)*f(y) = f(x*f(y)).
    """
    fc, units = f.sparse_columns, _units(a)

    def left(i, j):
        return sparse_product(a, fc[i], fc[j]), sparse_apply(f, sparse_product(a, fc[i], units[j]))

    def right(i, j):
        return sparse_product(a, fc[i], fc[j]), sparse_apply(f, sparse_product(a, units[i], fc[j]))

    return _sided(
        a, f, side, "averaging candidate", ("left-averaging", left), ("right-averaging", right)
    )


def is_centroid(a: ColorHomAlgebra, f: GradedLinearMap, side: str = "both") -> Verdict:
    """Centroid element: commutes with alpha and slides out of the product."""
    rows, fc, units = a.product_rows, f.sparse_columns, _units(a)

    def left(i, j):
        return sparse_apply(f, rows[i][j]), sparse_product(a, fc[i], units[j])

    def right(i, j):
        return sparse_apply(f, rows[i][j]), sparse_product(a, units[i], fc[j])

    return _sided(
        a, f, side, "centroid candidate", ("left-centroid", left), ("right-centroid", right)
    )


def is_rota_baxter(l: ColorHomAlgebra, r: GradedLinearMap, weight) -> Verdict:
    """Weight-lambda identity on l's own product, plus twist-commutation.

    [r(x), r(y)] = r([r(x), y] + [x, r(y)] + lambda [x, y]), where [,] is
    l's product.  Whether that product is Hom-Lie is a separate check.
    """
    _require_even_endo(l, r, "operator")
    lam = l.field.kernel_scalar(weight)
    v = commutes_with_twist(l, r)
    if not v:
        return v
    rows, rc, units = l.product_rows, r.sparse_columns, _units(l)

    def rota_baxter(i, j):
        inner = sparse_add(sparse_product(l, rc[i], units[j]), sparse_product(l, units[i], rc[j]))
        inner = sparse_add(inner, sparse_scale(lam, rows[i][j]))
        return sparse_product(l, rc[i], rc[j]), sparse_apply(r, inner)

    return _first_failure(l, 2, [("rota-baxter", rota_baxter)])


def in_alpha_center(l: ColorHomAlgebra, x) -> bool:
    """True when [x, alpha(y)] = 0 for every y (checked on basis images)."""
    if len(x) != l.dim:
        raise StructureError(f"vectors must have length {l.dim}")
    xs, ac = sparse_vector(l.field, x), l.alpha.sparse_columns
    return bool(_first_failure(l, 1, [("alpha-center", lambda j: (sparse_product(l, xs, ac[j]), {}))]))


def check_bracket_operator_conditions(l: ColorHomAlgebra, f: GradedLinearMap) -> Verdict:
    """The two conditions under which x*y = [f(x), y] is Hom-Novikov.

    defect-centrality: f([f(x),y] + [x,f(y)]) - [f(x),f(y)] lies in the
    alpha-center of l for all basis x, y; the witness, when one exists,
    names (x, y, z) with [defect, alpha(z)] != 0.
    operator-right-commutativity: [f([f(x),y]), alpha(z)] =
    eps(y,z) [f([f(x),z]), alpha(y)] on basis triples.
    """
    _require_even_endo(l, f, "operator")
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
    v = _first_failure(
        l, 3, [("defect-centrality", lambda i, j, k: (sparse_product(l, defect[i][j], ac[k]), {}))]
    )
    if not v:
        return v
    g = [[sparse_apply(f, c) for c in row] for row in fx_y]

    def operator_right_commutativity(i, j, k):
        left = sparse_product(l, g[i][j], ac[k])
        return left, sparse_scale(eps[j][k], sparse_product(l, g[i][k], ac[j]))

    return _first_failure(l, 3, [("operator-right-commutativity", operator_right_commutativity)])
