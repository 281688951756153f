"""Constructions that manufacture new algebras from verified ingredients.

Every construction validates its stated hypotheses before computing
(checked=False skips that validation for experiments; structural sanity and
product evenness are still enforced on the way out).  All but direct_sum
and tensor_product build a product declared as one term in checks._PRODUCTS
(beta(x*y), x*d(y), [f(x), y], the commutator, ...) with
checks._product_algebra, which checks each entry's evenness as it stores
it, so no construction can emit an ill-formed algebra.  The two that change
the basis build on the factors' cells: direct_sum states its cells
((i, j), e_i * e_j), row-major, for make_algebra to check, and
tensor_product stores its rows as they are, even by construction on the
basis that sums the factors' degree classes.
"""

from __future__ import annotations

from itertools import chain
from math import prod

from .checks import (
    _Images,
    _product_algebra,
    _require_dim,
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_lie,
    check_hom_novikov,
    check_involutive,
    check_multiplicative,
    commutes_with_twist,
    is_averaging,
    is_centroid,
    is_derivation,
    is_weak_morphism,
)
from .core import (
    ColorHomAlgebra,
    GradedLinearMap,
    _EMPTY,
    _Columns,
    _algebra_from_cells,
    _algebra_of_rows,
    _basis_of_classes,
    _cells,
    _require_even_endo,
    compose_maps,
    homogeneous_components,
    identity_map,
    invert_map,
    map_power,
    sparse_product,
    sparse_vector,
)
from .errors import HypothesisError, SingularMapError, StructureError
from .grading import _eps_rows

__all__ = [
    "yau_twist",
    "power_twist",
    "centroid_twist",
    "xi_square_twist",
    "commutator_algebra",
    "derivation_product",
    "composed_derivation_product",
    "averaging_product",
    "bracket_operator_product",
    "direct_sum",
    "tensor_product",
    "untwist_involutive",
    "regular_lie_untwist",
]


# The largest tensor product built: a CLI construct of a product-free dim-2048
# output took 2.1 s and 131 MB on 2 cores, one of dim 2048 with 249,600 nonzero
# constants 3.5 s and 246 MB, inside the 30 s and 300 MB of a dim-600 check.
TENSOR_MAX_DIM = 2048
TENSOR_MAX_CONSTANTS = 1 << 18


def _require(op: str, requirement: str, verdict):
    if not verdict:
        raise HypothesisError(op, requirement, verdict)


def _require_shared_grading(a: ColorHomAlgebra, b: ColorHomAlgebra, what: str):
    if a.field != b.field:
        raise StructureError(f"{what} needs a shared scalar field")
    if a.group != b.group:
        raise StructureError(f"{what} needs a shared grading group")
    if a.bicharacter != b.bicharacter:
        raise StructureError(f"{what} needs a shared bicharacter")


def yau_twist(a: ColorHomAlgebra, beta: GradedLinearMap, *, checked: bool = True) -> ColorHomAlgebra:
    """Twist along a weak self-morphism: product beta(x*y), map beta.alpha.

    For Hom-Novikov input the twist is Hom-Novikov again; the hypothesis
    check enforces exactly that input class.
    """
    if checked:
        _require("yau_twist", "weak-morphism", is_weak_morphism(a, a, beta))
        _require("yau_twist", "hom-novikov", check_hom_novikov(a))
    _require_dim(a, beta)  # before compose_maps names the other basis
    return _product_algebra("mapped", a, beta, compose_maps(beta, a.alpha))


def power_twist(a: ColorHomAlgebra, n: int, *, checked: bool = True) -> ColorHomAlgebra:
    """n-th self-twist of a multiplicative algebra: alpha^n(x*y), map alpha^(n+1)."""
    if not isinstance(n, int) or n < 0:
        raise StructureError(f"power_twist wants n >= 0, got {n!r}")
    if checked:
        _require("power_twist", "multiplicative", check_multiplicative(a))
        _require("power_twist", "hom-novikov", check_hom_novikov(a))
    return _product_algebra("mapped", a, map_power(a.alpha, n), map_power(a.alpha, n + 1))


def centroid_twist(a: ColorHomAlgebra, beta: GradedLinearMap, *, checked: bool = True) -> ColorHomAlgebra:
    """Product beta(x*y) for a two-sided centroid element; twisting map kept."""
    if checked:
        _require("centroid_twist", "centroid", is_centroid(a, beta, "both"))
        _require("centroid_twist", "hom-novikov", check_hom_novikov(a))
    return _product_algebra("mapped", a, beta)


def xi_square_twist(a: ColorHomAlgebra, xi, *, checked: bool = True) -> ColorHomAlgebra:
    """x ∘ y = xi * (x * y) with twisting map alpha^2.

    Hypotheses: a is eps-commutative Hom-associative and xi is homogeneous
    of degree 0.
    """
    if len(xi) != a.dim:
        raise StructureError(f"xi must have length {a.dim}")
    xi = tuple(a.field.coerce(v) for v in xi)
    if checked:
        parts = homogeneous_components(a.basis, xi)
        if any(not d.is_zero for d, _ in parts):
            raise HypothesisError(
                "xi_square_twist", "xi-degree-zero",
                detail="xi has a component of nonzero degree",
            )
        _require(
            "xi_square_twist", "epsilon-commutative", check_epsilon_commutative(a)
        )
        _require("xi_square_twist", "hom-associative", check_hom_associative(a))
    # left multiplication by xi, whatever its degrees
    xs = sparse_vector(a.field, xi)
    times_xi = tuple(sparse_product(a, xs, {t: 1}) for t in range(a.dim))
    return _product_algebra("mapped", a, _Images(times_xi, None, None), map_power(a.alpha, 2))


def commutator_algebra(a: ColorHomAlgebra) -> ColorHomAlgebra:
    """Bracket algebra [x,y] = x*y - eps(x,y) y*x with the same twisting map.

    Total: no hypotheses.  The bracket of a Hom-Novikov algebra is Hom-Lie;
    that conclusion is a check on the output, not a precondition here.
    """
    return _product_algebra("bracket", a)


def derivation_product(a: ColorHomAlgebra, d: GradedLinearMap, *, checked: bool = True) -> ColorHomAlgebra:
    """x ∘ y = x * d(y) on an eps-commutative Hom-associative algebra.

    d must be an even derivation commuting with alpha; the output is
    Hom-Novikov with the same twisting map.
    """
    op = "derivation_product"
    if checked:
        _require(op, "epsilon-commutative", check_epsilon_commutative(a))
        _require(op, "hom-associative", check_hom_associative(a))
        if not d.is_even:
            raise HypothesisError(op, "even-derivation", detail="derivation has nonzero degree")
        _require(op, "derivation", is_derivation(a, d))
        _require(op, "twist-commutation", commutes_with_twist(a, d))
    return _product_algebra("times-image", a, d)


def composed_derivation_product(a: ColorHomAlgebra, d: GradedLinearMap, *, checked: bool = True) -> ColorHomAlgebra:
    """x ∘ y = m(x * d(y)) where m is carried in a's twisting-map slot.

    Hypotheses: the product of a (with the twisting map replaced by the
    identity) is eps-commutative and associative, m is a weak self-morphism
    of it, and d is an even derivation commuting with m.  The output is the
    Yau twist of the derivation product along m, so it is Hom-Novikov with
    twisting map m.
    """
    op = "composed_derivation_product"
    m = a.alpha
    plain = _algebra_from_cells(a.basis, a.bicharacter, _cells(a), identity_map(a.basis))
    if checked:
        _require(op, "epsilon-commutative", check_epsilon_commutative(plain))
        _require(op, "associative", check_hom_associative(plain))
        _require(op, "weak-morphism", is_weak_morphism(plain, plain, m))
        if not d.is_even:
            raise HypothesisError(op, "even-derivation", detail="derivation has nonzero degree")
        _require(op, "derivation", is_derivation(plain, d))
        if compose_maps(d, m) != compose_maps(m, d):
            raise HypothesisError(
                op, "twist-commutation", detail="derivation does not commute with the morphism"
            )
    return _product_algebra("twisted-times-image", a, d)


def averaging_product(a: ColorHomAlgebra, f: GradedLinearMap, *, checked: bool = True) -> ColorHomAlgebra:
    """x ∘ y = x * f(y) for a two-sided averaging operator f.

    Hypotheses: a is eps-commutative Hom-Novikov; output keeps alpha.
    """
    if checked:
        _require(
            "averaging_product", "epsilon-commutative", check_epsilon_commutative(a)
        )
        _require("averaging_product", "hom-novikov", check_hom_novikov(a))
        _require("averaging_product", "averaging", is_averaging(a, f, "both"))
    return _product_algebra("times-image", a, f)


def bracket_operator_product(l: ColorHomAlgebra, f: GradedLinearMap, *, checked: bool = True) -> ColorHomAlgebra:
    """x ∘ y = [f(x), y] on a Hom-Lie algebra, f even and alpha-commuting.

    The Hom-Novikov conclusion needs the two bracket-operator conditions;
    they are checks on f run by callers or test suites, not silently assumed
    here, so checked mode validates only Hom-Lie-ness and commutation.
    """
    _require_even_endo(l.basis, f, "operator")
    if checked:
        _require("bracket_operator_product", "hom-lie", check_hom_lie(l))
        _require(
            "bracket_operator_product", "twist-commutation", commutes_with_twist(l, f)
        )
    return _product_algebra("image-times", l, f)


def direct_sum(a: ColorHomAlgebra, b: ColorHomAlgebra) -> ColorHomAlgebra:
    """Block-diagonal sum; requires identical field, group, and bicharacter.

    mixed products vanish, alpha acts blockwise; Hom-Novikov when both
    summands are (a conclusion, checked by callers).
    """
    _require_shared_grading(a, b, "direct sum")
    na = a.dim
    # b's classes continue a's: its degrees already in a keep a's class
    (distinct, a_classes), (b_distinct, b_classes) = a.basis.degree_classes, b.basis.degree_classes
    position = {d: c for c, d in enumerate(distinct)}
    b_class = [position.setdefault(d, len(position)) for d in b_distinct]
    basis = _basis_of_classes(a.field, a.group, tuple(position), a_classes + tuple(map(b_class.__getitem__, b_classes)))
    # mixed products vanish: a's cells, then b's shifted past them
    shifted_cells = (((na + i, na + j), {na + k: c for k, c in cell.items()}) for (i, j), cell in _cells(b))
    shifted = tuple({na + k: c for k, c in column.items()} for column in b.alpha.sparse_columns)
    alpha = GradedLinearMap(basis, _Columns(a.alpha.sparse_columns + shifted))
    return _algebra_from_cells(basis, a.bicharacter, chain(_cells(a), shifted_cells), alpha)


def tensor_product(s: ColorHomAlgebra, a: ColorHomAlgebra, *, checked: bool = True) -> ColorHomAlgebra:
    """(x ⊗ u) ∘ (y ⊗ v) = eps(u, y) (x*y) ⊗ (u*v).

    First factor s: Hom-Novikov; second factor a: eps-commutative
    Hom-associative, over the same field, group, and bicharacter.  Basis
    pairs are ordered row-major: index (i, p) -> i * dim(a) + p.  An output
    past TENSOR_MAX_DIM basis vectors or TENSOR_MAX_CONSTANTS nonzero
    structure constants raises StructureError before the gates run.
    """
    _require_shared_grading(s, a, "tensor product")
    ns, na = s.dim, a.dim
    # each nonzero constant of s times each of a is one of the output
    constants = prod(sum(len(cell) for _, cell in _cells(x)) for x in (s, a))
    if ns * na > TENSOR_MAX_DIM or constants > TENSOR_MAX_CONSTANTS:
        raise StructureError(
            f"tensor product too large: dimension {ns * na} (at most {TENSOR_MAX_DIM}), "
            f"{constants} nonzero structure constants (at most {TENSOR_MAX_CONSTANTS})"
        )
    if checked:
        _require("tensor_product", "hom-novikov(first factor)", check_hom_novikov(s))
        _require("tensor_product", "epsilon-commutative(second factor)", check_epsilon_commutative(a))
        _require("tensor_product", "hom-associative(second factor)", check_hom_associative(a))
    # one degree sum per pair of classes; index (i, p) first reaches the pair (class of i, class of p)
    # in lexicographic order of the pairs, so setdefault numbers the output's classes by first occurrence
    (s_distinct, s_classes), (a_distinct, a_classes) = s.basis.degree_classes, a.basis.degree_classes
    position: dict = {}
    pair_class = [[position.setdefault(x + y, len(position)) for y in a_distinct] for x in s_distinct]
    classes = tuple(pair_class[c][q] for c in s_classes for q in a_classes)
    basis = _basis_of_classes(s.field, s.group, tuple(position), classes)
    # signs[p][j] = eps(deg e_p, deg e_j), one value per pair of classes
    a_coords, s_coords = [d.coords for d in a_distinct], [d.coords for d in s_distinct]
    sign_rows = [tuple(map(row.__getitem__, s_classes)) for row in _eps_rows(s.bicharacter, a_coords, s_coords)]
    signs = [sign_rows[q] for q in a_classes]
    # each factor's nonempty cells (j, e_i * e_j) by row i
    rs, ra = ([[(j, cell) for j, cell in enumerate(row) if cell] for row in x.product_rows] for x in (s, a))
    # row (i, p) holds cell (j, q) for each nonempty (j, q), key k * na + r for each term of each factor's
    # cell: ascending as generated, nonzero (eps and both factors' values are), and even, since the
    # factors' products are even and the basis sums their classes
    kernel_scalar, n = s.field.kernel_scalar, ns * na
    empty_row = (_EMPTY,) * n
    rows = [empty_row] * n
    for i in range(ns):
        for p in range(na):
            if rs[i] and ra[p]:
                row, sign = [_EMPTY] * n, signs[p]
                for j, s_cell in rs[i]:
                    for q, a_cell in ra[p]:
                        row[j * na + q] = {
                            k * na + r: kernel_scalar(sign[j] * sk * ar)
                            for k, sk in s_cell.items() for r, ar in a_cell.items()
                        }
                rows[i * na + p] = tuple(row)
    # alpha(e_i ⊗ e_p) = alpha(e_i) ⊗ alpha(e_p): the Kronecker product of the columns
    alpha = GradedLinearMap(basis, _Columns(tuple(
        {k * na + r: sk * ar for k, sk in sc.items() for r, ar in ac.items()}
        for sc in s.alpha.sparse_columns for ac in a.alpha.sparse_columns
    )))
    return _algebra_of_rows(basis, s.bicharacter, tuple(rows), alpha)


def untwist_involutive(a: ColorHomAlgebra, *, checked: bool = True) -> ColorHomAlgebra:
    """Recover an untwisted algebra from an involutive multiplicative one.

    Product alpha(x*y), twisting map identity.  For involutive
    multiplicative Hom-Novikov input the output is Novikov with identity
    map (plain right-commutative left-symmetric).
    """
    if checked:
        _require("untwist_involutive", "involutive", check_involutive(a))
        _require("untwist_involutive", "multiplicative", check_multiplicative(a))
        _require("untwist_involutive", "hom-novikov", check_hom_novikov(a))
    return _product_algebra("mapped", a, a.alpha, identity_map(a.basis))


def regular_lie_untwist(a: ColorHomAlgebra, *, checked: bool = True) -> ColorHomAlgebra:
    """Untwisted bracket alpha^{-1}([x, y]) from a regular Hom-Novikov algebra.

    Requires alpha invertible; output carries the identity twisting map.
    """
    if checked:
        _require("regular_lie_untwist", "hom-novikov", check_hom_novikov(a))
    try:
        inv = invert_map(a.alpha)
    except SingularMapError:
        raise HypothesisError(
            "regular_lie_untwist", "invertible-twist",
            detail="alpha is singular",
        ) from None
    return _product_algebra("mapped-bracket", a, inv, identity_map(a.basis))
