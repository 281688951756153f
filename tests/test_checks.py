"""Identity checkers, operator predicates, and their witness reporting.

Expected witnesses were computed by hand from the structure constants and
frozen here; a changed scan order or sign convention must fail these.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorhom.catalog import (
    build_entry,
    dt_derivation,
    euler_derivation,
    scaling_morphism,
    truncated_polynomial,
    unit_projection,
)
from colorhom.checks import (
    IDENTITIES_BY_CHECK,
    IDENTITY_ARITY,
    Witness,
    check_bracket_operator_conditions,
    check_epsilon_commutative,
    check_hom_lie,
    check_hom_novikov,
    check_involutive,
    check_multiplicative,
    check_regular,
    check_right_commutative,
    commutes_with_twist,
    in_alpha_center,
    is_averaging,
    is_centroid,
    is_derivation,
    is_morphism,
    is_rota_baxter,
    is_weak_morphism,
)
from colorhom.constructions import derivation_product
from colorhom.core import (
    identity_map,
    make_algebra,
    make_map,
    scalar_map,
    trivial_basis,
)
from colorhom.errors import StructureError
from colorhom.grading import trivial_bicharacter
from colorhom.linalg import identity_residual_on_vectors, identity_sides
from colorhom.scalars import prime_field, rationals
from colorhom.search import linear_conditions


Q = rationals()


def vec_is_zero(x) -> bool:
    return all(a == 0 for a in x)


def frac(*vals):
    return tuple(Fraction(v) for v in vals)


def test_scaling_map_is_not_a_derivation():
    a = truncated_polynomial(3)
    v = is_derivation(a, scaling_morphism(a, 2))
    assert not v
    assert v.witness == Witness("leibniz", (0, 0), frac(1, 0, 0), frac(2, 0, 0))


def test_formal_differentiation_leaks_at_the_truncation_boundary():
    # d(e1 * e2) should be d of the killed e3, but the Leibniz side survives
    a = truncated_polynomial(3)
    v = is_derivation(a, dt_derivation(a))
    assert v.witness == Witness("leibniz", (1, 2), frac(0, 0, 0), frac(0, 0, 3))


def test_euler_map_is_a_derivation_everywhere():
    for field in (Q, prime_field(5)):
        for n in (2, 3, 4, 5):
            a = truncated_polynomial(n, field)
            assert is_derivation(a, euler_derivation(a))


def test_unchecked_differentiation_product_fails_left_symmetry():
    a = truncated_polynomial(3)
    bad = derivation_product(a, dt_derivation(a), checked=False)
    assert check_right_commutative(bad)
    v = check_hom_novikov(bad)
    assert v.witness == Witness(
        "left-symmetry", (0, 2, 2), frac(0, 0, 4), frac(0, 0, -2)
    )


def test_euler_product_is_not_commutative():
    a = build_entry("euler_novikov", Q, n=3).algebra
    v = check_epsilon_commutative(a)
    assert v.witness == Witness(
        "epsilon-commutativity", (0, 1), frac(0, 1, 0), frac(0, 0, 0)
    )


def test_weak_morphism_that_is_not_a_morphism():
    basis = trivial_basis(Q, 2)
    bc = trivial_bicharacter(Q, basis.group)
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    collapse = make_map(basis, ((1, 1), (0, 0)))  # e0 -> e0, e1 -> e0
    a = make_algebra(basis, bc, zero, collapse)
    f = make_map(basis, ((1, 0), (0, 0)))
    assert is_weak_morphism(a, a, f)  # all products vanish
    v = is_morphism(a, a, f)
    assert v.witness == Witness("twist-compatibility", (1,), frac(1, 0), frac(0, 0))


def test_antisymmetric_but_not_jacobi():
    basis = trivial_basis(Q, 3)
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = Fraction(1)
    c[1][2][0] = Fraction(1)
    c[2][0][0] = Fraction(1)
    anti = [
        [[c[i][j][k] - c[j][i][k] for k in range(3)] for j in range(3)]
        for i in range(3)
    ]
    a = make_algebra(basis, trivial_bicharacter(Q, basis.group), anti, identity_map(basis))
    v = check_hom_lie(a)
    assert v.witness == Witness("hom-jacobi", (0, 1, 2), frac(0, 0, -1), frac(0, 0, 0))


def test_identity_map_is_not_weight_zero_rota_baxter_on_solvable():
    sol = build_entry("solvable_bracket", Q).algebra
    v = is_rota_baxter(sol, identity_map(sol.basis), 0)
    assert v.witness == Witness("rota-baxter", (0, 1), frac(0, 1), frac(0, 2))


def test_identity_map_is_weight_minus_one_rota_baxter():
    # [x,y] = id([x,y] + [x,y] - [x,y]) holds for any product
    sol = build_entry("solvable_bracket", Q).algebra
    assert is_rota_baxter(sol, identity_map(sol.basis), -1)


def test_unit_projection_averages_but_is_not_centroid():
    a = truncated_polynomial(3)
    p = unit_projection(a)
    assert is_averaging(a, p, side="both")
    assert is_averaging(a, p, side="left")
    assert is_averaging(a, p, side="right")
    v = is_centroid(a, p)
    assert v.witness == Witness("left-centroid", (0, 1), frac(0, 0, 0), frac(0, 1, 0))
    with pytest.raises(StructureError):
        is_averaging(a, p, side="middle")


def test_scalar_maps_are_centroid():
    a = truncated_polynomial(3)
    assert is_centroid(a, scalar_map(a.basis, Fraction(5, 3)))
    assert is_centroid(a, scalar_map(a.basis, 0))


def test_involution_check_compares_columns():
    a = build_entry("scaled_polynomial", Q, n=3, c=2).algebra
    v = check_involutive(a)
    assert v.witness == Witness("involution", (1,), frac(0, 4, 0), frac(0, 1, 0))
    assert check_involutive(truncated_polynomial(3))


def test_multiplicativity_failure_for_shift_twist():
    a = truncated_polynomial(3)
    shift = make_map(a.basis, ((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    shifted = make_algebra(a.basis, a.bicharacter, a.structure, shift)
    v = check_multiplicative(shifted)
    assert v.witness == Witness("product-morphism", (0, 1), frac(1, 0, 0), frac(0, 0, 0))
    assert not commutes_with_twist(shifted, scaling_morphism(a, 2))


def test_regular_requires_invertibility():
    a = truncated_polynomial(3)
    projected = make_algebra(a.basis, a.bicharacter, a.structure, unit_projection(a))
    assert check_multiplicative(projected)
    v = check_regular(projected)
    assert v.witness == Witness("invertibility", (), None, None)


def test_bracket_operator_conditions_hold_for_shipped_pair():
    entry = build_entry("solvable_bracket", Q)
    assert check_bracket_operator_conditions(entry.algebra, entry.maps["rb_proj"])


def test_alpha_center_membership():
    sol = build_entry("solvable_bracket", Q).algebra
    assert in_alpha_center(sol, (Q.zero, Q.zero))
    assert not in_alpha_center(sol, (Q.zero, Q.one))
    assert not in_alpha_center(sol, (Q.one, Q.zero))


def test_operator_predicates_reject_foreign_or_odd_maps():
    a = truncated_polynomial(3)
    other = identity_map(trivial_basis(Q, 2))
    with pytest.raises(StructureError):
        is_derivation(a, other)
    with pytest.raises(StructureError):
        is_averaging(a, other)
    super_entry = build_entry("super_commutative_line", Q)
    s = super_entry.algebra
    with pytest.raises(StructureError):
        is_weak_morphism(a, s, identity_map(a.basis))


def test_identity_sides_validates_name_and_arity():
    a = truncated_polynomial(2)
    u = (Q.one, Q.zero)
    d = a.degrees[0]
    with pytest.raises(StructureError):
        identity_sides(a, "associativity", (d, d), (u, u))
    with pytest.raises(StructureError):
        identity_sides(a, "hom-associativity", (d, d), (u, u))
    left, right = identity_sides(a, "epsilon-commutativity", (d, d), (u, u))
    assert left == right


def test_linear_conditions_rejects_an_unknown_predicate():
    with pytest.raises(StructureError, match="unknown predicate 'nope'"):
        linear_conditions("nope")
    assert linear_conditions("derivation") == ("leibniz",)


def test_arity_table_matches_check_groupings():
    assert IDENTITY_ARITY["epsilon-commutativity"] == 2
    assert IDENTITY_ARITY["hom-jacobi"] == 3
    for names in IDENTITIES_BY_CHECK.values():
        assert all(name in IDENTITY_ARITY for name in names)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
)
def test_residual_vanishes_on_satisfied_identities(xs, ys, zs):
    a = build_entry("euler_novikov", Q, n=3).algebra
    vecs = tuple(tuple(Fraction(v) for v in w) for w in (xs, ys, zs))
    for name in ("right-commutativity", "left-symmetry"):
        assert vec_is_zero(identity_residual_on_vectors(a, name, vecs))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
)
def test_residual_vanishes_on_graded_commutative_line(xs, ys):
    a = build_entry("super_commutative_line", Q).algebra
    vecs = tuple(tuple(Fraction(v) for v in w) for w in (xs, ys))
    assert vec_is_zero(identity_residual_on_vectors(a, "epsilon-commutativity", vecs))


def test_residual_detects_violations():
    a = build_entry("euler_novikov", Q, n=3).algebra
    e0 = (Q.one, Q.zero, Q.zero)
    e1 = (Q.zero, Q.one, Q.zero)
    res = identity_residual_on_vectors(a, "epsilon-commutativity", (e0, e1))
    assert res == frac(0, 1, 0)
    with pytest.raises(StructureError):
        identity_residual_on_vectors(a, "no-such-identity", (e0, e1))
    with pytest.raises(StructureError):
        identity_residual_on_vectors(a, "epsilon-commutativity", (e0,))
