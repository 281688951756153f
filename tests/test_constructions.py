"""Construction outputs frozen entry-by-entry, plus hypothesis enforcement.

Tensors are asserted as sorted (i, j, k, value) lists of the nonzero entries,
computed once by hand from the structure constants.
"""

from fractions import Fraction

import pytest

from colorhom.catalog import (
    build_entry,
    dt_derivation,
    euler_derivation,
    scaling_morphism,
    truncated_polynomial,
    unit_projection,
)
from colorhom.checks import (
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_lie,
    check_hom_novikov,
    check_left_symmetric,
)
from colorhom.constructions import (
    averaging_product,
    bracket_operator_product,
    centroid_twist,
    commutator_algebra,
    composed_derivation_product,
    derivation_product,
    direct_sum,
    power_twist,
    regular_lie_untwist,
    tensor_product,
    untwist_involutive,
    xi_square_twist,
    yau_twist,
)
from colorhom.core import (
    identity_map,
    make_algebra,
    make_map,
    scalar_map,
    trivial_basis,
)
from colorhom.errors import HypothesisError, StructureError
from colorhom.grading import GroupElement, trivial_bicharacter
from colorhom.scalars import rationals


Q = rationals()


def entries(a):
    n = a.dim
    return sorted(
        (i, j, k, a.structure[i][j][k])
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if a.structure[i][j][k] != 0
    )


def is_identity(m):
    return m.matrix == identity_map(m.basis).matrix


def euler_novikov(n):
    return build_entry("euler_novikov", Q, n=n).algebra


def test_yau_twist_along_identity_changes_nothing():
    a = euler_novikov(3)
    t = yau_twist(a, identity_map(a.basis))
    assert t.structure == a.structure
    assert t.alpha.matrix == a.alpha.matrix


def test_yau_twist_scales_each_output_degree():
    a = euler_novikov(3)
    t = yau_twist(a, scaling_morphism(truncated_polynomial(3), 2))
    assert entries(t) == [
        (0, 1, 1, Fraction(2)),
        (0, 2, 2, Fraction(8)),
        (1, 1, 2, Fraction(4)),
    ]
    assert t.alpha.matrix == scaling_morphism(truncated_polynomial(3), 2).matrix
    assert check_hom_novikov(t)


def test_yau_twist_hypothesis_failures_carry_witnesses():
    a = euler_novikov(3)
    collapse = make_map(a.basis, ((1, 1, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(HypothesisError) as info:
        yau_twist(a, collapse)
    assert info.value.requirement == "weak-morphism"
    assert info.value.verdict.witness.indices == (0, 1)

    sol = build_entry("solvable_bracket", Q).algebra
    with pytest.raises(HypothesisError) as info:
        yau_twist(sol, identity_map(sol.basis))
    assert info.value.requirement == "hom-novikov"
    assert info.value.verdict.witness.identity == "right-commutativity"
    # unchecked mode computes anyway
    t = yau_twist(sol, identity_map(sol.basis), checked=False)
    assert t.structure == sol.structure


def test_power_twist_frozen_tensor():
    sp = build_entry("scaled_polynomial", Q, n=3, c=2).algebra
    t = power_twist(sp, 2)
    assert entries(t) == [
        (0, 0, 0, Fraction(1)),
        (0, 1, 1, Fraction(8)),
        (0, 2, 2, Fraction(64)),
        (1, 0, 1, Fraction(8)),
        (1, 1, 2, Fraction(64)),
        (2, 0, 2, Fraction(64)),
    ]
    assert [t.alpha.matrix[i][i] for i in range(3)] == [1, 8, 64]
    assert check_hom_novikov(t)
    zeroth = power_twist(sp, 0)
    assert zeroth.structure == sp.structure
    assert zeroth.alpha.matrix == sp.alpha.matrix
    with pytest.raises(StructureError):
        power_twist(sp, -1)


def test_power_twist_requires_multiplicative_twist():
    a = truncated_polynomial(3)
    shift = make_map(a.basis, ((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    shifted = make_algebra(a.basis, a.bicharacter, a.structure, shift)
    with pytest.raises(HypothesisError) as info:
        power_twist(shifted, 1)
    assert info.value.requirement == "multiplicative"


def test_centroid_twist_by_a_scalar():
    a = truncated_polynomial(3)
    t = centroid_twist(a, scalar_map(a.basis, Fraction(1, 2)))
    assert all(v == Fraction(1, 2) for (_, _, _, v) in entries(t))
    assert len(entries(t)) == 6
    assert check_hom_novikov(t)
    with pytest.raises(HypothesisError) as info:
        centroid_twist(a, unit_projection(a))
    assert info.value.requirement == "centroid"
    assert info.value.verdict.witness.identity == "left-centroid"


def test_xi_square_twist_shifts_the_product():
    a = truncated_polynomial(3)
    t = xi_square_twist(a, (0, 1, 0))
    assert entries(t) == [
        (0, 0, 1, Fraction(1)),
        (0, 1, 2, Fraction(1)),
        (1, 0, 2, Fraction(1)),
    ]
    assert is_identity(t.alpha)  # id squared
    assert check_hom_associative(t)
    with pytest.raises(StructureError):
        xi_square_twist(a, (0, 1))


def test_xi_square_twist_rejects_odd_xi():
    sl = build_entry("super_commutative_line", Q).algebra
    with pytest.raises(HypothesisError) as info:
        xi_square_twist(sl, (0, 1))
    assert info.value.requirement == "xi-degree-zero"
    t = xi_square_twist(sl, (1, 0))  # even xi is fine
    assert check_hom_associative(t)


def test_commutator_algebra_is_total():
    # no hypothesis gate: even a non-Novikov input produces its bracket
    sol = build_entry("solvable_bracket", Q).algebra
    b = commutator_algebra(sol)
    assert entries(b) == [
        (0, 1, 1, Fraction(2)),
        (1, 0, 1, Fraction(-2)),
    ]
    e3 = euler_novikov(3)
    assert check_hom_lie(commutator_algebra(e3))


def test_derivation_product_frozen_tensor():
    a = truncated_polynomial(3)
    p = derivation_product(a, euler_derivation(a))
    assert entries(p) == [
        (0, 1, 1, Fraction(1)),
        (0, 2, 2, Fraction(2)),
        (1, 1, 2, Fraction(1)),
    ]
    assert is_identity(p.alpha)
    assert check_hom_novikov(p)


def test_derivation_product_hypothesis_failures():
    a = truncated_polynomial(3)
    with pytest.raises(HypothesisError) as info:
        derivation_product(a, dt_derivation(a))
    assert info.value.requirement == "derivation"
    assert info.value.verdict.witness.indices == (1, 2)

    e3 = euler_novikov(3)
    with pytest.raises(HypothesisError) as info:
        derivation_product(e3, euler_derivation(e3))
    assert info.value.requirement == "epsilon-commutative"

    sl = build_entry("super_commutative_line", Q).algebra
    odd = GroupElement(sl.group, (1,))
    odd_map = make_map(sl.basis, ((0, 0), (1, 0)), degree=odd)
    with pytest.raises(HypothesisError) as info:
        derivation_product(sl, odd_map)
    assert info.value.requirement == "even-derivation"


def test_composed_product_equals_twist_after_derivation_product():
    plain = truncated_polynomial(3)
    m = scaling_morphism(plain, 2)
    carrier = make_algebra(plain.basis, plain.bicharacter, plain.structure, m)
    one_step = composed_derivation_product(carrier, euler_derivation(plain))
    two_step = yau_twist(derivation_product(plain, euler_derivation(plain)), m)
    assert one_step.structure == two_step.structure
    assert one_step.alpha.matrix == two_step.alpha.matrix
    assert check_hom_novikov(one_step)


def test_composed_product_checks_the_underlying_plain_algebra():
    # scaled_polynomial's own product is not associative with the identity
    # map, so using it as the carrier must fail the plain-algebra hypotheses
    sp = build_entry("scaled_polynomial", Q, n=3, c=2).algebra
    with pytest.raises(HypothesisError) as info:
        composed_derivation_product(sp, euler_derivation(sp))
    assert info.value.requirement in ("epsilon-commutative", "associative")


def test_averaging_product_frozen_tensor():
    a = truncated_polynomial(3)
    p = averaging_product(a, unit_projection(a))
    assert entries(p) == [
        (0, 0, 0, Fraction(1)),
        (1, 0, 1, Fraction(1)),
        (2, 0, 2, Fraction(1)),
    ]
    assert check_hom_novikov(p)
    with pytest.raises(HypothesisError) as info:
        averaging_product(euler_novikov(3), unit_projection(a))
    assert info.value.requirement == "epsilon-commutative"


def test_bracket_operator_product_frozen_tensor():
    entry = build_entry("solvable_bracket", Q)
    p = bracket_operator_product(entry.algebra, entry.maps["rb_proj"])
    assert entries(p) == [(0, 1, 1, Fraction(1))]
    assert check_hom_novikov(p)
    assert check_left_symmetric(p)
    with pytest.raises(HypothesisError) as info:
        bracket_operator_product(truncated_polynomial(2), identity_map(trivial_basis(Q, 2)))
    assert info.value.requirement == "hom-lie"


def test_direct_sum_blocks_and_mismatches():
    e2 = euler_novikov(2)
    sol = build_entry("solvable_bracket", Q).algebra
    s = direct_sum(e2, sol)
    assert s.dim == 4
    assert entries(s) == [
        (0, 1, 1, Fraction(1)),
        (2, 3, 3, Fraction(1)),
        (3, 2, 3, Fraction(-1)),
    ]
    assert is_identity(s.alpha)

    from colorhom.scalars import prime_field

    with pytest.raises(StructureError):
        direct_sum(e2, truncated_polynomial(2, prime_field(5)))
    sl = build_entry("super_commutative_line", Q).algebra
    with pytest.raises(StructureError):
        direct_sum(e2, sl)


def test_direct_sum_of_novikov_summands_is_novikov():
    e3 = euler_novikov(3)
    assert check_hom_novikov(direct_sum(e3, e3))


def test_tensor_product_frozen_tensor_with_sign():
    sl = build_entry("super_commutative_line", Q).algebra
    t = tensor_product(sl, sl)
    assert t.dim == 4
    assert [d.coords for d in t.degrees] == [(0,), (1,), (1,), (0,)]
    one = Fraction(1)
    assert entries(t) == [
        (0, 0, 0, one),
        (0, 1, 1, one),
        (0, 2, 2, one),
        (0, 3, 3, one),
        (1, 0, 1, one),
        (1, 2, 3, -one),  # odd past odd picks up the sign
        (2, 0, 2, one),
        (2, 1, 3, one),
        (3, 0, 3, one),
    ]
    assert check_hom_novikov(t)


def test_tensor_product_hypothesis_failures():
    e2 = euler_novikov(2)
    with pytest.raises(HypothesisError) as info:
        tensor_product(e2, euler_novikov(3))
    assert info.value.requirement == "epsilon-commutative(second factor)"
    sol = build_entry("solvable_bracket", Q).algebra
    with pytest.raises(HypothesisError) as info:
        tensor_product(sol, truncated_polynomial(2))
    assert info.value.requirement == "hom-novikov(first factor)"
    sl = build_entry("super_commutative_line", Q).algebra
    with pytest.raises(StructureError):
        tensor_product(e2, sl)  # different grading groups


def test_tensor_product_past_its_dimension_bound_fails_before_its_gates():
    # euler_novikov(64) is no eps-commutative second factor, but the 4096-dim output is refused first
    with pytest.raises(StructureError, match=r"tensor product too large: dimension 4096 \(at most 2048\)"):
        tensor_product(truncated_polynomial(64), euler_novikov(64))


def test_tensor_product_past_its_constant_bound_fails_before_its_gates():
    # dimension 1024 is inside its bound; 2016 * 136 = 274,176 nonzero constants are not
    with pytest.raises(StructureError, match=r"274176 nonzero structure constants \(at most 262144\)"):
        tensor_product(truncated_polynomial(16), euler_novikov(64))


def test_tensor_product_inside_its_bounds_is_built():
    # 496 * 528 = 261,888 nonzero constants, just under the bound
    t = tensor_product(euler_novikov(32), truncated_polynomial(32), checked=False)
    assert t.dim == 1024
    assert sum(len(cell) for row in t.product_rows for cell in row) == 261888


def test_untwist_involutive_recovers_plain_product():
    iq = build_entry("involutive_quadratic_polynomial", Q, n=3).algebra
    u = untwist_involutive(iq)
    assert u.structure == truncated_polynomial(3).structure
    assert is_identity(u.alpha)
    assert check_epsilon_commutative(u)
    assert check_hom_novikov(u)

    sp = build_entry("scaled_polynomial", Q, n=3, c=2).algebra
    with pytest.raises(HypothesisError) as info:
        untwist_involutive(sp)
    assert info.value.requirement == "involutive"


def test_regular_lie_untwist_frozen_brackets():
    sp = build_entry("scaled_polynomial", Q, n=3, c=2).algebra
    u = regular_lie_untwist(sp)
    assert entries(u) == []  # commutative product, zero bracket
    assert is_identity(u.alpha)

    tw = yau_twist(euler_novikov(3), scaling_morphism(truncated_polynomial(3), 2))
    u = regular_lie_untwist(tw)
    assert entries(u) == [
        (0, 1, 1, Fraction(1)),
        (0, 2, 2, Fraction(2)),
        (1, 0, 1, Fraction(-1)),
        (2, 0, 2, Fraction(-2)),
    ]
    assert is_identity(u.alpha)
    assert check_hom_lie(u)


def test_regular_lie_untwist_rejects_singular_twist():
    basis = trivial_basis(Q, 2)
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    singular = make_map(basis, ((1, 0), (0, 0)))
    a = make_algebra(basis, trivial_bicharacter(Q, basis.group), zero, singular)
    with pytest.raises(HypothesisError) as info:
        regular_lie_untwist(a)
    assert info.value.requirement == "invertible-twist"
