"""Bases, graded maps, exact linear algebra, and the algebra container."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorhom.catalog import build_entry, scaling_morphism, standard_entries, truncated_polynomial
from colorhom.core import (
    GradedBasis,
    GradedLinearMap,
    _Columns,
    commutator_tensor,
    compose_maps,
    determinant,
    eval_map,
    eval_product,
    homogeneous_components,
    identity_map,
    invert_map,
    make_algebra,
    make_map,
    map_power,
    matrix_rank,
    scalar_map,
    trivial_basis,
    unit_vector,
    zero_vector,
)
from colorhom.errors import SingularMapError, StructureError
from colorhom.grading import GradeGroup, GroupElement, make_bicharacter
from colorhom.scalars import prime_field, rationals


Q = rationals()


def vec_add(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(s, x) -> tuple:
    return tuple(s * a for a in x)


def vec_is_zero(x) -> bool:
    return all(a == 0 for a in x)


def map_commutes_with_alpha(a, m) -> bool:
    return compose_maps(a.alpha, m).matrix == compose_maps(m, a.alpha).matrix


def super_basis(field, degrees):
    g = GradeGroup(0, (2,))
    return GradedBasis(field, g, tuple(GroupElement(g, (d,)) for d in degrees))


def test_trivial_basis_shape():
    b = trivial_basis(Q, 4)
    assert b.dim == 4
    assert all(d.is_zero for d in b.degrees)


def test_basis_rejects_empty_and_foreign_degrees():
    g = GradeGroup(1)
    with pytest.raises(StructureError):
        GradedBasis(Q, g, ())
    other = GradeGroup(2)
    with pytest.raises(StructureError):
        GradedBasis(Q, g, (other.zero(),))


def test_even_map_homogeneity_violation_names_entry():
    b = super_basis(Q, (0, 1))
    # entry (0, 1) sends an odd vector to an even one under an even map
    with pytest.raises(StructureError) as info:
        make_map(b, ((0, 1), (0, 0)))
    assert info.value.indices == (0, 1)
    assert "(0,1)" in str(info.value)


def test_odd_map_is_allowed_with_matching_degree():
    b = super_basis(Q, (0, 1))
    odd = GroupElement(b.group, (1,))
    m = make_map(b, ((0, 0), (1, 0)), degree=odd)
    assert not m.is_even
    assert m.column(0) == (Q.zero, Q.one)
    # the same matrix without the degree annotation is rejected
    with pytest.raises(StructureError):
        make_map(b, ((0, 0), (1, 0)))


def test_columns_name_the_same_first_offending_entry_as_the_matrix():
    b = super_basis(Q, (0, 1))
    # (1, 0) comes first by column, (0, 1) first by row
    with pytest.raises(StructureError) as dense:
        make_map(b, ((0, 1), (1, 0)))
    with pytest.raises(StructureError) as sparse:
        GradedLinearMap(b, _Columns(({1: 1}, {0: 1})))
    assert dense.value.indices == sparse.value.indices == (0, 1)
    with pytest.raises(StructureError) as info:
        GradedLinearMap(b, _Columns(({}, {0: Fraction(1, 2)})))
    assert info.value.indices == (0, 1)


def test_columns_reduce_unreduced_ints_and_drop_zeros_mod_p():
    f5 = prime_field(5)
    b = trivial_basis(f5, 2)
    m = GradedLinearMap(b, _Columns(({1: 7, 0: 6}, {1: -1, 0: 5})))
    assert m.sparse_columns == ({0: 1, 1: 2}, {1: 4})
    assert list(m.sparse_columns[0]) == [0, 1]
    assert m == make_map(b, ((1, 0), (2, 4)))
    # column 0 of the product is 2 e_0 + 3 e_0 = 5 e_0 = 0 over F5
    both = compose_maps(make_map(b, ((1, 1), (0, 0))), make_map(b, ((2, 0), (3, 0))))
    assert both.sparse_columns == ({}, {})
    assert both == make_map(b, ((0, 0), (0, 0)))


def test_map_state_is_basis_columns_and_degree():
    assert GradedLinearMap.__match_args__ == ("basis", "sparse_columns", "degree")
    m = make_map(trivial_basis(Q, 2), ((1, 2), (0, 3)))
    assert m.matrix is m.matrix
    assert repr(m).startswith("GradedLinearMap(basis=") and ", matrix=((Fraction(1, 1)," in repr(m)


@pytest.mark.parametrize("field", [Q, prime_field(3), prime_field(5), prime_field(7)], ids=str)
def test_every_catalog_map_rebuilds_from_its_matrix(field):
    for entry in standard_entries(field):
        maps = (entry.algebra.alpha, *entry.maps.values(), *(f.companion for f in entry.forms.values()))
        for m in (*maps, *(compose_maps(m, m) for m in maps)):
            again = GradedLinearMap(m.basis, m.matrix, m.degree)
            assert again == m and hash(again) == hash(m), entry.recipe
            assert all(list(c) == sorted(c) for c in m.sparse_columns), entry.recipe


def test_compose_order_and_degree_addition():
    b = super_basis(Q, (0, 1))
    odd = GroupElement(b.group, (1,))
    up = make_map(b, ((0, 0), (1, 0)), degree=odd)      # e0 -> e1
    down = make_map(b, ((0, 1), (0, 0)), degree=odd)    # e1 -> e0
    both = compose_maps(down, up)                       # down after up
    assert both.matrix == ((Q.one, Q.zero), (Q.zero, Q.zero))
    assert both.degree.is_zero
    other = compose_maps(up, down)
    assert other.matrix == ((Q.zero, Q.zero), (Q.zero, Q.one))


def test_map_power_matches_iterated_composition():
    b = trivial_basis(Q, 3)
    shift = make_map(b, ((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    assert map_power(shift, 0).matrix == identity_map(b).matrix
    sq = compose_maps(shift, shift)
    assert map_power(shift, 2).matrix == sq.matrix
    assert map_power(shift, 3).matrix == compose_maps(shift, sq).matrix
    assert all(v == 0 for row in map_power(shift, 3).matrix for v in row)
    with pytest.raises(StructureError):
        map_power(shift, -1)


def test_invert_map_exact_over_both_fields():
    b = trivial_basis(Q, 3)
    d = make_map(b, ((1, 0, 0), (0, 2, 0), (0, 0, 4)))
    inv = invert_map(d)
    assert inv.matrix[1][1] == Fraction(1, 2)
    assert inv.matrix[2][2] == Fraction(1, 4)
    assert compose_maps(d, inv).matrix == identity_map(b).matrix

    f7 = prime_field(7)
    b7 = trivial_basis(f7, 3)
    d7 = make_map(b7, ((1, 0, 0), (0, 2, 0), (0, 0, 4)))
    inv7 = invert_map(d7)
    assert inv7.matrix[1][1] == 4  # 2 * 4 = 8 = 1 mod 7
    assert inv7.matrix[2][2] == 2


def test_invert_map_rejects_singular_and_odd():
    b = trivial_basis(Q, 2)
    with pytest.raises(SingularMapError):
        invert_map(make_map(b, ((1, 2), (2, 4))))
    sb = super_basis(Q, (0, 1))
    odd = GroupElement(sb.group, (1,))
    m = make_map(sb, ((0, 0), (1, 0)), degree=odd)
    with pytest.raises(StructureError):
        invert_map(m)


def test_determinant_frozen_values():
    m = ((2, 1, 0), (1, 3, 1), (0, 1, 4))
    assert determinant(Q, m) == Fraction(18)
    assert determinant(prime_field(7), m) == 4
    assert determinant(Q, ((1, 2), (2, 4))) == 0
    assert determinant(Q, ()) == 1
    with pytest.raises(StructureError):
        determinant(Q, ((1, 2, 3), (4, 5, 6)))


def test_matrix_rank_frozen_values():
    assert matrix_rank(Q, ((1, 2), (2, 4))) == 1
    assert matrix_rank(Q, ((1, 0), (0, 1))) == 2
    assert matrix_rank(prime_field(5), ((1, 2), (2, 4))) == 1
    assert matrix_rank(Q, ((0, 0), (0, 0))) == 0


@pytest.mark.parametrize("rows", [((1, 2), (3,)), ((1,), (2, 3))], ids=str)
def test_matrix_rank_rejects_ragged_rows(rows):
    with pytest.raises(StructureError, match="rows of one length"):
        matrix_rank(Q, rows)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-4, max_value=8), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_determinant_and_rank_agree(rows):
    for field in (Q, prime_field(3), prime_field(5), prime_field(7)):
        det = determinant(field, rows)
        rank = matrix_rank(field, rows)
        assert (det != 0) == (rank == len(rows))


def test_make_algebra_names_first_lex_evenness_violation():
    b = super_basis(Q, (0, 1))
    bc = make_bicharacter(Q, b.group, ((Q.one,),))
    zero3 = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    # two violations; the lex-first one (0,0,1) must be the one reported
    zero3[0][0][1] = 1
    zero3[1][1][0] = 1
    with pytest.raises(StructureError) as info:
        make_algebra(b, bc, zero3, identity_map(b))
    assert info.value.indices == (0, 0, 1)
    assert "c[0][0][1]" in str(info.value)


def test_make_algebra_rejects_mismatched_pieces():
    b = super_basis(Q, (0, 1))
    bc = make_bicharacter(Q, b.group, ((Q.one,),))
    cube = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(StructureError):
        make_algebra(b, bc, [[[0, 0]]], identity_map(b))
    f5 = prime_field(5)
    bc5 = make_bicharacter(f5, b.group, ((f5.one,),))
    with pytest.raises(StructureError):
        make_algebra(b, bc5, cube, identity_map(b))
    other_alpha = identity_map(trivial_basis(Q, 2))
    with pytest.raises(StructureError):
        make_algebra(b, bc, cube, other_alpha)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
    st.integers(min_value=-3, max_value=3),
)
def test_eval_product_is_bilinear(xs, ys, zs, s):
    a = build_entry("euler_novikov", Q, n=3).algebra
    x = tuple(Fraction(v) for v in xs)
    y = tuple(Fraction(v) for v in ys)
    z = tuple(Fraction(v) for v in zs)
    s = Fraction(s)
    left = eval_product(a, vec_add(x, vec_scale(s, z)), y)
    assert left == vec_add(eval_product(a, x, y), vec_scale(s, eval_product(a, z, y)))
    right = eval_product(a, x, vec_add(y, vec_scale(s, z)))
    assert right == vec_add(eval_product(a, x, y), vec_scale(s, eval_product(a, x, z)))


def test_eval_product_rejects_wrong_length():
    a = truncated_polynomial(3)
    with pytest.raises(StructureError):
        eval_product(a, (Q.one,), (Q.zero,) * 3)


def test_commutator_tensor_of_euler_product_is_solvable_bracket():
    novikov = build_entry("euler_novikov", Q, n=2).algebra
    bracket = build_entry("solvable_bracket", Q).algebra
    assert commutator_tensor(novikov) == bracket.structure


def test_homogeneous_components_split_and_order():
    b = super_basis(Q, (0, 1, 0))
    x = (Q.from_int(2), Q.from_int(3), Q.from_int(5))
    parts = homogeneous_components(b, x)
    even = GroupElement(b.group, (0,))
    odd = GroupElement(b.group, (1,))
    assert parts == [
        (even, (Q.from_int(2), Q.zero, Q.from_int(5))),
        (odd, (Q.zero, Q.from_int(3), Q.zero)),
    ]
    # vanishing parts are dropped entirely
    assert homogeneous_components(b, (Q.zero, Q.one, Q.zero)) == [
        (odd, (Q.zero, Q.one, Q.zero))
    ]
    with pytest.raises(StructureError):
        homogeneous_components(b, (Q.one,))


def test_vector_helpers():
    x = (Fraction(1), Fraction(2))
    y = (Fraction(3), Fraction(-2))
    assert vec_add(x, y) == (Fraction(4), Fraction(0))
    assert vec_sub(x, x) == (Fraction(0), Fraction(0))
    assert vec_scale(Fraction(2), x) == (Fraction(2), Fraction(4))
    assert vec_is_zero(zero_vector(Q, 3))
    assert not vec_is_zero(unit_vector(Q, 3, 1))
    assert unit_vector(Q, 3, 1) == (Q.zero, Q.one, Q.zero)


def test_eval_map_and_scalar_map():
    b = trivial_basis(Q, 2)
    two = scalar_map(b, 2)
    assert eval_map(two, (Q.one, Q.from_int(3))) == (Q.from_int(2), Q.from_int(6))
    with pytest.raises(StructureError):
        eval_map(two, (Q.one,))


def test_map_commutes_with_alpha():
    plain = truncated_polynomial(3)
    scaled = build_entry("scaled_polynomial", Q, n=3, c=2).algebra
    diag = scaling_morphism(plain, Q.from_int(3))
    assert map_commutes_with_alpha(scaled, diag)  # two diagonals commute
    b = scaled.basis
    shift = make_map(b, ((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    assert not map_commutes_with_alpha(scaled, shift)
