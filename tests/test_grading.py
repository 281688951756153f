"""Grading-group and bicharacter tests."""

import pytest
from hypothesis import given, strategies as st

from colorhom.errors import StructureError
from colorhom.grading import (
    Bicharacter,
    GradeGroup,
    bicharacter_eval,
    make_bicharacter,
    trivial_bicharacter,
    validate_bicharacter,
)
from colorhom.scalars import prime_field, rationals


def test_group_element_canonicalization():
    g = GradeGroup(1, (3,))
    e = g.element((5, 7))
    assert e.coords == (5, 1)  # free part untouched, torsion reduced mod 3
    assert (e + g.element((-5, 2))).coords == (0, 0)
    assert (-e).coords == (-5, 2)
    assert g.zero().is_zero


@pytest.mark.parametrize("g", [GradeGroup(0), GradeGroup(1, (3,)), GradeGroup(2, (2, 3))], ids=str)
def test_a_group_shares_one_zero(g):
    zero, built = g.zero(), g.element((0,) * g.ngen)
    assert zero is g.zero()
    assert zero == built and hash(zero) == hash(built)
    assert zero.is_zero and zero.group == g


def test_group_element_validation():
    g = GradeGroup(1, (3,))
    with pytest.raises(StructureError):
        g.element((1,))
    with pytest.raises(StructureError):
        g.element((1, "x"))


def test_super_bicharacter_validates():
    q = rationals()
    g = GradeGroup(0, (2,))
    eps = make_bicharacter(q, g, ((q.from_int(-1),),))
    one = g.element((0,))
    odd = g.element((1,))
    assert bicharacter_eval(eps, odd, odd) == -1
    assert bicharacter_eval(eps, one, odd) == 1
    assert bicharacter_eval(eps, odd, one) == 1


def test_bicharacter_rejects_broken_skew_pair():
    q = rationals()
    g = GradeGroup(2, ())
    table = ((q.one, q.from_int(2)), (q.from_int(3), q.one))
    report = validate_bicharacter(Bicharacter(q, g, table))
    assert not report.ok
    assert report.axiom == "skew"
    assert report.pair == (0, 1)
    with pytest.raises(StructureError):
        make_bicharacter(q, g, table)


def test_bicharacter_rejects_wrong_torsion_order():
    q = rationals()
    g = GradeGroup(0, (3,))
    # -1 has order 2, not dividing 3
    report = validate_bicharacter(Bicharacter(q, g, ((q.from_int(-1),),)))
    assert not report.ok
    assert report.axiom == "torsion"
    # Z_2 x Z_3: the Z_2 row passes; the Z_3 row fails first at E[1][0] = -1
    minus = q.from_int(-1)
    report = validate_bicharacter(Bicharacter(q, GradeGroup(0, (2, 3)), ((q.one, minus), (minus, q.one))))
    assert (report.ok, report.axiom, report.pair) == (False, "torsion", (1, 0))


def test_bicharacter_rejects_zero_entry():
    q = rationals()
    g = GradeGroup(1, ())
    report = validate_bicharacter(Bicharacter(q, g, ((q.zero,),)))
    assert not report.ok
    assert report.axiom == "invertibility"


def test_bicharacter_shape_is_structural():
    q = rationals()
    g = GradeGroup(1, ())
    with pytest.raises(StructureError):
        make_bicharacter(q, g, ())


def _mixed_f7():
    """Z + Z_3 bicharacter over F7: table [[-1, 2], [4, 1]]."""
    f = prime_field(7)
    g = GradeGroup(1, (3,))
    table = (
        (f.from_int(-1), f.from_int(2)),
        (f.from_int(4), f.one),
    )
    return f, g, make_bicharacter(f, g, table)


coords = st.tuples(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=2)
)


@given(coords, coords, coords)
def test_mixed_bicharacter_is_biadditive_and_skew(ca, cb, cc):
    f, g, eps = _mixed_f7()
    a, b, c = g.element(ca), g.element(cb), g.element(cc)
    ev = lambda x, y: bicharacter_eval(eps, x, y)
    assert ev(a + b, c) == ev(a, c) * ev(b, c)
    assert ev(a, b + c) == ev(a, b) * ev(a, c)
    assert ev(a, b) * ev(b, a) == 1
    assert ev(a, g.zero()) == 1 and ev(g.zero(), a) == 1


def test_trivial_bicharacter_is_constant_one():
    q = rationals()
    g = GradeGroup(2, (4,))
    eps = trivial_bicharacter(q, g)
    a = g.element((5, -2, 3))
    b = g.element((-1, 0, 1))
    assert bicharacter_eval(eps, a, b) == 1
