"""The linear part of search_maps, and the one sparse elimination behind it, matrix_rank and invert_map.

search._solve_linear_part scatters each linear condition's equations from
the nonzero contributions of its terms (search._linear_equations) and
reduces them with core._row_reduce.  tests/linear_oracle.py keeps the route
it replaced: unit maps, its condition_residual over every tuple and a
dense Gauss-Jordan.  The RREF of a row space is unique, so (free, pivots)
must equal the oracle's exactly, its field elements converted to kernel
scalars, on the catalog, on random algebras and where the kernel's ints sum
to nonzero multiples of p; every coefficient the solve returns is a
canonical kernel scalar, as search_maps multiplies it.  The elimination is checked
against a brute-force count of row spaces and the dense inverse;
tests/test_core.py checks matrix_rank against determinants.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from linear_oracle import dense_inverse, gauss_jordan, solve_linear_part
from test_exact_search import even_form, random_even
from test_support_scans import FIELDS, sparse_algebras

from colorhom import checks, core, search
from colorhom.catalog import standard_entries
from colorhom.checks import linear_conditions
from colorhom.core import (
    GradedBasis,
    compose_maps,
    identity_map,
    invert_map,
    make_algebra,
    make_map,
    matrix_rank,
)
from colorhom.errors import SingularMapError
from colorhom.grading import GradeGroup, make_bicharacter
from colorhom.quadratic import BilinearFormStructure
from colorhom.scalars import prime_field, rationals

Q = rationals()
F3 = prime_field(3)


def positions(a):
    return [(k, i) for k in range(a.dim) for i in range(a.dim) if a.degrees[k] == a.degrees[i]]


def linear_parts(forms):
    """(label, linear conditions, form, weight) for every predicate with a linear part."""
    out = [("derivation", linear_conditions("derivation"), None, 0)]
    for name in ("centroid", "averaging"):
        out += [(f"{name}-{side}", linear_conditions(name, side), None, 0) for side in ("left", "right", "both")]
    out += [(f"rota_baxter-{w}", linear_conditions("rota_baxter"), None, w) for w in (0, 1, -1)]
    out += [(name, linear_conditions(name), None, 0) for name in ("bracket_operator_conditions", "morphism")]
    out += [("symmetric_automorphism", linear_conditions("symmetric_automorphism"), f, 0) for f in forms]
    assert all(linear for _, linear, _, _ in out)
    return out


def kernel_scalars(field, solved):
    """(free, pivots) with every coefficient converted by field.kernel_scalar."""
    free, pivots = solved
    return free, [(p, [(q, field.kernel_scalar(c)) for q, c in terms]) for p, terms in pivots]


def assert_solved_like_the_oracle(a, forms):
    """(free, pivots) equal the oracle's in kernel scalars, types included; the weight is read by neither."""
    at = positions(a)
    for label, linear, form, weight in linear_parts(forms):
        expected = kernel_scalars(a.field, solve_linear_part(a, linear, at, form, weight))
        got = search._solve_linear_part(a, linear, at, form)
        assert got == expected, label
        assert repr(got) == repr(expected), label


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_linear_part_is_the_oracles_on_the_catalog(field):
    for entry in standard_entries(field):
        assert_solved_like_the_oracle(entry.algebra, list(entry.forms.values()))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras())
def test_the_linear_part_is_the_oracles_on_random_algebras(a):
    assert_solved_like_the_oracle(a, [even_form(a)])


def canonical(field, c) -> bool:
    """c as field.kernel_scalar gives it: over F_p an int in [0, p); over Q an int or a non-integral Fraction."""
    if field.characteristic:
        return type(c) is int and 0 <= c < field.p
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def coefficients(a, forms):
    """(label, c) for every coefficient of every linear part the solve returns."""
    for label, linear, form, _ in linear_parts(forms):
        for _, terms in search._solve_linear_part(a, linear, positions(a), form)[1]:
            yield from ((label, c) for _, c in terms)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_coefficients_are_canonical_kernel_scalars_on_the_catalog(field):
    found = [lc for entry in standard_entries(field) for lc in coefficients(entry.algebra, list(entry.forms.values()))]
    assert found  # some fixed entry reads a free one
    assert [(label, c) for label, c in found if not canonical(field, c)] == []


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras())
def test_the_coefficients_are_canonical_kernel_scalars_on_random_algebras(a):
    assert [(label, c) for label, c in coefficients(a, [even_form(a)]) if not canonical(a.field, c)] == []


def test_the_canonical_test_rejects_boxed_and_unreduced_scalars():
    F5 = prime_field(5)
    assert canonical(Q, 3) and canonical(Q, Fraction(-1, 2)) and canonical(F5, 0) and canonical(F5, 4)
    assert not canonical(Q, Fraction(3)) and not canonical(Q, Q.coerce(-1))
    assert not canonical(F5, F5.coerce(2)) and not canonical(F5, 5) and not canonical(F5, -1)


def test_no_linear_condition_leaves_every_position_free():
    a = standard_entries(Q)[0].algebra
    at = positions(a)
    assert search._solve_linear_part(a, (), at, None) == (list(range(len(at))), [])


# ---------------------------------------------------------------------------
# nonzero multiples of p
#
# Over F_p the kernel holds -1 as p - 1, so the scattered coefficients are
# ints that can sum to nonzero multiples of p; the elimination must read them
# as zero.  Structure constants entered as multiples of p are zero cells.


def near_p_algebra(p):
    """Z2-graded, dim 3, with constants p - 1, p + 1 and 2p, and a Gram row of p - 1."""
    field = prime_field(p)
    g = GradeGroup(0, (2,))
    basis = GradedBasis(field, g, (g.element((0,)), g.element((0,)), g.element((1,))))
    bichar = make_bicharacter(field, g, ((field.from_int(-1),),))
    c = {(0, 0, 0): p - 1, (0, 0, 1): p + 1, (0, 1, 1): p - 1, (1, 0, 1): 1, (1, 1, 0): 2 * p,
         (1, 1, 1): p - 2, (0, 2, 2): p - 1, (2, 0, 2): p + 1, (2, 2, 0): p - 1, (2, 2, 1): 1}
    structure = [[[c.get((i, j, k), 0) for k in range(3)] for j in range(3)] for i in range(3)]
    alpha = make_map(basis, [[p - 1, 1, 0], [p + 1, p - 1, 0], [0, 0, p - 1]])
    a = make_algebra(basis, bichar, structure, alpha)
    form = BilinearFormStructure(basis, [[p - 1, 1, 0], [1, 1, 0], [0, 0, p - 1]], identity_map(basis))
    return a, form


@pytest.mark.parametrize("p", (3, 5, 7))
def test_coefficients_summing_to_multiples_of_p_are_zero(p):
    a, form = near_p_algebra(p)
    assert_solved_like_the_oracle(a, [form])
    multiples = [
        c for _, linear, f, _ in linear_parts([form])
        for row in search._linear_equations(a, linear, positions(a), f) for c in row.values() if c % p == 0
    ]
    assert any(multiples)  # the case is reached: some raw coefficient is a nonzero multiple of p


# ---------------------------------------------------------------------------
# the solve builds no map and evaluates no side


def test_the_solve_builds_no_map_and_evaluates_no_side(monkeypatch):
    cases = []
    for field in FIELDS:
        for entry in standard_entries(field):
            a, forms = entry.algebra, list(entry.forms.values())
            for _, linear, form, _ in linear_parts(forms):
                cases.append((a, linear, positions(a), form, solve_linear_part(a, linear, positions(a), form)))
    built = []
    init = core.GradedLinearMap.__init__
    monkeypatch.setattr(
        core.GradedLinearMap, "__init__", lambda self, *args, **kw: built.append(args) or init(self, *args, **kw)
    )

    def refused(*args, **kwargs):
        raise AssertionError("the linear solve evaluated a side")

    for name in ("_compiled", "_evaluator", "_first_failure"):
        monkeypatch.setattr(checks, name, refused)
    for a, linear, at, form, expected in cases:
        assert search._solve_linear_part(a, linear, at, form) == expected
    assert built == []


# ---------------------------------------------------------------------------
# the elimination


def sparse_rows(field, rows):
    return [core.sparse_vector(field, r) for r in rows]


def dense_rows(field, reduced, width):
    return [[field.coerce(row.get(c, 0)) for c in range(width)] for row in reduced]


matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(st.lists(st.integers(-3, 9), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
)


@settings(max_examples=150, deadline=None)
@given(matrices, st.sampled_from(FIELDS), st.randoms(use_true_random=False))
def test_the_sparse_rref_is_the_dense_one_in_any_row_order(rows, field, rng):
    _, _, expected, expected_pivots = gauss_jordan(field, rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    reduced, pivots = core._row_reduce(field, sparse_rows(field, shuffled))
    assert pivots == expected_pivots
    assert dense_rows(field, reduced, len(rows[0])) == expected


def test_rank_counts_the_row_space_over_f3():
    # every 2x2 and 2x3 matrix over F3, and 300 seeded 3x3 ones
    rng = random.Random(0)
    shapes = [[list(r) for r in m] for m in iproduct(iproduct(range(3), repeat=2), repeat=2)]
    shapes += [[list(r) for r in m] for m in iproduct(iproduct(range(3), repeat=3), repeat=2)]
    shapes += [[[rng.randrange(3) for _ in range(3)] for _ in range(3)] for _ in range(300)]
    for rows in shapes:
        space = {
            tuple(sum(c * r[j] for c, r in zip(coefficients, rows)) % 3 for j in range(len(rows[0])))
            for coefficients in iproduct(range(3), repeat=len(rows))
        }
        assert len(space) == 3 ** matrix_rank(F3, rows), rows


def assert_inverse_is_the_dense_one(m):
    expected = dense_inverse(m)
    if expected is None:
        with pytest.raises(SingularMapError):
            invert_map(m)
        return
    inverse = invert_map(m)
    assert inverse == expected and repr(inverse) == repr(expected)
    one = identity_map(m.basis)
    assert compose_maps(inverse, m) == one == compose_maps(m, inverse)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_invert_map_is_the_dense_inverse_on_the_catalog(field):
    singular = 0
    for entry in standard_entries(field):
        maps = [entry.algebra.alpha] + [m for m in entry.maps.values() if m.is_even]
        for m in maps + [f.companion for f in entry.forms.values()]:
            assert_inverse_is_the_dense_one(m)
            singular += dense_inverse(m) is None
    assert singular  # some catalog map is singular


@settings(max_examples=150, deadline=None)
@given(sparse_algebras(), st.data())
def test_invert_map_is_the_dense_inverse_on_random_even_maps(a, data):
    assert_inverse_is_the_dense_one(a.alpha)
    assert_inverse_is_the_dense_one(make_map(a.basis, random_even(data.draw, a.basis)))

