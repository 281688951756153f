"""A basis's class tables against the per-pair route they replaced (tests/grading_oracle.py).

core reads a basis's grading as class ids, a class-sum table summed on
coordinates, and eps per pair of classes from the generator values
(grading._eps_rows).  Each is compared with the oracle's bicharacter_eval
and GroupElement sums on Hypothesis gradings: free rank and torsion, over Q
with +-1 values and with other rationals, over F_p, and with tables that
fail their axioms, given to ColorHomAlgebra(...) directly.  A rational eps
past grading.EPS_MAX_BITS raises the same StructureError text.  The
outputs of tensor_product and direct_sum, which take their classes from
their factors', are compared with the oracle on their output basis.
"""

from fractions import Fraction
from math import gcd, lcm

import grading_oracle as oracle
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from colorhom import constructions
from colorhom.catalog import build_entry
from colorhom.core import ColorHomAlgebra, GradedBasis, GradedLinearMap, _Cells, _Columns, identity_map
from colorhom.errors import StructureError
from colorhom.grading import Bicharacter, GradeGroup, make_bicharacter
from colorhom.scalars import prime_field, rationals

Q, F7, F13 = rationals(), prime_field(7), prime_field(13)
# a root of unity of order 6 in F7 and F13, and -1 of order 2 in Q
ROOTS = {Q: (-1, 2), F7: (3, 6), F13: (4, 6)}
RATIONALS = (2, Fraction(1, 2), 3, Fraction(-2, 3), Fraction(5, 7))
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def groups(draw):
    return GradeGroup(draw(st.integers(0, 2)), tuple(draw(st.lists(st.sampled_from((2, 3, 6)), max_size=2))))


def degree_lists(group, size=7, span=4):
    coordinate = st.integers(-span, span)
    return st.lists(st.tuples(*[coordinate] * group.ngen).map(group.element), min_size=1, max_size=10).flatmap(
        lambda distinct: st.lists(st.sampled_from(distinct), min_size=1, max_size=size)
    )


@st.composite
def valid_tables(draw, field, group, scaled):
    """A table passing the axioms: E[i][j] = root^k_ij, k_ji = -k_ij, times r and 1/r on free pairs if scaled."""
    root, m = ROOTS[field]
    r, orders = group.free_rank, group.torsion_orders
    # a torsion generator of order n takes values of order dividing n
    step = [1] * r + [m // gcd(m, n) for n in orders]
    table = [[None] * group.ngen for _ in range(group.ngen)]
    for i in range(group.ngen):
        table[i][i] = field.from_int(root) ** draw(st.sampled_from([k for k in (0, m // 2) if k % step[i] == 0]))
        for j in range(i + 1, group.ngen):
            v = field.from_int(root) ** (draw(st.integers(0, m - 1)) * lcm(step[i], step[j]))
            if scaled and j < r:
                v *= field.coerce(draw(st.sampled_from(RATIONALS)))
            table[i][j], table[j][i] = v, 1 / v
    return make_bicharacter(field, group, table)


def arbitrary_tables(field, group):
    value = st.integers(-3, 3) if field is F7 else st.sampled_from((0, 1, -1, *RATIONALS))
    row = st.lists(value, min_size=group.ngen, max_size=group.ngen)
    return st.lists(row, min_size=group.ngen, max_size=group.ngen).map(
        lambda rows: Bicharacter(field, group, tuple(map(tuple, rows)))
    )


def outcome(build):
    """A build's value, the text of the StructureError it raises, or ZeroDivisionError (a zero value's negative power)."""
    try:
        return build()
    except StructureError as exc:
        return str(exc)
    except ZeroDivisionError:
        return ZeroDivisionError


def direct(basis, b) -> ColorHomAlgebra:
    """The product-free algebra on basis and b, built without make_algebra's checks."""
    return ColorHomAlgebra(basis, b, _Cells(()), identity_map(basis))


def assert_graded_as_oracle(basis, b=None):
    degrees = basis.degrees
    distinct, classes = oracle.degree_classes(degrees)
    assert basis.degree_classes == (distinct, classes)
    assert [basis.class_sums[c] for c in range(len(distinct))] == oracle.class_sums(degrees)
    if b is not None:
        fresh = GradedBasis(basis.field, basis.group, degrees)
        assert outcome(lambda: direct(basis, b).eps_table) == outcome(lambda: oracle.eps_table(fresh, b))


@pytest.mark.parametrize("field, scaled", [(Q, False), (Q, True), (F7, False), (F13, False)], ids=["Q+-1", "Q", "F7", "F13"])
@SETTINGS
@given(data=st.data())
def test_eps_by_class_equals_bicharacter_eval_on_tables_passing_their_axioms(field, scaled, data):
    group = data.draw(groups())
    b = data.draw(valid_tables(field, group, scaled))
    assert_graded_as_oracle(GradedBasis(field, group, tuple(data.draw(degree_lists(group)))), b)


@pytest.mark.parametrize("field", [Q, F7], ids=str)
@SETTINGS
@given(data=st.data())
def test_eps_by_class_equals_bicharacter_eval_on_tables_failing_their_axioms(field, data):
    group = data.draw(groups())
    b = data.draw(arbitrary_tables(field, group))
    assert_graded_as_oracle(GradedBasis(field, group, tuple(data.draw(degree_lists(group)))), b)


@SETTINGS
@given(data=st.data())
def test_a_rational_eps_past_the_bit_cap_raises_as_bicharacter_eval_does(data):
    # bits add up over the generator pairs of one pair of degrees, so the pair named is the one that crosses the cap
    group = GradeGroup(2, data.draw(st.sampled_from(((), (2,)))))
    b = data.draw(valid_tables(Q, group, True))
    degrees = data.draw(degree_lists(group, size=4, span=400))
    assert_graded_as_oracle(GradedBasis(Q, group, tuple(degrees)), b)


@pytest.mark.parametrize(
    "degrees",
    [
        ((1, 1), (100000, 3), (3, 100000)),
        # 2^20000 (1/2)^20000 = 1, but each power has 40000 bits and the cap counts them together
        ((100, 200),),
    ],
    ids=["one-power", "two-powers"],
)
def test_the_cap_names_the_generator_pair_of_the_first_pair_of_degrees_past_it(degrees):
    g = GradeGroup(2)
    b = make_bicharacter(Q, g, ((1, 2), (Fraction(1, 2), 1)))
    basis = GradedBasis(Q, g, tuple(map(g.element, degrees)))
    message = "eps value too large: generator pair (1, 0) raises 1/2 past 65536 bits"
    for build in (lambda: direct(basis, b), lambda: oracle.eps_table(basis, b)):
        with pytest.raises(StructureError) as caught:
            build()
        assert str(caught.value) == message


@SETTINGS
@given(data=st.data())
def test_a_map_of_any_degree_is_checked_for_homogeneity_as_by_its_degrees(data):
    group = data.draw(groups())
    basis = GradedBasis(F7, group, tuple(data.draw(degree_lists(group))))
    degrees, n = basis.degrees, basis.dim
    shift = data.draw(st.sampled_from(degrees)) + -data.draw(st.sampled_from(degrees))
    entries = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    columns = tuple({k: 1 for k, j in sorted(entries) if j == i} for i in range(n))
    offending = sorted((k, i) for k, i in entries if degrees[k] != degrees[i] + shift)
    if offending:
        with pytest.raises(StructureError) as caught:
            GradedLinearMap(basis, _Columns(columns), shift)
        assert caught.value.indices == offending[0]
    else:
        assert GradedLinearMap(basis, _Columns(columns), shift).degree == shift


@pytest.mark.parametrize("field, scaled", [(Q, False), (Q, True), (F7, False)], ids=["Q+-1", "Q", "F7"])
@SETTINGS
@given(data=st.data())
def test_tensor_product_and_direct_sum_outputs_are_graded_as_the_oracle_grades_them(field, scaled, data):
    group = data.draw(groups())
    b = data.draw(valid_tables(field, group, scaled))
    s, a = (direct(GradedBasis(field, group, tuple(data.draw(degree_lists(group)))), b) for _ in range(2))
    for out in (constructions.tensor_product(s, a, checked=False), constructions.direct_sum(s, a)):
        assert_graded_as_oracle(out.basis, b)
        assert out.eps_table == oracle.eps_table(GradedBasis(field, group, out.degrees), b)


def test_the_graded_catalog_entry_and_its_constructions_are_graded_as_the_oracle_grades_them():
    z3 = build_entry("z3_graded_nilpotent", F7).algebra
    assert_graded_as_oracle(z3.basis, z3.bicharacter)
    for out in (constructions.tensor_product(z3, z3, checked=False), constructions.direct_sum(z3, z3)):
        assert_graded_as_oracle(out.basis, out.bicharacter)
        assert out.eps_table == oracle.eps_table(GradedBasis(F7, z3.group, out.degrees), z3.bicharacter)
