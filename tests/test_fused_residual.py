"""The fused residual of an identity scan, and the algebras built on a parent's parts.

An identity scan computes each slot-0 slice with one compiled function that
adds the left terms and subtracts the right terms into one dict
(checks._slice), and evaluates the two sides only at the first failing
tuple, for the witness.  The tests below check that the residual is nonzero exactly where
the sides differ (mod p over F_p), at every tuple, that a scan evaluates the
sides at the witness alone, and that near-p constants, whose sums are
nonzero multiples of p as ints, neither fail a true identity nor hide a
false one.

checks._product_algebra builds the commutator and operator products on the
parent's basis, bicharacter, alpha and eps table (core._algebra_like); it
must give what _algebra_from_cells gives on the cells computed one by one.
"""

from functools import cache
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from test_sparse_kernel import dense_check, dense_scan
from test_support_scans import FIELDS, _operators, sparse_algebras, term_value

from colorhom import checks, core
from colorhom.catalog import standard_entries
from colorhom.checks import IDENTITIES_BY_CHECK
from colorhom.core import make_algebra, sparse_sub, trivial_basis
from colorhom.errors import StructureError
from colorhom.grading import trivial_bicharacter
from colorhom.scalars import prime_field, rationals

Q = rationals()


def basis_sides(a, name):
    return checks._compiled(name)(*checks._Scope(a, a, None, {}, 0, None))


def reduced(a, x):
    return x if a.field.p is None else checks._reduced(x, a.field.p)


def slice_residual(a, name):
    """Whether left - right at a basis tuple has a nonzero value (mod p), read off its slot-0 slice."""
    n, scan_slice = a.dim, cache(checks._slice(name)(a))

    def nonzero(idx):
        base = 0
        for k in idx[1:]:
            base = (base + k) * n
        r = scan_slice(idx[0])
        return bool(reduced(a, {k: r[base + k] for k in range(n) if r.get(base + k)}))

    return nonzero


# ---------------------------------------------------------------------------
# the residual agrees with the sides at every tuple


def assert_residual_agrees_with_the_sides(a):
    for name, arity in checks.IDENTITY_ARITY.items():
        residual, sides = slice_residual(a, name), basis_sides(a, name)
        for idx in iproduct(range(a.dim), repeat=arity):
            differ = bool(reduced(a, sparse_sub(*sides(*idx))))
            assert residual(idx) is differ, (name, idx)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_residual_is_nonzero_exactly_where_the_sides_differ_on_the_catalog(field):
    for entry in standard_entries(field):
        assert_residual_agrees_with_the_sides(entry.algebra)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras())
def test_the_residual_is_nonzero_exactly_where_the_sides_differ_on_random_algebras(a):
    assert_residual_agrees_with_the_sides(a)


# ---------------------------------------------------------------------------
# the sides are evaluated at the witness only


def test_a_scan_evaluates_the_sides_at_its_witness_only(monkeypatch):
    compiled, calls = checks._compiled, []

    def counted(name, basis=True):
        factory = compiled(name, basis)
        return lambda *scope: (lambda *idx: calls.append(idx) or factory(*scope)(*idx))

    monkeypatch.setattr(checks, "_compiled", counted)
    outcomes = set()
    for field in FIELDS:
        for entry in standard_entries(field):
            for name in checks.IDENTITY_ARITY:
                calls.clear()
                verdict = checks._scan(entry.algebra, name)
                assert calls == ([] if verdict else [verdict.witness.indices]), (entry.name, name)
                outcomes.add(verdict.passes)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# near-p constants
#
# K[t]/(t^2) in the basis f0 = 1 + t, f1 = 1 + 2t, with alpha the identity:
# f0 f0 = f1, f0 f1 = f1 f0 = -f0 + 2 f1 and f1 f1 = -2 f0 + 3 f1.  It is
# commutative and associative, so every identity below holds, but over F_p
# the kernel holds -1 and -2 as p - 1 and p - 2, and the terms of a tuple can
# sum to a nonzero multiple of p as ints.

HOLDING = (
    "epsilon-commutativity", "hom-associativity", "right-commutativity", "left-symmetry",
    "cyclic-right-products", "cyclic-left-products",
)


def line_in_new_basis(field, f1f1=(-2, 3)):
    basis = trivial_basis(field, 2)
    structure = [[[0, 1], [-1, 2]], [[-1, 2], list(f1f1)]]
    return make_algebra(basis, trivial_bicharacter(field, basis.group), structure, core.identity_map(basis))


def int_residuals(a, name):
    """The residuals left - right, unreduced, at every tuple."""
    sides = basis_sides(a, name)
    return {idx: sparse_sub(*sides(*idx)) for idx in iproduct(range(a.dim), repeat=checks.IDENTITY_ARITY[name])}


@pytest.mark.parametrize("p", (5, 7))
def test_near_p_residuals_pass(p):
    a = line_in_new_basis(prime_field(p))
    near_p = set()
    for name in HOLDING:
        assert checks._scan(a, name) == dense_scan(a, name) == checks.PASS, name
        residual = slice_residual(a, name)
        for idx, r in int_residuals(a, name).items():
            assert all(c % p == 0 for c in r.values()) and not residual(idx), (name, idx)
            if r:
                near_p.add(name)
    # the kernel's ints sum to nonzero multiples of p, and the scans still pass
    assert {"hom-associativity", "left-symmetry"} <= near_p


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("f1f1", [(-2, 4), (-1, 3)], ids=str)
def test_one_constant_off_by_one_fails_like_the_dense_reference(p, f1f1):
    a = line_in_new_basis(prime_field(p), f1f1)
    failed = set()
    for name in HOLDING:
        verdict = checks._scan(a, name)
        assert verdict == dense_scan(a, name), name
        assert repr(verdict) == repr(dense_scan(a, name)), name
        if not verdict:
            failed.add(name)
    for check, names in IDENTITIES_BY_CHECK.items():
        if set(names) <= set(HOLDING):
            assert checks._scan_check(a, check) == dense_check(a, check), check
    assert {"hom-associativity", "left-symmetry"} <= failed


def test_two_nonzero_terms_of_one_side_cancel():
    # left-symmetry's left side (x*y)*alpha(z) - alpha(x)*(y*z) at (f0, f0, f1):
    # over Q the two terms are equal; over F5 the kernel's ints differ by a
    # nonzero multiple of 5
    _, left, _ = checks._IDENTITIES["left-symmetry"]
    for field, int_difference in ((Q, False), (prime_field(5), True)):
        a = line_in_new_basis(field)
        terms = [term_value(a, node, (0, 0, 1)) for _, _, node in left]
        assert all(terms)
        left_side = basis_sides(a, "left-symmetry")(0, 0, 1)[0]
        assert bool(left_side) is int_difference and not reduced(a, left_side)
        assert not slice_residual(a, "left-symmetry")((0, 0, 1))
        assert checks._scan(a, "left-symmetry") == checks.PASS


# ---------------------------------------------------------------------------
# algebras on a parent's basis, bicharacter and alpha


def assert_built_like_from_cells(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)
    assert got.eps_table == expected.eps_table


@pytest.mark.parametrize("field", (Q, prime_field(7)), ids=str)
def test_products_on_a_parents_parts_equal_the_validated_build(field):
    for entry in standard_entries(field):
        a = entry.algebra
        rows, eps, n = a.product_rows, a.eps_table, a.dim
        bracket_cells = (
            ((i, j), sparse_sub(rows[i][j], core.sparse_scale(eps[i][j], rows[j][i])))
            for i, j in iproduct(range(n), repeat=2)
        )
        expected = core._algebra_from_cells(a.basis, a.bicharacter, bracket_cells, a.alpha)
        assert_built_like_from_cells(checks._product_algebra("bracket", a), expected)
        for f in _operators(a) + [m for m in entry.maps.values() if m.is_even]:
            fc = f.sparse_columns
            operator_cells = (
                ((i, j), core.sparse_product(a, fc[i], {j: 1})) for i, j in iproduct(range(n), repeat=2)
            )
            expected = core._algebra_from_cells(a.basis, a.bicharacter, operator_cells, a.alpha)
            assert_built_like_from_cells(checks._product_algebra("image-times", a, f), expected)


def test_a_product_on_a_parents_parts_still_checks_evenness():
    entry = standard_entries(prime_field(7))[-1]  # z3_graded_nilpotent, graded
    a = entry.algebra
    i, j = next((i, j) for i, j in iproduct(range(a.dim), repeat=2) if a.degrees[i] != a.degrees[j])
    uneven = [((i, j), {k: 1}) for k in range(a.dim) if a.degrees[k] != a.degrees[i] + a.degrees[j]][:1]
    with pytest.raises(StructureError, match="product not even"):
        core._algebra_like(a, uneven)
