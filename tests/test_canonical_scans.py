"""Identity scans over canonical tuples (checks._canonical).

An identity symmetric under a swap or a rotation of its slots
(checks._SYMMETRIES) is nonzero at a tuple exactly when it is nonzero at the
tuple's swap or rotations, so the first failing tuple is the least of its
orbit, and a scan visits only the tuples with x_s <= x_t for the slot pairs
(s, t) the symmetries give.  A swap carries failures to failures only where eps(d, e)
eps(e, d) = 1; without it a scan keeps the rotations alone.  The tests compare
the slices over canonical tuples with the full slices at the canonical keys,
and the verdicts with the dense reference of tests/test_sparse_kernel.py.
"""

from itertools import permutations
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from test_sparse_kernel import COMPOSITES, _dense_commutator, algebra_parts, algebras, dense_check, dense_scan

from colorhom import checks, core
from colorhom.catalog import standard_entries
from colorhom.core import ColorHomAlgebra, GradedBasis, make_algebra
from colorhom.grading import Bicharacter, GradeGroup, trivial_bicharacter
from colorhom.scalars import prime_field, rationals

Q, F7 = rationals(), prime_field(7)
FIELDS = (Q, prime_field(3), prime_field(5), F7)

# ---------------------------------------------------------------------------
# the symmetries listed beside the declarations


def test_the_symmetries_are_read_off_the_declarations():
    """The swaps and rotations of checks._SYMMETRIES, one row per declaration.

    Under the skew axiom the two cyclic sums, their brackets written out as
    products, are eps-alternating in every slot pair, so with their rotations
    the swap (1, 2) leaves x <= y <= z; the directed cases below and the
    oracle comparisons of tests/test_support_scans.py check each row.
    """
    rotation = ((0, 1), (0, 2))
    assert checks._SYMMETRIES == {
        "epsilon-commutativity": (((0, 1),), ()),
        "hom-associativity": ((), ()),
        "right-commutativity": (((1, 2),), ()),
        "left-symmetry": (((0, 1),), ()),
        "skew-symmetry": (((0, 1),), ()),
        "hom-jacobi": ((), rotation),
        "cyclic-right-products": (((1, 2),), rotation),
        "cyclic-left-products": (((1, 2),), rotation),
    }
    assert checks._GAINED == {"hom-jacobi": ("skew-symmetry", (1, 2))}


def test_hom_jacobi_is_scanned_on_sorted_tuples_once_skew_symmetry_has_passed():
    a = checks._product_algebra("bracket", standard_entries(Q)[0].algebra)
    assert checks._canonical(a, "hom-jacobi") == ((0, 1), (0, 2))
    assert checks._scan(a, "skew-symmetry")
    assert checks._canonical(a, "hom-jacobi") == ((0, 1), (0, 2), (1, 2))
    assert checks._canonical(a, "hom-associativity") == ()


def test_a_check_calls_each_scan_with_the_algebra_and_the_identity_alone(monkeypatch):
    # the per-identity scan is the seam a tracer wraps with a two-argument function
    a = checks._product_algebra("bracket", standard_entries(Q)[0].algebra)
    expected = dense_check(checks._product_algebra("bracket", a), "hom_lie"), dense_check(a, "hom_lie")
    calls, original = [], checks._scan
    monkeypatch.setattr(checks, "_scan", lambda a, name: calls.append(name) or original(a, name))
    assert (checks.check_lie_admissible(a), checks.check_hom_lie(a)) == expected
    assert calls == ["skew-symmetry", "hom-jacobi"] * 2


# ---------------------------------------------------------------------------
# a canonical slice is the full slice at the canonical keys

# every restriction a scan compiles
RESTRICTIONS = [(name, tuple(sorted({*swaps, *rotations}))) for name, (swaps, rotations) in checks._SYMMETRIES.items()]
RESTRICTIONS.append(("hom-jacobi", ((0, 1), (0, 2), (1, 2))))


def assert_canonical_slices_restrict_the_full_ones(a, restrictions=RESTRICTIONS):
    n = a.dim
    for name, canonical in restrictions:
        if not canonical:
            continue
        later = (lambda key: divmod(key // n, n)) if checks.IDENTITY_ARITY[name] == 3 else (lambda key: (key // n,))
        full, kept = checks._slice(name)(a), checks._slice((name, canonical))(a)
        for i in range(n):
            expected = {
                key: v for key, v in full(i).items()
                if all(idx[s] <= idx[t] for s, t in canonical for idx in [(i, *later(key))])
            }
            assert kept(i) == expected, (name, canonical, i)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_canonical_slices_restrict_the_full_ones_on_the_catalog(field):
    for entry in standard_entries(field):
        assert_canonical_slices_restrict_the_full_ones(entry.algebra)
        bracket = checks._product_algebra("bracket", entry.algebra)
        assert_canonical_slices_restrict_the_full_ones(bracket, [("hom-jacobi", ((0, 1), (0, 2), (1, 2)))])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras())
def test_canonical_slices_restrict_the_full_ones_on_random_algebras(a):
    assert_canonical_slices_restrict_the_full_ones(a)
    assert_canonical_slices_restrict_the_full_ones(checks._product_algebra("bracket", a))


# ---------------------------------------------------------------------------
# directed cases: the only failures are one orbit, and the witness is its least
#
# Over Q with the trivial grading, dimension 3 and alpha the identity; cells
# maps (i, j) to e_i * e_j as {k: coefficient}.


def _cells_algebra(cells, field=Q, basis=None, bicharacter=None):
    basis = basis or core.trivial_basis(field, 3)
    n = basis.dim
    structure = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j), cell in cells.items():
        for k, c in cell.items():
            structure[i][j][k] = field.from_int(c)
    parts = (basis, bicharacter or trivial_bicharacter(field, basis.group), structure, core.identity_map(basis))
    return ColorHomAlgebra(*parts) if bicharacter else make_algebra(*parts)


def failing_tuples(a, name):
    """The basis tuples where the identity's sides differ (mod p over F_p)."""
    sides, p = checks._compiled(name)(*checks._Scope(a, a, None, {}, 0, None)), a.field.p
    reduced = (lambda x: x) if p is None else (lambda x: checks._reduced(x, p))
    return {
        idx for idx in iproduct(range(a.dim), repeat=checks.IDENTITY_ARITY[name])
        if len({frozenset(reduced(side).items()) for side in sides(*idx)}) == 2
    }


ORBITS = {
    "swap in (0, 1)": ("epsilon-commutativity", {(0, 2): {1: 1}}, {(0, 2), (2, 0)}),
    "swap in (1, 2)": ("right-commutativity", {(0, 0): {0: 1}, (1, 2): {0: 1}, (2, 1): {2: 1}}, {(1, 0, 2), (1, 2, 0)}),
    "swap in (0, 1) of a triple": ("left-symmetry", {(0, 1): {1: 2}, (1, 2): {2: 2}}, {(0, 1, 2), (1, 0, 2)}),
    # not skew-symmetric: hom-Jacobi keeps its rotations only, and (0, 2, 1) is their least
    "rotation": ("hom-jacobi", {(1, 0): {1: -1}, (2, 1): {2: -1}}, {(0, 2, 1), (1, 0, 2), (2, 1, 0)}),
    "rotation and swaps, right": ("cyclic-right-products", {(0, 2): {1: -1}, (1, 1): {0: -1}}, set(permutations(range(3)))),
    "rotation and swaps, left": ("cyclic-left-products", {(0, 2): {1: -1}, (1, 1): {0: -1}}, set(permutations(range(3)))),
}


@pytest.mark.parametrize("case", ORBITS)
def test_the_witness_is_the_least_tuple_of_the_one_failing_orbit(case):
    name, cells, orbit = ORBITS[case]
    a = _cells_algebra(cells)
    assert failing_tuples(a, name) == orbit
    verdict = checks._scan(a, name)
    assert verdict.witness.indices == min(orbit)
    assert verdict == dense_scan(a, name)


def test_hom_lie_scans_hom_jacobi_on_sorted_tuples_and_finds_the_least_of_six():
    # a skew-symmetric product whose hom-Jacobi sum fails at every ordering of (0, 1, 2)
    cells = {(0, 2): {0: -1}, (2, 0): {0: 1}, (1, 2): {2: -1}, (2, 1): {2: 1}}
    a = _cells_algebra(cells)
    assert not failing_tuples(a, "skew-symmetry")
    assert failing_tuples(a, "hom-jacobi") == set(permutations(range(3)))
    verdict = checks.check_hom_lie(a)
    assert verdict.witness.indices == (0, 1, 2)
    assert verdict == dense_check(a, "hom_lie")


# ---------------------------------------------------------------------------
# the full-tuple fallback: a bicharacter failing the skew axiom
#
# Z3 with eps(g, g) = 2 over F7: eps(1, 1) eps(1, 1) = 4, not 1.  ColorHomAlgebra
# takes it unvalidated (make_algebra would reject it).

Z3 = GradeGroup(0, (3,))
NOT_SKEW = Bicharacter(F7, Z3, ((2,),))


def _not_skew(field=F7):
    return Z3, NOT_SKEW


# name -> (degrees, cells, witness): each witness is the swap of an earlier tuple
# that passes; for skew-symmetry that is (1, 2), e_0 + eps(2, 2) 3 e_0 = 7 e_0
FALLBACK = {
    "skew-symmetry": ((1, 2, 2), {(1, 2): {0: 1}, (2, 1): {0: 3}}, (2, 1)),
    "epsilon-commutativity": ((2, 2, 1), {(0, 1): {2: 2}, (1, 0): {2: 1}, (2, 2): {1: 2}}, (1, 0)),
    "right-commutativity": (
        (1, 2, 0), {(0, 0): {1: 1}, (0, 1): {2: 3}, (1, 1): {0: 1}, (2, 0): {0: 3}, (2, 2): {2: 3}}, (0, 1, 0)
    ),
}


@pytest.mark.parametrize("name", FALLBACK)
def test_a_bicharacter_failing_the_skew_axiom_keeps_only_the_rotations(name):
    degrees, cells, witness = FALLBACK[name]
    basis = GradedBasis(F7, Z3, tuple(Z3.element((d,)) for d in degrees))
    a = _cells_algebra(cells, F7, basis, NOT_SKEW)
    assert not checks._eps_skew(a)
    assert checks._canonical(a, name) == ()
    # a zero product passes skew-symmetry, and hom-Jacobi still keeps its rotations alone
    zero = _cells_algebra({}, F7, basis, NOT_SKEW)
    assert checks._scan(zero, "skew-symmetry")
    assert checks._canonical(zero, "hom-jacobi") == ((0, 1), (0, 2))
    assert min(failing_tuples(a, name)) == witness
    verdict = checks._scan(a, name)
    assert verdict.witness.indices == witness
    assert verdict == dense_scan(a, name)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_catalog_passes_the_skew_axiom(field):
    assert all(checks._eps_skew(entry.algebra) for entry in standard_entries(field))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebra_parts((F7, _not_skew)))
def test_scans_on_a_bicharacter_failing_the_skew_axiom_match_the_dense_reference(parts):
    a = ColorHomAlgebra(*parts)
    for name in checks.IDENTITY_ARITY:
        assert checks._scan(a, name) == dense_scan(a, name), name
    for check, fn in COMPOSITES.items():
        assert fn(a) == dense_check(a, check), check
    assert checks.check_right_commutative(a) == dense_scan(a, "right-commutativity")
    bracket = ColorHomAlgebra(a.basis, a.bicharacter, _dense_commutator(a), a.alpha)
    assert checks.check_lie_admissible(a) == dense_check(bracket, "hom_lie")


# ---------------------------------------------------------------------------
# the lists a slice binds


def test_the_mapped_product_binds_the_lists_it_reads():
    assert checks._slice_source("mapped") == "\n".join([
        "def slice_of(target, source=None, f=None, eps_f=None, weight=0, form=None):",
        " columns, eps, n, nn = target.alpha.sparse_columns, target.eps_table, target.dim, target.dim ** 2",
        " by_key, row_entries, col_entries = target.product_index",
        " s_columns = source.alpha.sparse_columns",
        " s_by_key, s_row_entries, s_col_entries = source.product_index",
        " f_columns = f.sparse_columns",
        " def scan_slice(k0):",
        "  r = {}",
        "  for k1, m0, c0 in s_row_entries[k0]:",
        "   b, w = k1 * n, c0",
        "   for m1, c1 in f_columns[m0].items():",
        "    r[q] = r.get(q := b + m1, 0) + w * c1",
        "  return r",
        " return scan_slice",
    ])


@pytest.mark.parametrize("name", [*checks._CONDITIONS, *checks._PRODUCTS])
def test_a_slice_builds_the_inverse_lists_only_where_it_reads_them(name):
    prelude, body = checks._slice_source(name).split(" def scan_slice")
    assert ("f.inverse_lists" in prelude) == ("f_rows" in body)
    assert ("_column_rows(form.gram_rows)" in prelude) == ("g_columns" in body)
