"""The product index a slice scan reads, and the witness a slice yields.

core.ProductIndex lists the nonzero terms of the products by output key,
and alpha's nonzero entries by row; the slice functions (checks._slice)
loop over these lists only.  A slice holds left - right at every key a
contribution reached, and contributions can cancel, so the witness is the
tuple of the least nonzero key (mod p over F_p), not of the least key.
"""

from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from test_sparse_kernel import dense_scan
from test_support_scans import ALPHA, DIRECTED, FIELDS, _algebra, sparse_algebras

from colorhom import checks, core
from colorhom.catalog import standard_entries
from colorhom.core import make_algebra
from colorhom.grading import trivial_bicharacter
from colorhom.scalars import prime_field, rationals

# ---------------------------------------------------------------------------
# the product index


def assert_index_lists_the_nonzeros(a):
    rows, n = a.product_rows, a.dim
    x = a.product_index
    assert x.by_key == tuple(
        [(p, q, rows[p][q][m]) for p, q in iproduct(range(n), repeat=2) if m in rows[p][q]] for m in range(n)
    )
    columns = a.alpha.sparse_columns
    assert x.alpha_rows == tuple([(r, columns[r][t]) for r in range(n) if t in columns[r]] for t in range(n))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_product_index_lists_every_nonzero_on_the_catalog(field):
    for entry in standard_entries(field):
        assert_index_lists_the_nonzeros(entry.algebra)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras())
def test_the_product_index_lists_every_nonzero_on_random_algebras(a):
    assert_index_lists_the_nonzeros(a)


# ---------------------------------------------------------------------------
# cancelling contributions before the witness
#
# Right-commutativity (x*y)*alpha(z) = (x*z)*alpha(y) on dimension 3, trivial
# grading, alpha the identity.  At (0, 0, 0) its two terms are equal, so the
# slice of 0 reaches a key there whose value is 0.


def _cells_algebra(field, cells):
    basis = core.trivial_basis(field, 3)
    structure = [[[field.zero] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), cell in cells.items():
        for k, c in cell.items():
            structure[i][j][k] = field.coerce(c)
    return make_algebra(basis, trivial_bicharacter(field, basis.group), structure, core.identity_map(basis))


def slice_values(a, name, i):
    """{(i, j, k): [value at each output key]} of one slice, in key order."""
    n, out = a.dim, {}
    for key, value in sorted(checks._slice(name)(a)(i).items()):
        out.setdefault((i, *divmod(key // n, n)), []).append(value)
    return out


CANCELLING = {
    # e0e0 = e1, e1e0 = e2, e1e1 = e2: (e0e0)e0 - (e0e0)e0 = 0 at (0, 0, 0),
    # and (e0e0)e1 = e2 against (e0e1)e0 = 0 at (0, 0, 1)
    "Q": (rationals(), {(0, 0): {1: 1}, (1, 0): {2: 1}, (1, 1): {2: 1}}, (0, 0, 1), [[0]]),
    # over F5, also (e0e0)e1 = 3e2 against (e0e1)e0 = 4e1e0 = 8e2 at
    # (0, 0, 1): the kernel's int value is -5, zero mod 5; e0e2 = e2 and
    # e2e0 = e0 make (0, 0, 2) the witness
    "F5": (
        prime_field(5),
        {(0, 0): {1: 1}, (1, 1): {2: 3}, (0, 1): {1: 4}, (1, 0): {2: 2}, (0, 2): {2: 1}, (2, 0): {0: 1}},
        (0, 0, 2), [[0], [-5]],
    ),
}


@pytest.mark.parametrize("case", CANCELLING)
def test_the_witness_is_the_least_nonzero_key_not_the_least_key_reached(case):
    field, cells, witness, before = CANCELLING[case]
    a = _cells_algebra(field, cells)
    name = "right-commutativity"
    values = slice_values(a, name, 0)
    # the slice reaches tuples before the witness, and their values are zero (mod p)
    assert [v for idx, v in values.items() if idx < witness] == before
    verdict = checks._scan(a, name)
    assert verdict.witness.indices == witness
    assert repr(verdict) == repr(dense_scan(a, name))


# ---------------------------------------------------------------------------
# a scan computes the slices up to its witness only


@pytest.mark.parametrize("case", [c for c in DIRECTED if DIRECTED[c][3][0] > 0])
def test_a_scan_failing_in_a_later_slice_computes_the_slices_up_to_it(monkeypatch, case):
    products, name, _, indices, _, _ = DIRECTED[case]
    a = _algebra(products, ALPHA.get(case))
    asked, original = [], checks._slice
    monkeypatch.setattr(checks, "_slice", lambda name: lambda a: lambda i: asked.append(i) or original(name)(a)(i))
    assert checks._scan(a, name).witness.indices == indices
    assert asked == list(range(indices[0] + 1))
