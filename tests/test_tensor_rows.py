"""tensor_product stores its rows as it builds them, equal to the rows make_algebra would store.

The product of two even factors on the basis that sums their degree
classes is even by construction, and its keys come out ascending, so
tensor_product skips the cell-by-cell pass of core._stored_rows.  The
reference below is that route: the same cells, row-major, handed to
make_algebra, which converts, sorts and checks each one.  Both must agree
on rows, eps table, alpha, repr and hash for every pair of catalog
algebras that share a grading, and on the tensor products the graded
workload builds.
"""

from math import comb

import pytest
from test_grading_spies import polynomial, twisted_group_algebra

from colorhom import constructions, core
from colorhom.catalog import build_entry, standard_entries
from colorhom.grading import _eps_rows
from colorhom.scalars import prime_field, rationals

FIELDS = [rationals(), prime_field(3), prime_field(5), prime_field(7)]


def reference(s, a):
    """s ⊗ a through make_algebra: (x ⊗ u)(y ⊗ v) = eps(u, y) (x*y) ⊗ (u*v), cells row-major."""
    out = constructions.tensor_product(s, a, checked=False)
    ns, na = s.dim, a.dim
    signs = _eps_rows(s.bicharacter, [d.coords for d in a.degrees], [d.coords for d in s.degrees])
    rs, ra = ([[(j, cell) for j, cell in enumerate(row) if cell] for row in x.product_rows] for x in (s, a))
    cells = (
        ((i * na + p, j * na + q), {
            k * na + r: signs[p][j] * sk * ar for k, sk in s_cell.items() for r, ar in a_cell.items()
        })
        for i in range(ns) for p in range(na) for j, s_cell in rs[i] for q, a_cell in ra[p]
    )
    return core.make_algebra(out.basis, s.bicharacter, core._Cells(cells), out.alpha)


def assert_same(out, ref):
    assert out.product_rows == ref.product_rows
    assert [[list(cell) for cell in row] for row in out.product_rows] == [
        [list(cell) for cell in row] for row in ref.product_rows
    ]
    assert all(type(v) is type(w) for r, t in zip(out.product_rows, ref.product_rows) for c, d in zip(r, t)
               for v, w in zip(c.values(), d.values()))
    assert out.eps_table == ref.eps_table and out.alpha == ref.alpha
    assert out == ref and hash(out) == hash(ref) and repr(out) == repr(ref)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_pair_of_catalog_algebras_with_a_shared_grading(field):
    algebras = [e.algebra for e in standard_entries(field)]
    pairs = [(s, a) for s in algebras for a in algebras
             if (s.group, s.bicharacter) == (a.group, a.bicharacter)]
    assert len(pairs) > len(algebras)
    for s, a in pairs:
        assert_same(constructions.tensor_product(s, a, checked=False), reference(s, a))


def substitution(p):
    """t -> t/(1-t) on K[t]/(t^m): t^k -> sum_j C(k+j-1, j) t^(k+j)."""
    m, field = p.dim, p.field
    rows = [[field.zero] * m for _ in range(m)]
    rows[0][0] = field.one
    for k in range(1, m):
        for j in range(m - k):
            rows[k + j][k] = field.from_int(comb(k + j - 1, j))
    return core.make_map(p.basis, rows)


def test_the_graded_workload_tensor_products():
    z3 = build_entry("z3_graded_nilpotent", prime_field(7)).algebra
    u = {m: constructions.yau_twist(p, substitution(p)) for m in range(2, 8) for p in [polynomial(z3, m)]}
    jobs = [(u[m], z3) for m in range(3, 8)] + [(u[2], twisted_group_algebra(z3))]
    for s, a in jobs:
        out = constructions.tensor_product(s, a)
        assert_same(out, reference(s, a))
        assert out == constructions.tensor_product(s, a, checked=False)
