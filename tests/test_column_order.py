"""The order search_maps numbers the even positions in, and the invariant it gives.

search_maps numbers the even positions latest column first before the
linear part is reduced, so each equation's pivot is its entry in its latest
column, and a fixed entry reads only free entries of its own column or of
earlier ones.  The search fills column i's fixed entries at branch i from
the columns already set, which holds only while that is so.  The tests
record the positions search_maps hands search._solve_linear_part and check
every pivot's terms against them.  A search keeps the linear part it solves
on the algebra object, so each variant searches a cold copy, which solves
its own.
"""

import copy

import pytest
from test_exact_search import FIELDS, MIXING_ALPHA_CASES, variants

from colorhom import search
from colorhom.catalog import search_maps, standard_entries
from colorhom.core import GradedBasis, make_algebra, make_map
from colorhom.grading import GradeGroup, trivial_bicharacter
from colorhom.scalars import prime_field


def solved_parts(monkeypatch, a, name, given):
    """(positions, free, pivots) of each linear part search_maps solves for the variant, on a cold copy of a."""
    solved, solve = [], search._solve_linear_part

    def recording(a, linear, positions, form):
        free, pivots = solve(a, linear, positions, form)
        solved.append((list(positions), free, pivots))
        return free, pivots

    monkeypatch.setattr(search, "_solve_linear_part", recording)
    search_maps(copy.copy(a), name, budget=0, **given)
    return solved


def assert_pivots_read_no_later_column(monkeypatch, a, forms):
    n, degs = a.dim, a.degrees
    even = {(k, i) for k in range(n) for i in range(n) if degs[k] == degs[i]}
    for name, given in variants(forms) + [("rota_baxter", {"weight": -1})]:
        (positions, free, pivots), = solved_parts(monkeypatch, a, name, given)
        assert sorted(positions) == sorted(even), (name, given)
        for p, terms in pivots:
            column = positions[p][1]
            assert all(positions[q][1] <= column for q, _ in terms), (name, given, positions[p])
        assert sorted([*free, *(p for p, _ in pivots)]) == list(range(len(positions))), (name, given)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_each_fixed_entry_reads_no_later_column_on_the_catalog(monkeypatch, field):
    for entry in standard_entries(field):
        assert_pivots_read_no_later_column(monkeypatch, entry.algebra, list(entry.forms.values()))


@pytest.mark.parametrize(
    "p, cells, alpha, predicate, given", MIXING_ALPHA_CASES, ids=["F3", "F5", "F3-rota_baxter-weight-1"]
)
def test_each_fixed_entry_reads_no_later_column_where_alpha_mixes_columns(monkeypatch, p, cells, alpha, predicate,
                                                                         given):
    field = prime_field(p)
    basis = GradedBasis(field, GradeGroup(0), (GradeGroup(0).zero(),) * 3)
    structure = [[[cells.get((i, j), {}).get(k, 0) for k in range(3)] for j in range(3)] for i in range(3)]
    a = make_algebra(basis, trivial_bicharacter(field, basis.group), structure, make_map(basis, alpha))
    (positions, _, pivots), = solved_parts(monkeypatch, a, predicate, given)
    # alpha mixes columns: some fixed entry reads an entry of another column
    assert any(positions[q][1] != positions[p][1] for p, terms in pivots for q, _ in terms)
    assert_pivots_read_no_later_column(monkeypatch, a, [])
