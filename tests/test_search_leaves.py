"""What a search builds around its walk: the candidates, the probe, the linear parts and the forcing sides.

search_maps builds each complete candidate, and the zero map its probe runs
the predicate on, unchecked (search._even_map) from the walk's canonical
columns: kernel scalars on even rows, keys ascending, core._EMPTY for an
empty column.  The predicate itself re-checks every one, so a hit must be
the map GradedLinearMap builds from its matrix in every respect a caller can
see, and the predicate must run once on the probe and once per complete
candidate.  The probe runs before the empty value set returns, so bad
arguments raise there too.  linear_conditions is found once per (predicate,
side), after both are checked.  A visit reads the sides _forcing compiles,
which must read the same unset column first and give the (r, slope) that the
sides evaluated term by term (tests/sides_oracle.py), walked over their top
terms, give, so no visit reads a column at a coefficient that cancels to 0.
"""

import copy
import random
from itertools import product as iproduct

import pytest
from test_exact_search import FIELDS, ONE_MAP_PREDICATES, variants
from test_kept_linear_parts import ARGUMENT_ERRORS, Q, graded_searches

import sides_oracle
from colorhom import checks, core, quadratic, search
from colorhom.catalog import OPERATIONS, search_maps, standard_entries, truncated_polynomial
from colorhom.core import GradedLinearMap
from colorhom.errors import StructureError
from colorhom.grading import trivial_bicharacter


def catalog_searches(field):
    return [(entry.algebra, name, given) for entry in standard_entries(field)
            for name, given in variants(list(entry.forms.values()))]


def assert_hits_are_the_maps_of_their_matrices(a, hits):
    for hit in hits:
        built = GradedLinearMap(a.basis, hit.matrix)
        assert type(hit) is GradedLinearMap and hit == built and hash(hit) == hash(built)
        assert repr(hit) == repr(built)
        assert [list(c) for c in hit.sparse_columns] == [list(c) for c in built.sparse_columns]
        assert all(list(c) == sorted(c) for c in hit.sparse_columns)
        assert [c is core._EMPTY for c in hit.sparse_columns] == [not c for c in hit.sparse_columns]
        assert [c is core._EMPTY for c in built.sparse_columns] == [not c for c in hit.sparse_columns]
        assert [type(v) for c in hit.sparse_columns for v in c.values()] == [
            type(v) for c in built.sparse_columns for v in c.values()]


def test_the_graded_hits_are_the_maps_of_their_matrices():
    searches = graded_searches()
    for _, a, name, given in searches:
        hits = search_maps(a, name, **given)
        assert hits
        assert_hits_are_the_maps_of_their_matrices(a, hits)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_catalog_hit_is_the_map_of_its_matrix(field):
    for a, name, given in catalog_searches(field):
        for values in (None, (0, 1)):
            assert_hits_are_the_maps_of_their_matrices(a, search_maps(a, name, values=values, budget=300, **given))


def spied_search(monkeypatch, a, name, given, **options):
    """search_maps with a spy on its resolved predicate and on the candidates built; (hits, calls, built)."""
    op, calls, built = OPERATIONS[name], [], []
    module = {"checks": checks, "quadratic": quadratic}[op.module]
    predicate, even_map = getattr(module, op.function), search._even_map
    at = op.takes.index("map") + (op.adapt is not None)  # an endomorphism predicate takes (a, a, m)

    def spy(*args):
        verdict = predicate(*args)
        calls.append((args[at + 1], bool(verdict)))
        return verdict

    monkeypatch.setattr(module, op.function, spy)
    monkeypatch.setattr(search, "_even_map", lambda basis, columns: built.append(even_map(basis, columns)) or built[-1])
    try:
        hits = search_maps(a, name, **options, **given)
    finally:
        monkeypatch.undo()
    return hits, calls, built


def assert_one_call_per_candidate(hits, calls, built):
    (probe, _), *candidates = calls
    assert probe is built[0] and all(c is core._EMPTY for c in probe.sparse_columns)
    assert [m for m, _ in candidates] == built[1:]
    assert all(m is b for (m, _), b in zip(candidates, built[1:]))
    assert len({m for m, _ in candidates}) == len(candidates)  # no candidate is checked twice
    passed = [m for m, accepted in candidates if accepted]
    assert sorted(map(repr, hits)) == sorted(map(repr, passed)) and all(any(h is m for m in passed) for h in hits)


def test_the_graded_predicates_see_the_probe_then_each_complete_candidate_once(monkeypatch):
    for _, a, name, given in graded_searches():
        budget = given.pop("budget", 10000)
        hits, calls, built = spied_search(monkeypatch, a, name, given, budget=budget)
        assert hits and len(calls) - 1 <= budget
        assert_one_call_per_candidate(hits, calls, built)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_catalog_predicate_sees_the_probe_then_each_complete_candidate_once(monkeypatch, field):
    for a, name, given in catalog_searches(field):
        hits, calls, built = spied_search(monkeypatch, a, name, given, budget=200)
        assert_one_call_per_candidate(hits, calls, built)
        _, calls, built = spied_search(monkeypatch, a, name, given, values=())
        assert len(calls) == len(built) == 1


# ---------------------------------------------------------------------------
# the probe before an empty value set, and the linear parts


EMPTY_VALUE_ERRORS = ARGUMENT_ERRORS + [
    ("centroid", {"side": "bogus"}, "side must be left/right/both, got 'bogus'"),
    ("rota_baxter", {"weight": "x"}, "not a scalar over Q: 'x'"),
    ("symmetric_automorphism", {"form": {}}, "expected a BilinearFormStructure, got dict"),
]


@pytest.mark.parametrize("name, given, message", EMPTY_VALUE_ERRORS, ids=[repr(e[1]) for e in EMPTY_VALUE_ERRORS])
def test_an_empty_value_set_raises_the_argument_errors(name, given, message):
    for a in (truncated_polynomial(3), next(e.algebra for e in standard_entries(Q) if e.forms)):
        with pytest.raises(StructureError) as raised:
            search_maps(a, name, values=(), **given)
        assert str(raised.value) == message


def test_an_empty_value_set_solves_nothing(monkeypatch):
    solved = []
    monkeypatch.setattr(search, "_solve_linear_part", lambda *args: solved.append(args))
    a = copy.copy(truncated_polynomial(3))
    for name, given in variants([]):
        assert search_maps(a, name, values=(), **given) == []
    assert solved == [] and search._SOLVED not in vars(a)


def degree_one_conditions(name, side):
    """The linear part derived from the declarations, without the kept answer."""
    kept = checks._kept(checks.PREDICATE_CONDITIONS[name], side)
    return tuple(c for group in kept for c in group
                 if all(search._f_degree(node) == 1 for terms in checks._CONDITIONS[c][1:] for _, _, node in terms))


def test_linear_conditions_in_search():
    fn = search.linear_conditions
    assert fn.__module__ == search.__name__
    for name in checks.PREDICATE_CONDITIONS:
        for side in ("left", "right", "both"):
            first = fn(name, side)
            assert first == degree_one_conditions(name, side), (name, side)
            assert fn(name, side) is first  # found once per (predicate, side)
    assert fn("derivation") == ("leibniz",)
    for args, message in [(("nope",), "unknown predicate 'nope'"), (("nope", "left"), "unknown predicate 'nope'"),
                          (("centroid", "bogus"), "side must be left/right/both, got 'bogus'"),
                          (("centroid", ["left"]), "side must be left/right/both, got ['left']"),
                          (("centroid", None), "side must be left/right/both, got None")]:
        with pytest.raises(StructureError) as raised:
            fn(*args)
        assert str(raised.value) == message, args


def test_search_instances_keep_the_conditions_beyond_the_linear_part():
    a = truncated_polynomial(3)
    for name in ONE_MAP_PREDICATES:
        for side in ("left", "right", "both"):
            linear = search.linear_conditions(name, side)
            expected = [c for group in checks._groups(checks.PREDICATE_CONDITIONS[name], side) for c in group
                        if c not in linear]
            arities = [arity for _, arity in search.search_instances(name, side, a, {}, 0, None)]
            assert arities == [checks._CONDITIONS[c][0] for c in expected], (name, side)
    with pytest.raises(StructureError, match="side must be"):
        search.search_instances("centroid", ["left"], a, {})


# ---------------------------------------------------------------------------
# the compiled forcing sides against the sides evaluated term by term


def walked(columns, rest, *top):
    """(r, slope) from the kernel's rest and top values, walked as a visit walked them before it was compiled."""
    r, slope = dict(rest), {}
    for y in top:
        for j, c in y.items():
            if j in columns:
                for t, x in columns[j].items():
                    r[t] = r.get(t, 0) + c * x
            elif c:
                slope[j] = slope.get(j, 0) + c
    return r, slope


def nonzero(x: dict) -> dict:
    return {k: v for k, v in x.items() if v}


SEARCHED = [name for name in checks._CONDITIONS
            if any(name in group for p in ONE_MAP_PREDICATES for group in checks.PREDICATE_CONDITIONS[p])
            and name not in {c for p in ONE_MAP_PREDICATES for c in search.linear_conditions(p)}]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_forcing_sides_read_and_give_what_the_term_by_term_sides_do(field):
    assert len(SEARCHED) == 6
    rng = random.Random(40)
    values = [v for v in map(field.kernel_scalar, (1, -1, 2, 3)) if v]
    compared = 0
    for entry in standard_entries(field):
        a = entry.algebra
        n, rows = a.dim, [[k for k in range(a.dim) if a.degrees[k] == a.degrees[i]] for i in range(a.dim)]
        for _ in range(4):
            columns = {}
            for i in rng.sample(range(n), rng.randint(0, n)):
                column = {k: rng.choice(values) for k in rows[i] if rng.random() < 0.6}
                columns[i] = column or core._EMPTY
            f = checks._Images(columns, None, a.group.zero())
            for weight in (0, field.kernel_scalar(-1)):
                scope = (a, a, f, {}, weight, None)
                compared += compare_visits(scope, columns, n)
    assert compared > 100


def compare_visits(scope, columns, n) -> int:
    """Assert that each searched condition's visit at every tuple raises or gives what the walked oracle does.

    Returns the number of tuples whose (r, slope) were compared.
    """
    compared = 0
    for name in SEARCHED:
        compiled, expected = search._forcing(name)(*scope), sides_oracle.forcing_sides(name)(*scope)
        for idx in iproduct(range(n), repeat=checks._CONDITIONS[name][0]):
            try:
                old_r, old_slope = walked(columns, *expected(*idx))
            except KeyError as unset:
                with pytest.raises(KeyError) as raised:
                    compiled(*idx)
                assert raised.value.args == unset.args, (name, idx)
                continue
            r, slope = compiled(*idx)
            assert nonzero(r) == nonzero(old_r), (name, idx)
            assert list(slope.items()) == list(old_slope.items()), (name, idx)
            compared += 1
    return compared


def test_a_visit_reads_no_column_at_a_coefficient_that_cancels():
    """f(e_0)*e_1 = e_0*e_1 + e_1*e_1 = e_2 - e_2 is an exact 0 at e_2, whose column is unset.

    The kernel's sums drop that zero and never read f(e_2).  Nor may a visit:
    an F over the sum inside a term (defect-centrality, operator-right-
    commutativity) reads f's column only at a nonzero coefficient, and an F
    over it at the top of a side (left-averaging, rota-baxter) puts no zero
    coefficient into the slope.
    """
    basis = core.trivial_basis(Q, 3)
    structure = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][1][2], structure[1][1][2] = 1, -1
    a = core.make_algebra(basis, trivial_bicharacter(Q, basis.group), structure, core.identity_map(basis))
    columns = {0: {0: 1, 1: 1}, 1: core._EMPTY}  # f(e_0) = e_0 + e_1, f(e_1) = 0, f(e_2) unset
    scope = (a, a, checks._Images(columns, None, a.group.zero()), {}, 0, None)
    assert compare_visits(scope, columns, 3) > 0
    for name in ("defect-centrality", "operator-right-commutativity", "left-averaging", "rota-baxter"):
        for idx in sorted({(0, 1, z)[:checks._CONDITIONS[name][0]] for z in range(3)}):
            _, slope = search._forcing(name)(*scope)(*idx)  # raises KeyError if it reads f(e_2)
            assert 2 not in slope, (name, idx)
