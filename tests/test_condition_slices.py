"""Operator predicates and quadratic clauses on their slices, against the per-tuple oracle.

Every declared condition runs as slices (checks._slice): one dict of left -
right per index of its first slot, scattered from the nonzero contributions
of its terms, with f read through its columns and inverse lists and the
form through its sparse Gram rows.  The tests compare, by repr, the verdict
and witness of every predicate of checks.PREDICATE_CONDITIONS (each side,
Rota-Baxter weights 0, 1 and -1), check_quadratic_structure and
in_alpha_center with tests/condition_oracle.py, which calls the sides at
every tuple: on the catalog over Q, F3, F5 and F7, on Hypothesis algebras
with constants just below p, maps of nonzero degree (the F0 factor) and
random forms, and on the bracket-operator corpus.  The spy test counts
the calls of the compiled sides: they run at the witness tuple alone, so no
predicate evaluates them at every tuple.
"""

from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_linear_part import near_p_algebra
from test_support_scans import FIELDS, _values, defect_free_case, sparse_algebras

import condition_oracle
from colorhom import checks, core, quadratic
from colorhom.catalog import OPERATIONS, standard_entries
from colorhom.checks import PREDICATE_CONDITIONS
from colorhom.core import GradedLinearMap, compose_maps, identity_map, scalar_map
from colorhom.errors import StructureError
from colorhom.quadratic import BilinearFormStructure


def public(name, a, f, side="both", weight=0, form=None):
    """The predicate through its public function."""
    if name == "commutes_with_twist":
        return checks.commutes_with_twist(a, f)
    given = {"map": f, "side": side, "weight": weight, "form": form}
    op = OPERATIONS[name]
    return op.call(a, *(given[t] for t in op.takes))


def variants(name, forms):
    """The (side, weight, form) each predicate is asked with."""
    if name in ("averaging", "centroid"):
        return [(side, 0, None) for side in ("left", "right", "both")]
    if name == "rota_baxter":
        return [("both", w, None) for w in (0, 1, -1)]
    if name == "symmetric_automorphism":
        return [("both", 0, form) for form in forms]
    return [("both", 0, None)]


def assert_predicates_match_the_oracle(a, maps, forms=()):
    """Every predicate on every map, and the quadratic clauses on every form; returns the outcomes seen."""
    seen = set()
    for f in maps:
        for name in PREDICATE_CONDITIONS:
            for side, weight, form in variants(name, forms):
                try:
                    got = public(name, a, f, side, weight, form)
                except StructureError:
                    continue  # a guard refused the arguments: the oracle has none
                expected = condition_oracle.predicate(name, a, f, side, weight, form)
                assert repr(got) == repr(expected), (name, side, weight, f, form)
                seen.add(got.witness.identity if got.witness else "pass")
    for form in forms:
        got = quadratic.check_quadratic_structure(a, form)
        assert repr(got) == repr(condition_oracle.quadratic_structure(a, form)), form
        seen.add(got.witness.identity if got.witness else "pass")
    return seen


def catalog_maps(entry):
    a = entry.algebra
    basis = a.basis
    maps = [a.alpha, identity_map(basis), scalar_map(basis, 2), scalar_map(basis, 0), *entry.maps.values()]
    maps += [compose_maps(m, m) for m in maps]
    return maps + [form.companion for form in entry.forms.values()]


def vectors(a):
    n, field = a.dim, a.field
    out = [core.unit_vector(field, n, i) for i in range(n)] + [core.zero_vector(field, n)]
    return out + [tuple(field.coerce(sum(range(i + 1))) for i in range(n))]


def catalog_forms(entry):
    """The entry's forms, each also with every even map as companion and with B(e_0, e_0) moved by one."""
    out = []
    for form in entry.forms.values():
        out.append(form)
        out += [BilinearFormStructure(form.basis, form.gram, m) for m in catalog_maps(entry) if m.is_even]
        gram = [list(row) for row in form.gram]
        gram[0][0] += 1
        out.append(BilinearFormStructure(form.basis, gram, form.companion, require_even=False))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_predicates_match_the_oracle_on_the_catalog(field):
    seen = set()
    for entry in standard_entries(field):
        a = entry.algebra
        seen |= assert_predicates_match_the_oracle(a, catalog_maps(entry), catalog_forms(entry))
        for x in vectors(a):
            assert checks.in_alpha_center(a, x) == condition_oracle.in_alpha_center(a, x)
    # the degree-2 conditions, the form clauses and the passing case are all reached
    reached = {"product-morphism", "leibniz", "left-averaging", "right-averaging", "left-centroid",
               "right-centroid", "rota-baxter", "defect-centrality", "b-symmetry", "invariance", "pass"}
    assert reached <= seen, reached - seen


# ---------------------------------------------------------------------------
# Hypothesis algebras: maps of any degree, eps-symmetric forms


@st.composite
def homogeneous_maps(draw, a):
    """A map of a degree drawn from the group, entries where deg e_k = deg e_i + degree."""
    field, degs = a.field, a.degrees
    elements = [a.group.element(c) for c in iproduct(*(range(m) for m in a.group.torsion_orders))]
    degree = draw(st.sampled_from(elements))
    value = st.sampled_from((0, 0) + _values(field))
    rows = [
        [field.coerce(draw(value)) if degs[k] == degs[i] + degree else field.zero for i in range(a.dim)]
        for k in range(a.dim)
    ]
    return GradedLinearMap(a.basis, rows, degree)


@st.composite
def symmetric_forms(draw, a, companion):
    """An even form made eps-symmetric, G[i][j] + eps(i, j) G[j][i], or left as drawn."""
    field, degs, n = a.field, a.degrees, a.dim
    value = st.sampled_from((0,) + _values(field))
    g = [[field.coerce(draw(value)) if (degs[i] + degs[j]).is_zero else field.zero for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        g = [[g[i][j] + a.eps(degs[i], degs[j]) * g[j][i] for j in range(n)] for i in range(n)]
    return BilinearFormStructure(a.basis, g, companion)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras(), st.data())
def test_predicates_match_the_oracle_on_random_algebras(a, data):
    maps = [data.draw(homogeneous_maps(a)) for _ in range(3)] + [a.alpha, identity_map(a.basis)]
    even = [m for m in maps if m.is_even]
    forms = [data.draw(symmetric_forms(a, data.draw(st.sampled_from(even)))) for _ in range(2)]
    assert_predicates_match_the_oracle(a, maps, forms)
    value = st.sampled_from((0,) + _values(a.field)).map(a.field.coerce)
    for _ in range(3):
        x = tuple(data.draw(value) for _ in range(a.dim))
        assert checks.in_alpha_center(a, x) == condition_oracle.in_alpha_center(a, x)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_constants_summing_to_multiples_of_p_match_the_oracle(p):
    a, form = near_p_algebra(p)
    maps = [a.alpha, identity_map(a.basis), form.companion, core.make_map(a.basis, [[p - 1, 1, 0], [1, 1, 0], [0, 0, p + 1]])]
    maps += [compose_maps(m, a.alpha) for m in maps]
    seen = assert_predicates_match_the_oracle(a, maps, [form])
    assert "pass" in seen and len(seen) > 1, seen


def test_the_bracket_operator_corpus_matches_the_oracle():
    for seed in range(1200):
        l, f = defect_free_case(seed)
        got = checks.check_bracket_operator_conditions(l, f)
        assert repr(got) == repr(condition_oracle.bracket_operator_conditions(l, f)), seed


def test_defect_centrality_fails_where_the_oracle_does():
    # alpha = id on K[t]/(t^3) over Q: f = e0 -> e1 makes the defect f(e0)*f(e0) = -e2 nonzero
    # at (0, 0), and [-e2, alpha(e0)] = -e2 != 0 at (0, 0, 0)
    entry = next(e for e in standard_entries(FIELDS[0]) if e.algebra.dim == 3)
    a = entry.algebra
    f = core.make_map(a.basis, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    got = checks.check_bracket_operator_conditions(a, f)
    assert got.witness.identity == "defect-centrality"
    assert repr(got) == repr(condition_oracle.bracket_operator_conditions(a, f))


# ---------------------------------------------------------------------------
# no pass over every tuple, and the sides at the witness only


def test_no_predicate_walks_every_tuple_and_the_sides_run_at_the_witness(monkeypatch):
    compiled, calls = checks._compiled, []

    def counted(name, basis=True):
        factory = compiled(name, basis)
        return lambda *scope: (lambda *idx: calls.append(idx) or factory(*scope)(*idx))

    monkeypatch.setattr(checks, "_compiled", counted)
    outcomes = set()
    for field in FIELDS:
        for entry in standard_entries(field):
            a, forms = entry.algebra, list(entry.forms.values())
            runs = [lambda f=f, v=v, name=name: public(name, a, f, *v)
                    for f in catalog_maps(entry) for name in PREDICATE_CONDITIONS for v in variants(name, forms)]
            runs += [lambda form=form: quadratic.check_quadratic_structure(a, form) for form in forms]
            for run in runs:
                calls.clear()
                try:
                    verdict = run()
                except StructureError:
                    continue
                witness = verdict.witness
                assert set(calls) == (set() if verdict or not witness.indices else {witness.indices})
                outcomes.add(verdict.passes)
            for x in vectors(a):
                calls.clear()
                checks.in_alpha_center(a, x)
                assert len(set(calls)) <= 1
    assert outcomes == {True, False}
