"""The operator predicates through their public functions, guards included, against the per-tuple oracle.

A predicate call binds its slices with the scope as a plain tuple, reads
the dimension off the stored rows, and its guards compare a basis or a
bicharacter with itself without reading a field.  None of that may change a
verdict, a witness or a guard's error: each predicate must agree by repr
with tests/condition_oracle.py on the catalog's maps and on Hypothesis maps,
also when the two algebras of a morphism are equal objects that are not the
same one, and a map on another basis, an odd map and two algebras that
differ must raise the texts they raised before.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_condition_slices import catalog_maps, homogeneous_maps
from test_support_scans import FIELDS, sparse_algebras

import condition_oracle
from colorhom import checks
from colorhom.catalog import build_entry, standard_entries
from colorhom.core import GradedBasis, GradedLinearMap, identity_map, make_algebra
from colorhom.errors import StructureError
from colorhom.grading import make_bicharacter, trivial_bicharacter
from colorhom.scalars import prime_field, rationals

PREDICATE_CALLS = {
    "weak_morphism": lambda a, f, b=None: checks.is_weak_morphism(a, b or a, f),
    "morphism": lambda a, f, b=None: checks.is_morphism(a, b or a, f),
    "derivation": lambda a, f: checks.is_derivation(a, f),
    "centroid": lambda a, f: checks.is_centroid(a, f),
    "averaging": lambda a, f: checks.is_averaging(a, f),
    "rota_baxter": lambda a, f: checks.is_rota_baxter(a, f, 1),
    "commutes_with_twist": lambda a, f: checks.commutes_with_twist(a, f),
    "bracket_operator_conditions": lambda a, f: checks.check_bracket_operator_conditions(a, f),
}


def expected(name, a, f, b=None):
    if name in ("weak_morphism", "morphism"):
        return condition_oracle.holds(a, b or a, f, checks.PREDICATE_CONDITIONS[name])
    return condition_oracle.predicate(name, a, f, weight=1 if name == "rota_baxter" else 0)


def assert_calls_match_the_oracle(a, maps) -> set:
    seen = set()
    twin = copy.copy(a)  # equal to a, not a: the morphism guards compare their fields
    for f in maps:
        for name, call in PREDICATE_CALLS.items():
            try:
                got = call(a, f)
            except StructureError:
                assert not f.is_even and name != "derivation", (name, f)
                continue
            assert repr(got) == repr(expected(name, a, f)), (name, f)
            if name in ("weak_morphism", "morphism"):
                assert repr(call(a, f, twin)) == repr(expected(name, a, f, twin)) == repr(got), (name, f)
            seen.add(got.witness.identity if got.witness else "pass")
    return seen


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_predicates_match_the_oracle_on_the_catalog(field):
    seen = set()
    for entry in standard_entries(field):
        seen |= assert_calls_match_the_oracle(entry.algebra, catalog_maps(entry))
    assert {"pass", "product-morphism", "leibniz", "left-centroid", "right-averaging", "defect-centrality"} <= seen, seen


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras(), st.data())
def test_the_predicates_match_the_oracle_on_random_maps(a, data):
    maps = [data.draw(homogeneous_maps(a)) for _ in range(3)] + [a.alpha, identity_map(a.basis)]
    assert_calls_match_the_oracle(a, maps)


# ---------------------------------------------------------------------------
# the guards' errors


def graded():
    """z3_graded_nilpotent over F7, a map of degree (1, 0) on its basis, and its basis with one degree moved."""
    a = build_entry("z3_graded_nilpotent", prime_field(7)).algebra
    odd = GradedLinearMap(a.basis, [[0] * a.dim for _ in range(a.dim)], a.group.element((1, 0)))
    degrees = (a.degrees[1], a.degrees[0], *a.degrees[2:])
    return a, odd, GradedBasis(a.basis.field, a.group, degrees)


ODD_MAP_ERRORS = {
    "weak_morphism": "morphism candidate must be even (degree 0)",
    "morphism": "morphism candidate must be even (degree 0)",
    "centroid": "centroid candidate must be even (degree 0)",
    "averaging": "averaging candidate must be even (degree 0)",
    "rota_baxter": "operator must be even (degree 0)",
    "bracket_operator_conditions": "operator must be even (degree 0)",
}

OTHER_BASIS_ERRORS = {
    "weak_morphism": "morphism candidate lives on a different basis",
    "morphism": "morphism candidate lives on a different basis",
    "derivation": "derivation candidate lives on a different basis",
    "centroid": "centroid candidate lives on a different basis",
    "averaging": "averaging candidate lives on a different basis",
    "rota_baxter": "operator lives on a different basis",
    "commutes_with_twist": "composition needs a shared basis",
    "bracket_operator_conditions": "operator lives on a different basis",
}


@pytest.mark.parametrize("name", PREDICATE_CALLS)
def test_an_odd_map_raises_where_it_did(name):
    a, odd, _ = graded()
    if name not in ODD_MAP_ERRORS:  # a derivation may have any degree, and so may a map commuting with alpha
        assert repr(PREDICATE_CALLS[name](a, odd)) == repr(expected(name, a, odd))
        return
    with pytest.raises(StructureError) as raised:
        PREDICATE_CALLS[name](a, odd)
    assert str(raised.value) == ODD_MAP_ERRORS[name]


@pytest.mark.parametrize("name", PREDICATE_CALLS)
def test_a_map_on_another_basis_raises_where_it_did(name):
    a, _, moved = graded()
    q = rationals()
    others = [identity_map(moved), identity_map(GradedBasis(q, a.group, tuple(a.degrees)))]
    equal = identity_map(GradedBasis(a.basis.field, a.group, tuple(a.degrees)))  # equal to a's basis, not it
    assert equal.basis == a.basis and equal.basis is not a.basis
    assert repr(PREDICATE_CALLS[name](a, equal)) == repr(PREDICATE_CALLS[name](a, identity_map(a.basis)))
    for f in others:
        with pytest.raises(StructureError) as raised:
            PREDICATE_CALLS[name](a, f)
        assert str(raised.value) == OTHER_BASIS_ERRORS[name]


@pytest.mark.parametrize("name", ["weak_morphism", "morphism"])
def test_two_algebras_that_differ_raise_where_they_did(name):
    a, _, moved = graded()
    on_moved = make_algebra(moved, a.bicharacter, a.structure, identity_map(moved))
    with pytest.raises(StructureError) as raised:
        PREDICATE_CALLS[name](a, identity_map(a.basis), on_moved)
    assert str(raised.value) == "the two algebras must share a basis"
    trivial = make_algebra(a.basis, trivial_bicharacter(a.basis.field, a.group), a.structure, a.alpha)
    assert trivial.bicharacter != a.bicharacter
    with pytest.raises(StructureError) as raised:
        PREDICATE_CALLS[name](a, identity_map(a.basis), trivial)
    assert str(raised.value) == "the two algebras must share a bicharacter"
    same = make_algebra(a.basis, make_bicharacter(a.basis.field, a.group, a.bicharacter.gen_table), a.structure, a.alpha)
    assert same.bicharacter == a.bicharacter and same.bicharacter is not a.bicharacter
    assert repr(PREDICATE_CALLS[name](a, a.alpha, same)) == repr(expected(name, a, a.alpha, same))
