"""What a search keeps on its algebra: the solved linear part, laid out by column, and nothing that refers back.

search_maps solves a predicate's linear part once per algebra object and
keeps it in the algebra's instance dict under search._SOLVED, keyed by
(linear_conditions(predicate, side), form), beside the scans the checks
keep there.  Predicates with the same linear part share one entry.  A
repeated search must find the hits of the first and of a cold copy, solve
nothing again, and raise every argument error as the first call did, since
the zero-map probe runs before the key is built.  The entry holds lists
and tuples of ints and kernel scalars alone, so a searched algebra is freed with its last
reference, with no help from the cycle collector.
"""

import copy
import gc
import importlib.util
import sys
import typing
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from test_exact_search import FIELDS, variants

from colorhom import catalog, search
from colorhom.catalog import search_maps, standard_entries
from colorhom.errors import StructureError
from colorhom.quadratic import BilinearFormStructure
from colorhom.scalars import prime_field, rationals
from colorhom.search import linear_conditions

Q = rationals()
VALUE_SETS = [None, (0, 1)]
WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def graded_searches():
    """(key, algebra, predicate, keyword arguments) of each search_maps job of the graded_dense_f7 benchmark pool."""
    spec = importlib.util.spec_from_file_location("graded_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass reads sys.modules
    spec.loader.exec_module(workloads)
    jobs = [job for job in workloads.graded_dense_f7(None) if job.func == "search_maps"]
    assert len(jobs) == 11
    return [(job.key, *job.args, job.kwargs) for job in jobs]


def catalog_searches(field):
    """(label, algebra, predicate, keyword arguments) of every one-map predicate variant on the catalog over field."""
    return [
        (f"{i}:{entry.recipe.name},{name},{given}", entry.algebra, name, given)
        for i, entry in enumerate(standard_entries(field)) for name, given in variants(list(entry.forms.values()))
    ]


def assert_first_repeated_and_copied_hits_agree(searches):
    """Hits on a cold algebra, again on it once every search has run there, and on a cold copy per search, agree."""
    cold = {id(a): copy.copy(a) for _, a, _, _ in searches}
    first = {}
    for label, a, name, given in searches:
        for values in VALUE_SETS:
            first[label, values] = search_maps(cold[id(a)], name, values=values, **given)
    for label, a, name, given in searches:
        for values in VALUE_SETS:
            again = search_maps(cold[id(a)], name, values=values, **given)
            copied = search_maps(copy.copy(a), name, values=values, **given)
            assert again == first[label, values] == copied, (label, values)
    assert all(search._SOLVED in vars(b) for b in cold.values())


def test_the_graded_searches_find_the_same_hits_first_again_and_on_a_copy():
    assert_first_repeated_and_copied_hits_agree(graded_searches())


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_one_map_search_finds_the_same_hits_first_again_and_on_a_copy(field):
    assert_first_repeated_and_copied_hits_agree(catalog_searches(field))


@pytest.mark.parametrize("field", [Q, prime_field(5)], ids=str)
def test_each_linear_part_is_solved_once_per_algebra_object(monkeypatch, field):
    solved, solve = [], search._solve_linear_part
    monkeypatch.setattr(search, "_solve_linear_part", lambda a, linear, positions, form: solved.append(
        (id(a), linear, form)) or solve(a, linear, positions, form))
    for entry in standard_entries(field):
        a, keys = copy.copy(entry.algebra), set()
        for budget in (0, 50, 10000):
            for values in VALUE_SETS:
                for name, given in variants(list(entry.forms.values())):
                    search_maps(a, name, budget=budget, values=values, **given)
                    keys.add((linear_conditions(name, given.get("side", "both")), given.get("form")))
        assert sorted(solved, key=repr) == sorted([(id(a), *key) for key in keys], key=repr), entry.recipe.name
        assert set(vars(a)[search._SOLVED]) == keys
        # averaging, rota_baxter and bracket_operator_conditions share twist-commutation
        assert len(keys) < len(variants(list(entry.forms.values())))
        solved.clear()
        b = copy.copy(a)
        search_maps(b, "rota_baxter", weight=1)
        search_maps(b, "averaging", side="left")
        assert solved == [(id(b), ("twist-commutation",), None)], entry.recipe.name
        solved.clear()


def kernel_data(x, field) -> bool:
    """Whether x is built of lists, tuples, ints and kernel scalars of field alone."""
    if type(x) in (list, tuple):
        return all(kernel_data(y, field) for y in x)
    return type(x) is int or (field.p is None and type(x) is Fraction)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_kept_entry_holds_ints_and_kernel_scalars_alone(field):
    for entry in standard_entries(field):
        a = copy.copy(entry.algebra)
        for name, given in variants(list(entry.forms.values())):
            search_maps(a, name, budget=0, **given)
        for (linear, form), layout in vars(a)[search._SOLVED].items():
            assert all(type(c) is str for c in linear) and (form is None or type(form) is BilinearFormStructure)
            assert kernel_data(layout, field), (entry.recipe.name, linear)


def test_a_searched_algebra_is_freed_with_its_last_reference():
    gc.disable()
    try:
        for field in FIELDS:
            for entry in standard_entries(field):
                b = copy.copy(entry.algebra)
                for name, given in variants(list(entry.forms.values())):
                    search_maps(b, name, budget=200, **given)
                assert vars(b)[search._SOLVED]
                kept = weakref.ref(b)
                del b
                assert kept() is None, (field, entry.recipe.name)
    finally:
        gc.enable()


ARGUMENT_ERRORS = [
    ("rota_baxter", {"weight": 1.0}, "not a scalar over Q: 1.0"),
    ("rota_baxter", {"weight": [1]}, "not a scalar over Q: [1]"),
    ("centroid", {"side": ["left"]}, "side must be left/right/both, got ['left']"),
    ("symmetric_automorphism", {"form": {}}, "expected a BilinearFormStructure, got dict"),
    ("derivation", {"budget": True}, "search budget must be an integer, got True"),
]


@pytest.mark.parametrize("name, given, message", ARGUMENT_ERRORS, ids=[repr(e[1]) for e in ARGUMENT_ERRORS])
def test_a_repeated_search_raises_the_argument_errors_of_the_first(name, given, message):
    a = copy.copy(next(e.algebra for e in standard_entries(Q) if e.forms))
    search_maps(a, "rota_baxter", weight=1)  # weight 1 hashes as 1.0 does
    for b in (a, a, copy.copy(a)):
        with pytest.raises(StructureError) as raised:
            search_maps(b, name, **given)
        assert str(raised.value) == message


def test_the_type_hints_of_search_maps_resolve():
    for function in (catalog.search_maps, search.search_maps):
        hints = typing.get_type_hints(function)
        assert hints["form"] == BilinearFormStructure | None
        assert hints["a"].__name__ == "ColorHomAlgebra" and hints["return"] is list
