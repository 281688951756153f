"""Copy and pickle give an algebra its fields, and not what its checks keep.

A check keeps the product index, the twisted indexes, the passed identities,
each scan's slice and the commutator in the algebra's instance dict, a
search keeps its solved linear parts there, and a slice is a closure, which
does not pickle.  ColorHomAlgebra.__reduce__ carries the five fields alone,
so pickle, copy.copy and copy.deepcopy give an equal, hash-equal algebra
whose instance dict holds those fields and nothing else, and a check or a
search of it gives the original's verdict, witness or hits.  The
caches a basis, a bicharacter and a map keep are plain data, and a copy of
one carries them as before; the last test pins which.
"""

import copy
import pickle

import pytest
from test_exact_search import variants
from test_support_scans import FIELDS

from colorhom import checks, search
from colorhom.catalog import build_entry, search_maps, standard_entries
from colorhom.core import ColorHomAlgebra
from colorhom.operations import CHECKS_BY_NAME, run_named_check
from colorhom.scalars import prime_field

FIELD_NAMES = ["basis", "bicharacter", "product_rows", "alpha", "eps_table"]
ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def assert_round_trips_give_the_fields(a, check):
    """Each round trip of a gives an equal, hash-equal algebra of its fields alone, on which check gives a's verdict."""
    expected = repr(check(a))
    for how, round_trip in ROUND_TRIPS.items():
        b = round_trip(a)
        assert type(b) is ColorHomAlgebra and b == a and hash(b) == hash(a), how
        assert list(vars(b)) == FIELD_NAMES, how
        assert repr(check(b)) == expected, how


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_checked_algebra_copies_and_pickles_as_its_fields(field):
    for entry in standard_entries(field):
        a = entry.algebra
        for name in CHECKS_BY_NAME:
            assert_round_trips_give_the_fields(a, lambda x: run_named_check(x, name))
        assert_round_trips_give_the_fields(a, checks.check_lie_admissible)
        assert checks._SCANS in vars(a) and checks._COMMUTATOR in vars(a)  # the original keeps what it kept


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_searched_algebra_copies_and_pickles_as_its_fields(field):
    for entry in standard_entries(field):
        a = copy.copy(entry.algebra)
        for name, given in variants(list(entry.forms.values())):
            assert_round_trips_give_the_fields(a, lambda x: search_maps(x, name, budget=200, **given))
        assert search._SOLVED in vars(a)  # the original keeps what it kept


def test_a_basis_bicharacter_and_map_copy_with_their_caches():
    a = build_entry("scaled_polynomial", prime_field(7), n=3, c=2).algebra  # alpha is not the identity
    checks.check_lie_admissible(a)
    checks.check_hom_novikov(a)
    kept = {
        "GradedBasis": (a.basis, ["field", "group", "degrees", "degree_classes", "class_sums"]),
        "Bicharacter": (a.bicharacter, ["field", "group", "gen_table", "eps_terms", "valid"]),
        "GradedLinearMap": (a.alpha, ["basis", "sparse_columns", "degree", "inverse_lists"]),
    }
    for name, (x, keys) in kept.items():
        assert type(x).__name__ == name and sorted(vars(x)) == sorted(keys), name
        for how, round_trip in ROUND_TRIPS.items():
            y = round_trip(x)
            assert y == x and hash(y) == hash(x), (name, how)
            assert sorted(vars(y)) == sorted(keys), (name, how)
