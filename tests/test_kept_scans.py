"""What a check keeps on its algebra: the commutator and each scan's slice, and nothing that refers back to it.

check_lie_admissible builds the commutator of an algebra once and keeps it in
the algebra's instance dict, where the commutator keeps its own index, scans
and passed identities; each identity scan keeps its bound slice by (identity,
whether the identity its _GAINED swap rests on has passed).  A repeated call
must give the verdict of a fresh copy and of the full-tuple oracle, build
nothing twice, and leave equality, hashing and repr as they were.  The
witness sides are compiled at a witness only, so a check that passes
compiles none, and an algebra and its commutator are freed as soon as the
last reference goes, with no help from the cycle collector.
"""

import gc
import weakref

import pytest
import scan_oracle
from hypothesis import HealthCheck, given, settings
from test_product_builder import fresh
from test_scan_bookkeeping import IDENTITY_CHECKS
from test_support_scans import FIELDS, sparse_algebras

from colorhom import checks, core
from colorhom.catalog import standard_entries
from colorhom.scalars import Fp, prime_field, rationals

Q = rationals()
FIELD_NAMES = ("basis", "bicharacter", "product_rows", "alpha", "eps_table")
KEPT = {
    checks._PASSED, checks._SCANS, checks._COMMUTATOR,
    "times-image", "image-times", "product_index", "structure",
}


def assert_kept_commutator_gives_the_fresh_verdict(a):
    commutator = checks._product_algebra("bracket", fresh(a))
    expected = repr(checks.check_hom_lie(commutator))
    assert expected == repr(scan_oracle.scan_check(commutator, "hom_lie"))
    assert repr(checks.check_lie_admissible(a)) == repr(checks.check_lie_admissible(a)) == expected
    assert vars(a)[checks._COMMUTATOR] == commutator


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_kept_commutator_gives_the_verdict_of_a_fresh_one_on_the_catalog(field):
    for entry in standard_entries(field):
        assert_kept_commutator_gives_the_fresh_verdict(entry.algebra)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras())
def test_a_kept_commutator_gives_the_verdict_of_a_fresh_one_on_random_algebras(a):
    assert_kept_commutator_gives_the_fresh_verdict(fresh(a))


def test_the_commutator_is_built_once_per_algebra_object(monkeypatch):
    built, table = [], checks._product_table
    monkeypatch.setattr(checks, "_product_table", lambda name, a, *rest: built.append((name, a)) or table(name, a, *rest))
    algebras = [entry.algebra for entry in standard_entries(prime_field(5))]
    copies = [fresh(a) for a in algebras]
    for a in algebras + copies + algebras + copies:
        checks.check_lie_admissible(a)
    brackets = [a for name, a in built if name == "bracket"]
    assert len(brackets) == len(algebras + copies)
    assert {id(a) for a in brackets} == {id(a) for a in algebras + copies}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_what_a_check_keeps_leaves_equality_hash_and_repr_as_they_were(field):
    for entry in standard_entries(field):
        a = entry.algebra
        checks.check_lie_admissible(a)
        checks.check_hom_novikov(a)
        assert a == fresh(a) and fresh(a) == a
        assert hash(a) == hash(fresh(a))
        assert repr(a) == repr(fresh(a))


def test_an_algebra_keeps_only_the_named_keys_and_none_is_a_field():
    a = next(e.algebra for e in standard_entries(Q) if e.algebra.alpha != core.identity_map(e.algebra.basis))
    a = fresh(a)
    for check in IDENTITY_CHECKS:
        check(a)
    checks._scan(a, "hom-associativity")
    checks.check_lie_admissible(a)
    repr(a)  # builds structure
    assert set(vars(a)) - set(FIELD_NAMES) <= KEPT
    assert {"times-image", "image-times", checks._SCANS, checks._COMMUTATOR} <= set(vars(a))
    assert set(type(a).__match_args__) == set(FIELD_NAMES) and not KEPT & set(FIELD_NAMES)
    assert set(vars(vars(a)[checks._COMMUTATOR])) - set(FIELD_NAMES) <= KEPT


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_check_compiles_the_sides_of_its_witness_identity_only(monkeypatch, field):
    compiled, names = checks._compiled, []
    monkeypatch.setattr(checks, "_compiled", lambda name, *rest: names.append(name) or compiled(name, *rest))
    outcomes = set()
    for entry in standard_entries(field):
        b = fresh(entry.algebra)
        for _ in range(2):  # the second round reads the scans kept on b
            for check in IDENTITY_CHECKS:
                names.clear()
                verdict = check(b)
                assert names == ([] if verdict else [verdict.witness.identity]), (entry.recipe.name, check.__name__)
                outcomes.add(verdict.passes)
    assert outcomes == {True, False}


def test_a_checked_algebra_and_its_commutator_are_freed_with_their_last_reference():
    gc.disable()
    try:
        for field in FIELDS:
            for entry in standard_entries(field):
                b = fresh(entry.algebra)
                for name in checks.IDENTITY_ARITY:
                    checks._scan(b, name)
                checks.check_lie_admissible(b)
                kept = weakref.ref(b), weakref.ref(vars(b)[checks._COMMUTATOR])
                del b
                assert [ref() for ref in kept] == [None, None], (field, entry.recipe.name)
    finally:
        gc.enable()


def test_dense_vector_boxes_no_new_zero(monkeypatch):
    field = prime_field(7)
    field.zero
    made, init = [], Fp.__init__
    monkeypatch.setattr(Fp, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    assert core.dense_vector(field, 4, {2: 3}) == (0, 0, 3, 0)
    assert made == [(3, 7)]
    assert field.zero is field.zero and Q.zero is Q.zero
