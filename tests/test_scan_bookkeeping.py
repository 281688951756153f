"""What an identity scan keeps on an algebra, and the zero-slice skip, hide nothing.

A scan keeps in the algebra's instance dict, beside the identities found to
hold and the twisted indexes, its slice bound to the algebra by (identity,
whether the identity its _GAINED swap rests on has passed), compiled over
the canonical slot pairs, which read checks._eps_skew on the algebra's eps
table; checks._first_failure skips a slice whose values are all exact
zeros before it lists the nonzero keys, mod p over F_p.  So a slice of
nonzero multiples of p must still pass, and a check run twice, or hom-Lie
after skew-symmetry has passed (a new canonical key, with the swap the
hom-Jacobi sum gains), must give the verdict of a fresh copy and of the
full-tuple oracle.  F2 is not a field the package accepts, so F3, F5 and
F7 stand for small p.
"""

import pytest
import scan_oracle
from hypothesis import HealthCheck, given, settings
from test_fused_residual import line_in_new_basis
from test_product_builder import fresh
from test_support_scans import COMPOSITES, FIELDS, sparse_algebras

from colorhom import checks
from colorhom.catalog import standard_entries
from colorhom.scalars import prime_field

IDENTITY_CHECKS = [*COMPOSITES.values(), checks.check_right_commutative, checks.check_lie_admissible]


def near_p(a) -> bool:
    """Whether a slice of an identity on a holds a nonzero multiple of p."""
    p = a.field.p
    return any(v and not v % p for name in checks.IDENTITY_ARITY for i in range(a.dim)
               for v in checks._slice(name)(a)(i).values())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(sparse_algebras().filter(lambda a: a.field.p is not None and near_p(a)))
def test_slices_of_multiples_of_p_give_the_oracles_verdicts_on_random_algebras(a):
    b = fresh(a)
    for _ in range(2):  # the second round reads the slices kept on b
        for name in checks.IDENTITY_ARITY:
            assert repr(checks._scan(b, name)) == repr(scan_oracle.scan(a, name)), name


def test_a_slice_of_nonzero_multiples_of_p_passes():
    # over F3 the hom-Jacobi sum of a commutative associative algebra is 3 x*(y*z) = 0,
    # while the kernel's ints in the first slice are 6, 9 and 12
    a = line_in_new_basis(prime_field(3))
    key = ("hom-jacobi", checks._canonical(a, "hom-jacobi"))
    r = checks._slice(key)(a)(0)
    assert r and all(v and v % 3 == 0 for v in r.values())
    assert checks._scan(a, "hom-jacobi") == scan_oracle.scan(a, "hom-jacobi") == checks.PASS
    assert vars(a)[checks._SCANS][("hom-jacobi", False)][0][0](0) == r


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_check_run_twice_gives_the_verdict_of_a_fresh_copy(field):
    for entry in standard_entries(field):
        a = entry.algebra
        for check in IDENTITY_CHECKS:
            first, second = repr(check(a)), repr(check(a))
            assert first == second == repr(check(fresh(a))), (entry.recipe.name, check.__name__)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_hom_lie_after_skew_symmetry_gives_the_verdict_of_a_fresh_copy(field):
    gained = 0
    for entry in standard_entries(field):
        for a in (entry.algebra, checks._product_algebra("bracket", entry.algebra)):
            b = fresh(a)
            before = repr(checks._scan(b, "hom-jacobi"))
            if not checks._scan(b, "skew-symmetry"):
                continue
            after = repr(checks._scan(b, "hom-jacobi"))
            assert before == after == repr(checks.check_hom_lie(fresh(a))) == repr(scan_oracle.scan(a, "hom-jacobi"))
            scans = vars(b)[checks._SCANS]
            assert [key for key in scans if key[0] == "hom-jacobi"] == [("hom-jacobi", False), ("hom-jacobi", True)]
            canonical = checks._canonical(b, "hom-jacobi")
            assert (1, 2) in canonical
            for passed, c in ((False, tuple(x for x in canonical if x != (1, 2))), (True, canonical)):
                kept, compiled = scans["hom-jacobi", passed][0][0], checks._slice(("hom-jacobi", c))(b)
                assert all(kept(i) == compiled(i) for i in range(b.dim))
            gained += 1
    assert gained
