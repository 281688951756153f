"""Exactness and field-law tests for the scalar layer."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from colorhom.errors import StructureError
from colorhom.scalars import Fp, ScalarField, is_prime, prime_field, rationals


def test_is_prime_small_cases():
    primes = [2, 3, 5, 7, 11, 13, 97, 101]
    composites = [0, 1, 4, 6, 9, 15, 91, 100]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(StructureError):
        prime_field(6)
    with pytest.raises(StructureError):
        prime_field(2)  # char 2 breaks the skew-symmetry normalization
    with pytest.raises(StructureError):
        prime_field(2**31 + 11)


def test_fp_canonical_range_and_int_equality():
    f = prime_field(7)
    x = f.from_int(-3)
    assert isinstance(x, Fp)
    assert x.val == 4
    assert x == 4 and x == -3 and x == 11
    assert hash(x) == hash(f.from_int(4))


def test_fp_division_and_negative_powers():
    f = prime_field(7)
    two = f.from_int(2)
    assert two / f.from_int(3) == 3  # 2 * 3^-1 = 2 * 5 = 10 = 3
    assert two ** -1 == 4
    assert two ** 0 == 1
    assert f.zero ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        two / f.zero


def test_fp_rejects_mixed_moduli():
    a = prime_field(5).from_int(1)
    b = prime_field(7).from_int(1)
    with pytest.raises(StructureError):
        a + b


def test_coerce_fraction_into_prime_field():
    f = prime_field(7)
    # 1/2 = 4 mod 7
    assert f.coerce(Fraction(1, 2)) == 4
    # 1/5 has no value mod 5: a malformed scalar, refused like any other
    with pytest.raises(StructureError, match="multiple of 5"):
        prime_field(5).coerce(Fraction(1, 5))


def test_parse_format_round_trip_rationals():
    f = rationals()
    for text in ["0", "-3", "22/7", "-1/2"]:
        v = f.parse(text)
        assert f.parse(f.format(v)) == v
    assert f.to_json(f.parse("4/2")) == 2
    assert f.to_json(f.parse("1/3")) == "1/3"


small_fracs = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(small_fracs, small_fracs, small_fracs)
def test_rational_arithmetic_is_exact(a, b, c):
    assert (a + b) - b == a
    assert (a + b) * c == a * c + b * c
    if b != 0:
        assert (a / b) * b == a


fp_elems = st.integers(min_value=0, max_value=6)


@given(fp_elems, fp_elems, fp_elems)
def test_f7_field_laws(x, y, z):
    f = prime_field(7)
    a, b, c = f.from_int(x), f.from_int(y), f.from_int(z)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == 0
    if b != 0:
        assert (a / b) * b == a


@given(fp_elems)
def test_f7_frobenius_is_identity(x):
    f = prime_field(7)
    a = f.from_int(x)
    assert a ** 7 == a


def test_sort_key_orders_both_fields():
    q = rationals()
    vals = [q.parse(t) for t in ["1/2", "-3", "2", "0"]]
    assert sorted(vals, key=q.sort_key) == [q.parse(t) for t in ["-3", "0", "1/2", "2"]]
    f = prime_field(5)
    vals = [f.from_int(v) for v in [3, 0, 4, 1]]
    assert [v.val for v in sorted(vals, key=f.sort_key)] == [0, 1, 3, 4]


def test_field_labels():
    assert str(rationals()) == "Q"
    assert str(prime_field(11)) == "F11"


_HASHES = (
    "from colorhom.catalog import build_entry\n"
    "from colorhom.scalars import prime_field, rationals\n"
    "print(hash(rationals()), hash(prime_field(7)), hash(build_entry('euler_novikov', rationals(), n=4).algebra))\n"
)


def test_field_and_algebra_hashes_agree_between_processes():
    # string hashes are fixed by the seed; nothing else a field hashes may depend on the process
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join(sys.path)}
    runs = [
        subprocess.run([sys.executable, "-c", _HASHES], capture_output=True, text=True, env=env, timeout=60)
        for _ in range(2)
    ]
    assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.split()) == 3
