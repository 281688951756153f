"""Exact scalar arithmetic: arbitrary-precision rationals and odd prime fields.

Every computation in this package is exact; nothing here ever touches a
float.  Over the rationals the only roots of unity are +1 and -1, so torsion
gradings can only carry sign-valued bicharacters; values of order n need a
prime field with p = 1 (mod n).
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction

from .errors import StructureError, _Record

__all__ = ["Fp", "ScalarField", "rationals", "prime_field", "is_prime"]

RATIONALS = "rationals"
PRIME_FIELD = "prime-field"

# moduli are capped, so trial division is plenty
_MAX_MODULUS = 2**31
# a decimal exponent stays below 10**4: Fraction("1e999999999") would build
# a billion-digit integer
_MAX_EXPONENT_DIGITS = 4


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Fp:
    """Residue mod an odd prime, stored as the canonical representative in [0, p).

    Mixed arithmetic with int coerces the int; any other operand type is
    refused so that accidental field mix-ups fail loudly instead of giving
    silently wrong answers.
    """

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise StructureError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Fp(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Fp(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Fp(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else Fp(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o.__truediv__(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if self.val == 0:
            if n < 0:
                raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
            return Fp(0 if n > 0 else 1, self.p)
        return Fp(pow(self.val, n, self.p), self.p)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return (self.val - other) % self.p == 0
        return NotImplemented

    def __hash__(self):
        # consistent with the canonical int representative
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"Fp({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


class ScalarField(_Record):
    """One of the two supported exact coefficient fields.

    kind is "rationals" (elements: fractions.Fraction) or "prime-field"
    (elements: Fp with a fixed odd prime modulus below 2**31).
    Characteristic 2 is rejected: the bracket and quadratic theory need
    1/2 and -1 distinct from +1.
    """

    __match_args__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        vars(self).update(kind=kind, p=p)
        if kind == RATIONALS:
            if p is not None:
                raise StructureError("rationals take no modulus")
        elif kind == PRIME_FIELD:
            # the cap comes first: it bounds the trial division in is_prime
            if isinstance(p, int) and p >= _MAX_MODULUS:
                raise StructureError(f"modulus {p} too large (cap 2**31)")
            if not isinstance(p, int) or not is_prime(p):
                raise StructureError(f"modulus {p!r} is not prime")
            if p == 2:
                raise StructureError("characteristic 2 is not supported")
        else:
            raise StructureError(f"unknown field kind {kind!r}")

    def __hash__(self):
        # a hash of the fields would read p = None, and hash(None) is not the same in two processes
        return hash((self.kind, self.characteristic))

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONALS else self.p

    @cached_property
    def zero(self):
        # one shared zero per field, made on first read; no Fraction or Fp is changed in place
        return Fraction(0) if self.kind == RATIONALS else Fp(0, self.p)

    @property
    def one(self):
        return Fraction(1) if self.kind == RATIONALS else Fp(1, self.p)

    def from_int(self, n: int):
        return Fraction(n) if self.kind == RATIONALS else Fp(n, self.p)

    def coerce(self, x):
        """Return x as an element of this field, or raise StructureError."""
        if self.kind == RATIONALS:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
        else:
            if isinstance(x, Fp):
                if x.p != self.p:
                    raise StructureError(f"scalar from F_{x.p} used over F_{self.p}")
                return x
            if isinstance(x, int):
                return Fp(x, self.p)
            if isinstance(x, Fraction):
                # exact: n/d -> n * d^{-1} mod p, which needs d prime to p
                if x.denominator % self.p == 0:
                    raise StructureError(f"{x} has no value over {self}: its denominator is a multiple of {self.p}")
                return Fp(x.numerator, self.p) / Fp(x.denominator, self.p)
        raise StructureError(f"not a scalar over {self}: {x!r}")

    def kernel_scalar(self, x):
        """x as the sparse kernel stores it: a plain Python number.

        Over Q an int when x is integral, else a Fraction (int/Fraction
        arithmetic stays exact); over F_p the residue in [0, p) as an int.
        The kernel only multiplies, adds and drops exact zeros, so over F_p
        its sums grow past p and are reduced lazily; coerce boxes a kernel
        scalar back into a field element.
        """
        if type(x) is int:  # the kernel's own scalars come back as ints
            return x if self.kind == RATIONALS else x % self.p
        x = self.coerce(x)
        if self.kind == RATIONALS:
            return x.numerator if x.denominator == 1 else x
        return x.val

    def parse(self, text):
        """Parse an int, or a string "n" or "n/d", into a field element; a bool is neither."""
        if isinstance(text, int) and not isinstance(text, bool):
            return self.from_int(text)
        if isinstance(text, str):
            _, marker, exponent = text.lower().partition("e")
            if marker and len(exponent.strip().lstrip("+-")) > _MAX_EXPONENT_DIGITS:
                raise StructureError(f"bad scalar literal {text!r}: exponent too long")
            try:
                q = Fraction(text.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise StructureError(f"bad scalar literal {text!r}: {exc}") from None
            return self.coerce(q)
        raise StructureError(f"bad scalar literal {text!r}")

    def format(self, x) -> str:
        return str(self.coerce(x))

    def to_json(self, x):
        """Canonical JSON value: a plain int when integral, else "n/d".

        Kernel ints and this field's own elements are converted directly;
        anything else is coerced first.
        """
        if type(x) is int:
            return x if self.kind == RATIONALS else x % self.p
        if self.kind == RATIONALS:
            if type(x) is not Fraction:
                x = self.coerce(x)
            return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        if type(x) is not Fp or x.p != self.p:
            x = self.coerce(x)
        return x.val

    def sort_key(self, x):
        x = self.coerce(x)
        if self.kind == RATIONALS:
            return (x.numerator, x.denominator)
        return (x.val, 1)

    def __str__(self):
        return "Q" if self.kind == RATIONALS else f"F{self.p}"


def rationals() -> ScalarField:
    return ScalarField(RATIONALS)


def prime_field(p: int) -> ScalarField:
    return ScalarField(PRIME_FIELD, p)
