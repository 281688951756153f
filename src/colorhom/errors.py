"""Exception types shared across the package."""

from __future__ import annotations

from operator import attrgetter

__all__ = ["StructureError", "SingularMapError", "HypothesisError"]


class StructureError(ValueError):
    """Ill-formed input: dimension mismatch, bad degree, invalid parameter.

    Distinct from a mathematical check failing.  The CLI maps this to exit
    status 2, never to 1.
    """

    def __init__(self, message: str, *, indices=None):
        super().__init__(message)
        self.indices = indices


class SingularMapError(StructureError):
    """A map that must be invertible is singular."""


class HypothesisError(Exception):
    """A construction's stated hypothesis failed its check.

    Carries the violated requirement name and, when one exists, the failing
    Verdict.  The CLI maps this to exit status 1.
    """

    def __init__(self, op: str, requirement: str, verdict=None, detail: str = ""):
        self.op = op
        self.requirement = requirement
        self.verdict = verdict
        self.detail = detail
        msg = f"{op}: hypothesis '{requirement}' failed"
        if detail:
            msg += f" ({detail})"
        witness = getattr(verdict, "witness", None)
        if witness is not None:
            msg += f" [witness: {witness.identity} at {witness.indices}]"
        super().__init__(msg)


class _Record:
    """Equality, hash, repr and frozen fields for a value class, read off its __match_args__.

    A subclass names its fields in __match_args__ and writes its own
    __init__, which stores each field as an instance attribute through
    object.__setattr__ or vars(self).  Two instances of
    one class are equal when their field tuples are, the hash is the hash of
    that tuple, and the repr lists the fields by name, as a frozen dataclass
    gives them.  Assignment and deletion raise AttributeError; cached_property
    and vars(x) write the instance dict and keep working.
    """

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other is self:  # a guard's usual case, a basis or bicharacter against itself: no field is read
            return True
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields(self)))
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
