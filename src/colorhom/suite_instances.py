"""Single source of truth for the instance documents shipped with the
builtin theorem suite.

The JSON files under suites/instances/ are generated from here and checked
in; a test re-serializes every instance and compares bytes, so the shipped
files cannot drift from the code.  Regenerate with

    python -m colorhom.suite_instances
"""

from __future__ import annotations

from pathlib import Path

from .catalog import build_entry, euler_derivation, scaling_morphism, truncated_polynomial
from .core import _algebra_from_cells, _cells
from .io import serialize_document
from .scalars import prime_field, rationals


def _from_entry(name, field, **params):
    entry = build_entry(name, field, **params)
    return entry.algebra, entry.maps, entry.forms


def _poly3_scaled():
    """tp(3) structure carrying alpha = (t -> 2t); the twist slot is the
    morphism the composed derivation product composes with."""
    plain = truncated_polynomial(3, rationals())
    alpha = scaling_morphism(plain, 2)
    a = _algebra_from_cells(plain.basis, plain.bicharacter, _cells(plain), alpha)
    return a, {"euler": euler_derivation(a)}, {}


def instance_documents() -> dict:
    """name -> canonical serialized document text."""
    q = rationals()
    f5 = prime_field(5)
    builders = {
        "poly2": lambda: _from_entry("truncated_polynomial", q, n=2),
        "poly3": lambda: _from_entry("truncated_polynomial", q, n=3),
        "poly5_f5": lambda: _from_entry("truncated_polynomial", f5, n=5),
        "euler2": lambda: _from_entry("euler_novikov", q, n=2),
        "euler3": lambda: _from_entry("euler_novikov", q, n=3),
        "superline": lambda: _from_entry("super_commutative_line", q),
        "solvable": lambda: _from_entry("solvable_bracket", q),
        "scaledpoly3_2": lambda: _from_entry("scaled_polynomial", q, n=3, c=2),
        "invquad3": lambda: _from_entry("involutive_quadratic_polynomial", q, n=3),
        "poly3_scaled": _poly3_scaled,
    }
    out = {}
    for name, build in builders.items():
        algebra, maps, forms = build()
        out[name] = serialize_document(algebra, maps=maps, forms=forms)
    return out


def write_instances(directory: str | Path) -> list:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in sorted(instance_documents().items()):
        path = directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    target = Path(__file__).parent / "suites" / "instances"
    for p in write_instances(target):
        print(p)
