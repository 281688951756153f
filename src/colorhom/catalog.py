"""Deterministic factories for the concrete instances used in tests and suites.

Each entry carries a recipe (name + parameters) and a tuple of claims: the
checks the instance is asserted to pass.  Claims are re-verified by the test
suite, so the catalog certifies itself instead of citing anything.

Everything here is reproducible bit for bit.  search_maps resolves here
from colorhom.search on first use, so no catalog child loads the search.
The catalog verb, which writes one entry as a document, is cmd_catalog.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from . import constructions as cons
from .core import (
    ColorHomAlgebra,
    GradedBasis,
    GradedLinearMap,
    _Columns,
    _algebra_from_cells,
    identity_map,
    make_map,
    scalar_map,
    trivial_basis,
)
from .errors import StructureError, _Record
from .grading import GradeGroup, make_bicharacter, trivial_bicharacter
from .io import serialize_document
from .operations import (
    CHECK,
    CHECKS_BY_NAME,
    CONSTRUCTION,
    OPERATIONS,
    OPTIONAL_ARGUMENTS,
    Operation,
    run_named_check,
)
from .scalars import ScalarField, prime_field, rationals

__all__ = [
    "InstanceRecipe",
    "CatalogEntry",
    "truncated_polynomial",
    "dt_derivation",
    "euler_derivation",
    "unit_projection",
    "scaling_morphism",
    "super_commutative_line",
    "pairing_form",
    "RECIPES",
    "MAX_RECIPE_SIZE",
    "build_entry",
    "standard_entries",
    "CHECK",
    "CONSTRUCTION",
    "Operation",
    "OPERATIONS",
    "OPTIONAL_ARGUMENTS",
    "CHECKS_BY_NAME",
    "run_named_check",
    "search_maps",
]


class InstanceRecipe(_Record):
    """Reproducible identity of a catalog instance.

    params holds sorted (key, value) pairs, values already printable;
    claims names the checks the instance passes.
    """

    __match_args__ = ("name", "field_label", "params", "claims")

    def __init__(self, name: str, field_label: str, params: tuple, claims: tuple):
        vars(self).update(name=name, field_label=field_label, params=params, claims=claims)


class CatalogEntry(_Record):
    """A recipe's instance: its algebra with named maps and forms.  Mutable and unhashable."""

    __match_args__ = ("recipe", "algebra", "maps", "forms")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, recipe: InstanceRecipe, algebra: ColorHomAlgebra, maps: dict | None = None,
                 forms: dict | None = None):
        self.recipe = recipe
        self.algebra = algebra
        self.maps = {} if maps is None else maps
        self.forms = {} if forms is None else forms


# ---------------------------------------------------------------------------
# building blocks

def truncated_polynomial(n: int, field: ScalarField | None = None) -> ColorHomAlgebra:
    """K[t]/(t^n) on basis 1, t, ..., t^(n-1); trivially graded, identity twist."""
    if not isinstance(n, int) or n < 1:
        raise StructureError(f"truncation order must be >= 1, got {n!r}")
    basis = trivial_basis(field or rationals(), n)
    return _monomial_algebra(basis, trivial_bicharacter(basis.field, basis.group))


def _monomial_algebra(basis: GradedBasis, bichar) -> ColorHomAlgebra:
    """e_i * e_j = e_(i+j), truncated at the dimension; identity twist."""
    n = basis.dim
    cells = (((i, j), {i + j: 1}) for i in range(n) for j in range(n - i))
    return _algebra_from_cells(basis, bichar, cells, identity_map(basis))


def dt_derivation(a: ColorHomAlgebra) -> GradedLinearMap:
    """d/dt on a truncated polynomial basis: e_i -> i * e_(i-1).

    Not a derivation of the truncated product unless the characteristic
    divides the truncation order: the quotient kills t^n but not n*t^(n-1).
    """
    return _map_of_entries(a, {(i - 1, i): a.field.from_int(i) for i in range(1, a.dim)})


def euler_derivation(a: ColorHomAlgebra) -> GradedLinearMap:
    """t*d/dt on a truncated polynomial basis: e_i -> i * e_i.

    A genuine derivation of the truncated product in every characteristic,
    since it scales each monomial by its degree and degrees add.
    """
    return _map_of_entries(a, {(i, i): a.field.from_int(i) for i in range(a.dim)})


def unit_projection(a: ColorHomAlgebra) -> GradedLinearMap:
    """Projection onto the span of e_0; an averaging operator when e_0 is a unit."""
    return _map_of_entries(a, {(0, 0): a.field.one})


def scaling_morphism(a: ColorHomAlgebra, c, weights=None) -> GradedLinearMap:
    """diag(c^w_i) for declared integer weights; default weight of e_i is i.

    Whether the result is a (weak) morphism depends on the instance; run
    is_weak_morphism / is_morphism to find out.  c = 0 is allowed and gives
    a non-invertible candidate.
    """
    c = a.field.coerce(c)
    if weights is None:
        weights = tuple(range(a.dim))
    if len(weights) != a.dim:
        raise StructureError(f"need {a.dim} weights")
    return _map_of_entries(a, {(i, i): c ** w for i, w in enumerate(weights)})


def _map_of_entries(a: ColorHomAlgebra, entries: dict) -> GradedLinearMap:
    """The map on a's basis with entry (k, i) = entries[k, i], zero elsewhere."""
    columns = tuple({} for _ in range(a.dim))
    for (k, i), v in entries.items():
        columns[i][k] = v
    return GradedLinearMap(a.basis, _Columns(columns))


def super_commutative_line(field: ScalarField | None = None) -> ColorHomAlgebra:
    """Z_2-graded line K[x]/(x^2), x odd: sign bicharacter, x*x = 0."""
    field = field or rationals()
    group = GradeGroup(0, (2,))
    basis = GradedBasis(field, group, (group.element((0,)), group.element((1,))))
    return _monomial_algebra(basis, make_bicharacter(field, group, ((field.from_int(-1),),)))


def pairing_form(a: ColorHomAlgebra, companion: GradedLinearMap | None = None) -> BilinearFormStructure:
    """Anti-diagonal pairing B(e_i, e_j) = [i + j = dim - 1] on a trivially graded basis."""
    from .quadratic import BilinearFormStructure
    n = a.dim
    gram = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
    return BilinearFormStructure(
        a.basis, gram, companion if companion is not None else identity_map(a.basis)
    )


def _order3_element(field: ScalarField):
    """A deterministic element of multiplicative order 3 in F_p, p = 1 (mod 3)."""
    if field.characteristic == 0 or (field.p - 1) % 3 != 0:
        raise StructureError(
            "an order-3 bicharacter value needs a prime field with p = 1 (mod 3); "
            f"{field} has none"
        )
    e = (field.p - 1) // 3
    for x in range(2, field.p):
        g = pow(x, e, field.p)
        if g != 1:
            return field.from_int(g)
    raise StructureError("no order-3 element found")  # unreachable for valid p


# ---------------------------------------------------------------------------
# recipes: a builder takes the field and parameters, returns (algebra, claims, maps, forms)

# what the truncated polynomials, the super line and the Z3 x Z3 instance pass
_UNITAL_CLAIMS = (
    "epsilon_commutative", "hom_associative", "hom_novikov", "left_symmetric",
    "lie_admissible", "cyclic_commutator_products", "multiplicative",
    "regular", "involutive",
)

def _recipe_truncated_polynomial(field: ScalarField, *, n: int = 3) -> tuple:
    a = truncated_polynomial(n, field)
    maps = {
        "dt": dt_derivation(a),
        "euler": euler_derivation(a),
        "proj_unit": unit_projection(a),
        "scale2": scaling_morphism(a, 2),
        "sign": scaling_morphism(a, -1),
        "half": scalar_map(a.basis, Fraction(1, 2)),
    }
    return a, _UNITAL_CLAIMS, maps, {"pairing": pairing_form(a)}


def _recipe_super_commutative_line(field: ScalarField) -> tuple:
    a = super_commutative_line(field)
    return a, _UNITAL_CLAIMS, {"sign": make_map(a.basis, ((1, 0), (0, -1)))}, {}


def _recipe_euler_novikov(field: ScalarField, *, n: int = 3) -> tuple:
    base = truncated_polynomial(n, field)
    a = cons.derivation_product(base, euler_derivation(base))
    claims = (
        "hom_novikov", "left_symmetric", "lie_admissible",
        "cyclic_commutator_products", "multiplicative", "regular", "involutive",
    )
    return a, claims, {"half": scalar_map(a.basis, Fraction(1, 2))}, {}


def _recipe_scaled_polynomial(field: ScalarField, *, n: int = 3, c=2) -> tuple:
    base = truncated_polynomial(n, field)
    a = cons.yau_twist(base, scaling_morphism(base, c))
    claims = (
        "epsilon_commutative", "hom_associative", "hom_novikov", "left_symmetric",
        "lie_admissible", "cyclic_commutator_products", "multiplicative",
        *(("regular",) if c != 0 else ()), *(("involutive",) if c * c == field.one else ()),
    )
    return a, claims, {}, {}


def _recipe_involutive_quadratic_polynomial(field: ScalarField, *, n: int = 3) -> tuple:
    if n % 2 == 0:
        raise StructureError("the sign twist is form-symmetric only for odd n")
    a, claims, _, _ = _recipe_scaled_polynomial(field, n=n, c=field.from_int(-1))
    return a, claims, {}, {"pairing": pairing_form(a, a.alpha)}


def _recipe_z3_graded_nilpotent(field: ScalarField) -> tuple:
    """Z_3 x Z_3 graded: x*y = eps(x,y) z, y*x = z, everything else zero.

    The bicharacter takes a genuine cube root of unity, so this only exists
    over prime fields with p = 1 (mod 3).
    """
    g = _order3_element(field)
    group = GradeGroup(0, (3, 3))
    one = field.one
    bichar = make_bicharacter(field, group, ((one, g), (one / g, one)))
    degs = (group.element((1, 0)), group.element((0, 1)), group.element((1, 1)))
    basis = GradedBasis(field, group, degs)
    cells = {(0, 1): {2: g}, (1, 0): {2: one}}
    a = _algebra_from_cells(basis, bichar, cells.items(), identity_map(basis))
    return a, _UNITAL_CLAIMS, {}, {}


def _recipe_solvable_bracket(field: ScalarField) -> tuple:
    """The 2-dim solvable bracket [e_0, e_1] = e_1 with identity twist.

    Comes with rb_proj = projection onto e_0, a weight-0 operator making
    [f(x), y] a (left-symmetric) product.
    """
    basis = trivial_basis(field, 2)
    cells = {(0, 1): {1: 1}, (1, 0): {1: -1}}
    a = _algebra_from_cells(basis, trivial_bicharacter(field, basis.group), cells.items(), identity_map(basis))
    claims = (
        "hom_lie", "lie_admissible", "cyclic_commutator_products",
        "multiplicative", "regular", "involutive",
    )
    return a, claims, {"rb_proj": make_map(basis, ((1, 0), (0, 0)))}, {}


def _recipe_zero_algebra(field: ScalarField, *, dim: int = 2) -> tuple:
    basis = trivial_basis(field, dim)
    a = _algebra_from_cells(basis, trivial_bicharacter(field, basis.group), (), identity_map(basis))
    claims = (
        "epsilon_commutative", "hom_associative", "hom_novikov", "left_symmetric",
        "hom_lie", "lie_admissible", "cyclic_commutator_products",
        "multiplicative", "regular", "involutive",
    )
    return a, claims, {}, {}


# the largest n or dim a recipe builds: the gates of scaled_polynomial and
# involutive_quadratic_polynomial grow as about n^3.4 and take about 1 s at
# 64 and 10 s at 128 (over Q and F7, on 2 cores)
MAX_RECIPE_SIZE = 64

RECIPES = {
    "truncated_polynomial": (_recipe_truncated_polynomial, {"n": int}),
    "super_commutative_line": (_recipe_super_commutative_line, {}),
    "euler_novikov": (_recipe_euler_novikov, {"n": int}),
    "scaled_polynomial": (_recipe_scaled_polynomial, {"n": int, "c": "scalar"}),
    "involutive_quadratic_polynomial": (
        _recipe_involutive_quadratic_polynomial, {"n": int},
    ),
    "z3_graded_nilpotent": (_recipe_z3_graded_nilpotent, {}),
    "solvable_bracket": (_recipe_solvable_bracket, {}),
    "zero_algebra": (_recipe_zero_algebra, {"dim": int}),
}


def build_entry(name: str, field: ScalarField, **params) -> CatalogEntry:
    """The recipe's entry, each parameter decoded by its declared type.

    An int parameter (a size: n or dim) must be an int no larger than
    MAX_RECIPE_SIZE; a scalar one is parsed from a string like a document
    scalar and coerced otherwise.  A bool is neither.  A parameter left out
    takes the default of the builder's keyword parameter (every builder
    takes its parameters by keyword after the field), and the recipe
    records every parameter.
    """
    if not isinstance(name, str) or name not in RECIPES:
        raise StructureError(f"unknown recipe {name!r}")
    builder, spec = RECIPES[name]
    unknown = set(params) - set(spec)
    if unknown:
        raise StructureError(f"recipe {name!r} takes no parameter {sorted(unknown)}")
    args = {**(builder.__kwdefaults__ or {}), **params}
    for key, kind in spec.items():
        value = args[key]
        if isinstance(value, bool) or (kind is int and type(value) is not int):
            wanted = "an integer" if kind is int else "a scalar"
            raise StructureError(f"recipe {name!r} parameter {key!r} must be {wanted}, got {value!r}")
        if kind is int and value > MAX_RECIPE_SIZE:
            raise StructureError(
                f"recipe {name!r} parameter {key!r} is {value}, past the size cap {MAX_RECIPE_SIZE}"
            )
        if kind == "scalar":
            args[key] = field.parse(value) if isinstance(value, str) else field.coerce(value)
    algebra, claims, maps, forms = builder(field, **args)
    # scalars print as in a document; sizes stay plain ints, not reduced mod p
    printable = tuple(
        (k, field.to_json(args[k]) if spec[k] == "scalar" else args[k]) for k in sorted(spec)
    )
    return CatalogEntry(InstanceRecipe(name, str(field), printable, claims), algebra, maps, forms)


def standard_entries(field: ScalarField) -> list:
    """The fixed instance battery used by property tests."""
    entries = [
        build_entry("truncated_polynomial", field, n=1),
        build_entry("truncated_polynomial", field, n=2),
        build_entry("truncated_polynomial", field, n=3),
        build_entry("truncated_polynomial", field, n=4),
        build_entry("super_commutative_line", field),
        build_entry("euler_novikov", field, n=2),
        build_entry("euler_novikov", field, n=3),
        build_entry("scaled_polynomial", field, n=3, c=2),
        build_entry("scaled_polynomial", field, n=3, c=-1),
        build_entry("involutive_quadratic_polynomial", field, n=3),
        build_entry("solvable_bracket", field),
        build_entry("zero_algebra", field, dim=2),
    ]
    if field.characteristic != 0 and (field.p - 1) % 3 == 0:
        entries.append(build_entry("z3_graded_nilpotent", field))
    return entries


def _parse_field_label(label) -> ScalarField:
    """The field a label names, Q (or rationals) or F<p>, as the catalog verb and suite recipe rows spell it."""
    if label in ("Q", "rationals"):
        return rationals()
    digits = label[1:] if isinstance(label, str) and label.startswith("F") else ""
    # ten digits already pass the modulus cap; int() raises on a string past 4300 digits
    if digits.isascii() and digits.isdigit() and len(digits) <= 10:
        return prime_field(int(digits))
    raise StructureError(f"unknown field label {label!r} (use Q or F<p>)")


def cmd_catalog(args) -> int:
    """Write the named recipe's entry as a document, to --out or stdout."""
    field = _parse_field_label(args.field)
    # build_entry decodes each parameter by its declared type
    params = {key: value for key in ("n", "dim", "c") if (value := vars(args)[key]) is not None}
    entry = build_entry(args.recipe, field, **params)
    text = serialize_document(entry.algebra, maps=entry.maps, forms=entry.forms)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        if args.format == "machine":
            claims = list(entry.recipe.claims)
            print(json.dumps({"command": "catalog", "recipe": args.recipe, "claims": claims, "out": args.out}, indent=2))
        else:
            print(f"catalog {args.recipe}: OK -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def __getattr__(name):
    if name != "search_maps":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import search
    value = globals()[name] = search.search_maps
    return value
