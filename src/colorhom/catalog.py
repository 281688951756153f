"""Deterministic factories for the concrete instances used in tests and suites.

Each entry carries a recipe (name + parameters) and a tuple of claims: the
checks the instance is asserted to pass.  Claims are re-verified by the test
suite, so the catalog certifies itself instead of citing anything.

Everything here is reproducible bit for bit, search_maps included: it
walks its search tree in one fixed order and draws nothing at random.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from typing import Callable

from . import constructions as cons
from . import quadratic as quad
from .checks import (
    PREDICATE_CONDITIONS,
    Verdict,
    check_bracket_operator_conditions,
    check_cyclic_commutator_products,
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_lie,
    check_hom_novikov,
    check_involutive,
    check_left_symmetric,
    check_lie_admissible,
    check_multiplicative,
    check_regular,
    condition_residual,
    is_averaging,
    is_centroid,
    is_derivation,
    is_morphism,
    is_rota_baxter,
    is_weak_morphism,
    linear_conditions,
)
from .core import (
    ColorHomAlgebra,
    GradedBasis,
    GradedLinearMap,
    _algebra_from_cells,
    _even_map_of_parts,
    _gauss_rank_inverse,
    identity_map,
    make_map,
    scalar_map,
    sparse_product,
    trivial_basis,
)
from .errors import StructureError
from .grading import GradeGroup, make_bicharacter, trivial_bicharacter
from .quadratic import BilinearFormStructure
from .scalars import ScalarField, rationals

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


@dataclass(frozen=True)
class InstanceRecipe:
    """Reproducible identity of a catalog instance."""

    name: str
    field_label: str
    params: tuple  # sorted (key, value) pairs, values already printable
    claims: tuple  # check names the instance passes


@dataclass
class CatalogEntry:
    recipe: InstanceRecipe
    algebra: ColorHomAlgebra
    maps: dict = dc_field(default_factory=dict)
    forms: dict = dc_field(default_factory=dict)


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
    return _algebra_from_cells(
        basis, bichar, lambda i, j: {i + j: 1} if i + j < n else {}, identity_map(basis)
    )


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
    n, zero = a.dim, a.field.zero
    return make_map(a.basis, [[entries.get((k, i), zero) for i in range(n)] for k in range(n)])


def super_commutative_line(field: ScalarField | None = None) -> ColorHomAlgebra:
    """Z_2-graded line K[x]/(x^2), x odd: sign bicharacter, x*x = 0."""
    field = field or rationals()
    group = GradeGroup(0, (2,))
    basis = GradedBasis(field, group, (group.element((0,)), group.element((1,))))
    return _monomial_algebra(basis, make_bicharacter(field, group, ((field.from_int(-1),),)))


def pairing_form(a: ColorHomAlgebra, companion: GradedLinearMap | None = None) -> BilinearFormStructure:
    """Anti-diagonal pairing B(e_i, e_j) = [i + j = dim - 1] on a trivially graded basis."""
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

def _recipe_truncated_polynomial(field: ScalarField, n: int = 3) -> tuple:
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


def _recipe_euler_novikov(field: ScalarField, n: int = 3) -> tuple:
    base = truncated_polynomial(n, field)
    a = cons.derivation_product(base, euler_derivation(base))
    claims = (
        "hom_novikov", "left_symmetric", "lie_admissible",
        "cyclic_commutator_products", "multiplicative", "regular", "involutive",
    )
    return a, claims, {"half": scalar_map(a.basis, Fraction(1, 2))}, {}


def _recipe_scaled_polynomial(field: ScalarField, n: int = 3, c=2) -> tuple:
    base = truncated_polynomial(n, field)
    a = cons.yau_twist(base, scaling_morphism(base, c))
    claims = (
        "epsilon_commutative", "hom_associative", "hom_novikov", "left_symmetric",
        "lie_admissible", "cyclic_commutator_products", "multiplicative",
        *(("regular",) if c != 0 else ()), *(("involutive",) if c * c == field.one else ()),
    )
    return a, claims, {}, {}


def _recipe_involutive_quadratic_polynomial(field: ScalarField, n: int = 3) -> tuple:
    if n % 2 == 0:
        raise StructureError("the sign twist is form-symmetric only for odd n")
    a, claims, _, _ = _recipe_scaled_polynomial(field, n, field.from_int(-1))
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
    a = _algebra_from_cells(basis, bichar, lambda i, j: cells.get((i, j)), identity_map(basis))
    return a, _UNITAL_CLAIMS, {}, {}


def _recipe_solvable_bracket(field: ScalarField) -> tuple:
    """The 2-dim solvable bracket [e_0, e_1] = e_1 with identity twist.

    Comes with rb_proj = projection onto e_0, a weight-0 operator making
    [f(x), y] a (left-symmetric) product.
    """
    basis = trivial_basis(field, 2)
    cells = {(0, 1): {1: 1}, (1, 0): {1: -1}}
    a = _algebra_from_cells(
        basis, trivial_bicharacter(field, basis.group), lambda i, j: cells.get((i, j)),
        identity_map(basis),
    )
    claims = (
        "hom_lie", "lie_admissible", "cyclic_commutator_products",
        "multiplicative", "regular", "involutive",
    )
    return a, claims, {"rb_proj": make_map(basis, ((1, 0), (0, 0)))}, {}


def _recipe_zero_algebra(field: ScalarField, dim: int = 2) -> tuple:
    basis = trivial_basis(field, dim)
    a = _algebra_from_cells(
        basis, trivial_bicharacter(field, basis.group), lambda i, j: {}, identity_map(basis)
    )
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
    takes the builder's default, and the recipe records every parameter.
    """
    if not isinstance(name, str) or name not in RECIPES:
        raise StructureError(f"unknown recipe {name!r}")
    builder, spec = RECIPES[name]
    unknown = set(params) - set(spec)
    if unknown:
        raise StructureError(f"recipe {name!r} takes no parameter {sorted(unknown)}")
    bound = inspect.signature(builder).bind(field, **params)
    bound.apply_defaults()
    args = bound.arguments
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
    algebra, claims, maps, forms = builder(*bound.args)
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


# ---------------------------------------------------------------------------
# named operations: the one table behind the CLI, suites, claims and search

CHECK = "check"
CONSTRUCTION = "construction"


@dataclass(frozen=True)
class Operation:
    """A check or construction addressable by name.

    `takes` names the arguments that follow the algebra, in the order
    `call` receives them, out of "map", "form", "with" (a second algebra),
    "n", "xi", "weight" and "side"; constructions receive `checked` last,
    and those that take a form return (algebra, form).  Each call looks its
    function up by module-global name when it runs, so rebinding that name
    (as the traced benchmark run does) reaches every caller.

    A one-map check is an operator predicate: its conditions, and the
    linear part search_maps solves, are read from its declaration in
    checks.PREDICATE_CONDITIONS under the same name.
    """

    kind: str
    takes: tuple
    call: Callable


def _construction(module, name: str, takes: tuple, gated: bool = True) -> Operation:
    """module.<name> as a construction; a gated one passes `checked` on, the others ignore it."""

    def call(a, *args):
        *args, checked = args
        build = getattr(module, name)
        return build(a, *args, checked=checked) if gated else build(a, *args)

    return Operation(CONSTRUCTION, takes, call)


# arguments an operation may leave out, with the value they then take
OPTIONAL_ARGUMENTS = {"side": "both", "weight": 0}

OPERATIONS = {
    # algebra checks
    "epsilon_commutative": Operation(CHECK, (), lambda a: check_epsilon_commutative(a)),
    "hom_associative": Operation(CHECK, (), lambda a: check_hom_associative(a)),
    "hom_novikov": Operation(CHECK, (), lambda a: check_hom_novikov(a)),
    "left_symmetric": Operation(CHECK, (), lambda a: check_left_symmetric(a)),
    "hom_lie": Operation(CHECK, (), lambda a: check_hom_lie(a)),
    "lie_admissible": Operation(CHECK, (), lambda a: check_lie_admissible(a)),
    "cyclic_commutator_products": Operation(
        CHECK, (), lambda a: check_cyclic_commutator_products(a)
    ),
    "multiplicative": Operation(CHECK, (), lambda a: check_multiplicative(a)),
    "regular": Operation(CHECK, (), lambda a: check_regular(a)),
    "involutive": Operation(CHECK, (), lambda a: check_involutive(a)),
    "quadratic_structure": Operation(
        CHECK, ("form",), lambda a, f: quad.check_quadratic_structure(a, f)
    ),
    # operator predicates
    "weak_morphism": Operation(CHECK, ("map",), lambda a, m: is_weak_morphism(a, a, m)),
    "morphism": Operation(CHECK, ("map",), lambda a, m: is_morphism(a, a, m)),
    "derivation": Operation(CHECK, ("map",), lambda a, m: is_derivation(a, m)),
    "averaging": Operation(CHECK, ("map", "side"), lambda a, m, side: is_averaging(a, m, side)),
    "centroid": Operation(CHECK, ("map", "side"), lambda a, m, side: is_centroid(a, m, side)),
    "rota_baxter": Operation(CHECK, ("map", "weight"), lambda a, m, w: is_rota_baxter(a, m, w)),
    "bracket_operator_conditions": Operation(
        CHECK, ("map",), lambda a, m: check_bracket_operator_conditions(a, m)
    ),
    "symmetric_automorphism": Operation(
        CHECK, ("form", "map"), lambda a, f, m: quad.is_symmetric_automorphism(a, f, m)
    ),
    # constructions
    "yau_twist": _construction(cons, "yau_twist", ("map",)),
    "power_twist": _construction(cons, "power_twist", ("n",)),
    "centroid_twist": _construction(cons, "centroid_twist", ("map",)),
    "xi_square_twist": _construction(cons, "xi_square_twist", ("xi",)),
    "commutator_algebra": _construction(cons, "commutator_algebra", (), gated=False),
    "derivation_product": _construction(cons, "derivation_product", ("map",)),
    "composed_derivation_product": _construction(cons, "composed_derivation_product", ("map",)),
    "averaging_product": _construction(cons, "averaging_product", ("map",)),
    "bracket_operator_product": _construction(cons, "bracket_operator_product", ("map",)),
    "direct_sum": _construction(cons, "direct_sum", ("with",), gated=False),
    "tensor_product": _construction(cons, "tensor_product", ("with",)),
    "untwist_involutive": _construction(cons, "untwist_involutive", ()),
    "regular_lie_untwist": _construction(cons, "regular_lie_untwist", ()),
    "quadratic_yau_twist": _construction(quad, "quadratic_yau_twist", ("form", "map")),
    "quadratic_commutator": _construction(quad, "quadratic_commutator", ("form",)),
    "regular_quadratic_commutator": _construction(quad, "regular_quadratic_commutator", ("form",)),
    "quadratic_untwist_involutive": _construction(quad, "quadratic_untwist_involutive", ("form",)),
}

# the checks that take nothing but the algebra (claims are drawn from these)
CHECKS_BY_NAME = {
    name: op.call for name, op in OPERATIONS.items() if op.kind == CHECK and not op.takes
}


def run_named_check(a: ColorHomAlgebra, name: str) -> Verdict:
    if name not in CHECKS_BY_NAME:
        raise StructureError(f"unknown check {name!r}")
    return CHECKS_BY_NAME[name](a)


# ---------------------------------------------------------------------------
# structure search

def search_maps(
    a: ColorHomAlgebra,
    predicate: str,
    *,
    seed: int = 0,
    budget: int = 10000,
    values=None,
    form: BilinearFormStructure | None = None,
    weight=None,
    side: str = "both",
) -> list:
    """Deterministic backtracking search for even maps satisfying a named predicate.

    The predicate is any check in OPERATIONS that takes exactly one map;
    form, weight and side supply its other arguments, and giving one it
    does not take is a StructureError.  The answer is every
    matrix supported on the even positions (deg e_k = deg e_i), with each
    entry in a small value set (default -1, 0, 1, 2), that satisfies the
    predicate.

    The predicate's linear part (checks.linear_conditions: its declared
    conditions of degree 1 in the map) is solved exactly, which leaves some
    entries free and fixes the rest.  A depth-first search sets the columns
    f(e_0), f(e_1), ... in turn, branching over the values of each column's
    free entries and filling a fixed entry once the free entries it reads
    are set; one outside the values abandons the branch.  If the predicate
    declares a product-morphism condition, each pair f(e_i e_j) =
    f(e_i) f(e_j) is checked once all entries of columns i, j and of the
    support of e_i e_j are set, and a pair that reads exactly one unset
    column forces it unless that column holds or fills a fixed entry: the
    column is set without branching, or the branch is abandoned when it
    leaves the values or the even positions.  Every complete candidate is
    re-checked by the predicate itself.

    budget bounds the leaves of the search tree, complete candidates plus
    abandoned partial assignments, which never outnumber len(values) **
    (free entries); at the bound the search stops and returns the hits found
    so far, the same on every run.  budget must be an int (not a bool).
    seed is not read; it stays for callers that pass it.  Hits come back
    sorted by matrix entries.
    """
    op = OPERATIONS.get(predicate)
    if op is None or op.kind != CHECK or op.takes.count("map") != 1:
        raise StructureError(f"unknown search predicate {predicate!r}")
    if type(budget) is not int:
        raise StructureError(f"search budget must be an integer, got {budget!r}")
    passed = {"form": form is not None, "weight": weight is not None, "side": side != "both"}
    for arg, is_passed in passed.items():
        if is_passed and arg not in op.takes:
            raise StructureError(f"{predicate} search takes no {arg}")
    given = {**OPTIONAL_ARGUMENTS, "form": form, "side": side}
    if weight is not None:
        given["weight"] = weight
    for arg in op.takes:
        if arg != "map" and given.get(arg) is None:
            raise StructureError(f"{predicate} search needs {arg}=...")
    field = a.field
    if values is None:
        values = (-1, 0, 1, 2)
    # distinct values in first-seen order; canon maps a solved entry to its
    # value, and also a reduced kernel scalar, since equal numbers hash alike
    canon = {}
    for v in values:
        v = field.coerce(v)
        canon.setdefault(v, v)
    values = tuple(canon)
    if not values:
        return []
    kernel = {v: field.kernel_scalar(v) for v in (*values, field.one)}
    n, degs, zero = a.dim, a.degrees, field.zero
    positions = [(k, i) for k in range(n) for i in range(n) if degs[k] == degs[i]]

    def candidate(assignment):
        # entries are coerced and on even positions: the map needs no second pass
        rows = [[zero] * n for _ in range(n)]
        columns = [{} for _ in range(n)]
        for (k, i), v in zip(positions, assignment):
            rows[k][i] = v
            if v:
                columns[i][k] = kernel[v]
        return _even_map_of_parts(a.basis, tuple(tuple(r) for r in rows), columns)

    def arguments(m):
        return [m if arg == "map" else given[arg] for arg in op.takes]

    # the zero map meets every linear condition: the predicate on it checks
    # the other arguments before any system is built
    op.call(a, *arguments(candidate((zero,) * len(positions))))
    options = {arg: given[arg] for arg in op.takes if arg in ("weight", "form")}
    linear = linear_conditions(predicate, side)
    free, pivots = _solve_linear_part(a, linear, options, positions, candidate)

    # column i branches over its free positions, then fills the fixed
    # entries whose last free entry lies in column i
    entries = [[] for _ in range(n)]
    for p in free:
        entries[positions[p][1]].append(p)
    ready = [[] for _ in range(n)]
    for p, terms in pivots:
        ready[max((positions[q][1] for q, _ in terms), default=0)].append((p, terms))
    in_column = [[] for _ in range(n)]
    for p, (k, i) in enumerate(positions):
        in_column[i].append((k, p))
    # completed_at[b]: the columns whose last entry branch b sets; a forced
    # column skips its branch, so it must hold and fill no fixed entry
    last, forceable = list(range(n)), [not filled for filled in ready]
    for b, filled in enumerate(ready):
        for p, _ in filled:
            i = positions[p][1]
            last[i], forceable[i] = max(last[i], b), False
    completed_at = [[i for i in range(n) if last[i] == b] for b in range(n)]
    products = any("product-morphism" in group for group in PREDICATE_CONDITIONS[predicate])
    reading = _pairs_by_column(a) if products else None
    reduce = (lambda x: x % field.p) if field.characteristic else (lambda x: x)
    inverse = cache(lambda c: field.kernel_scalar(field.one / field.coerce(c)))

    assignment = [zero] * len(positions)
    # with pairs to check: the sparse kernel column of every set column, and
    # the set columns in the order they were set
    columns = [None] * n
    trail = []
    hits = []
    leaves = 0

    def settle(branch) -> bool:
        """Fill and set what the branch completes, then the columns pairs force; False on a failure."""
        for p, terms in ready[branch]:
            v = canon.get(sum((c * assignment[q] for q, c in terms), zero))
            if v is None:
                return False
            assignment[p] = v
        if reading is None:
            return True
        queue = list(completed_at[branch])
        for i in queue:
            columns[i] = {k: kernel[v] for k, p in in_column[i] if (v := assignment[p])}
        trail.extend(queue)
        while queue:
            for i, j, cell in reading[queue.pop()]:
                if columns[i] is None or columns[j] is None:
                    continue
                unset = [k for k in cell if columns[k] is None]
                # a column that cannot be forced is checked once it is complete
                if len(unset) > 1 or unset and not forceable[unset[0]]:
                    continue
                # f(e_i) f(e_j) minus the cell's terms in set columns
                rest = sparse_product(a, columns[i], columns[j])
                for k, c in cell.items():
                    if columns[k] is not None:
                        for r, x in columns[k].items():
                            rest[r] = rest.get(r, 0) - c * x
                if not unset:
                    if any(reduce(x) for x in rest.values()):
                        return False
                    continue
                k = unset[0]
                scale = inverse(cell[k])
                forced = {}
                for r, p in in_column[k]:
                    v = canon.get(reduce(rest.pop(r, 0) * scale))
                    if v is None:
                        return False
                    assignment[p] = v
                    if v:
                        forced[r] = kernel[v]
                if any(reduce(x) for x in rest.values()):  # off the even positions
                    return False
                columns[k] = forced
                trail.append(k)
                queue.append(k)
        return True

    def descend(column):
        nonlocal leaves
        if column == n:
            leaves += 1
            m = candidate(assignment)
            if op.call(a, *arguments(m)):
                hits.append(m)
            return
        if columns[column] is not None:  # forced
            descend(column + 1)
            return
        for vals in iproduct(values, repeat=len(entries[column])):
            if leaves >= budget:
                return
            for p, v in zip(entries[column], vals):
                assignment[p] = v
            mark = len(trail)
            if settle(column):
                descend(column + 1)
            else:
                leaves += 1
            for k in trail[mark:]:
                columns[k] = None
            del trail[mark:]

    descend(0)
    hits.sort(key=lambda m: tuple(field.sort_key(v) for row in m.matrix for v in row))
    return hits


def _pairs_by_column(a: ColorHomAlgebra) -> list:
    """For each column s, the pairs (i, j, e_i e_j) whose product condition reads f(e_s).

    f(e_i e_j) = f(e_i) f(e_j) reads columns i and j and every column in
    the support of the cell e_i e_j.
    """
    rows = a.product_rows
    out = [[] for _ in range(a.dim)]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            for s in {i, j, *cell}:
                out[s].append((i, j, cell))
    return out


def _solve_linear_part(a: ColorHomAlgebra, linear, options, positions, candidate) -> tuple:
    """The solutions of the linear conditions, over maps on the given positions.

    Returns (free, pivots): free lists the positions left free, ascending;
    pivots lists (position, terms) for each fixed one, where the entry at
    position is the sum of c times the entry at q over (q, c) in terms, each
    q free.  With no linear condition every position is free.
    """
    count = len(positions)
    if not linear:
        return list(range(count)), []
    field = a.field
    zero, one = field.zero, field.one
    # one equation per (condition, tuple, output key): the residual's
    # coefficient there is linear in the entries, read off the unit maps
    equations = {}
    for var in range(count):
        unit = candidate(tuple(one if p == var else zero for p in range(count)))
        for key, c in condition_residual(a, unit, linear, **options).items():
            equations.setdefault(key, {})[var] = c
    rows = dict.fromkeys(tuple(e.get(v, zero) for v in range(count)) for e in equations.values())
    _, _, reduced, pivot_columns = _gauss_rank_inverse(field, list(rows))
    fixed = set(pivot_columns)
    free = [v for v in range(count) if v not in fixed]
    pivots = [
        (p, [(f, -row[f]) for f in free if row[f]])
        for p, row in zip(pivot_columns, reduced)
    ]
    return free, pivots
