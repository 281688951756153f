"""search_maps against brute force, its budget, and the linearity of its linear parts.

search_maps solves each predicate's linear part (the conditions of degree
1 in the map among its declarations in checks.PREDICATE_CONDITIONS) and
backtracks over the solutions, so its answer must equal running the
predicate on every even matrix over the value set (tests/search_oracle.py)
whenever the leaves of its search tree fit the budget.  Every other
declared condition is checked at each tuple as soon as the columns it reads
are set, and forces the one unset column it reads when it reads it only
through terms f(y) at the top of a side, so the searches of weak morphisms,
morphisms, averaging and Rota-Baxter operators and the bracket operator
conditions stay exact far past the budget that would cover every matrix.
The guard at the end makes a condition taken as linear by mistake fail a
test instead of silently losing hits.
"""

import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from linear_oracle import condition_residual
from search_oracle import brute_force_search, candidates, even_positions, sampled_search

from colorhom import checks, search
from colorhom.catalog import (
    CHECK,
    OPERATIONS,
    build_entry,
    search_maps,
    standard_entries,
    truncated_polynomial,
)
from colorhom.checks import PREDICATE_CONDITIONS, is_weak_morphism, linear_conditions
from colorhom.core import GradedBasis, identity_map, make_algebra, make_map
from colorhom.errors import StructureError
from colorhom.grading import GradeGroup, make_bicharacter, trivial_bicharacter
from colorhom.quadratic import BilinearFormStructure
from colorhom.scalars import Fp, prime_field, rationals

Q = rationals()
F3, F5, F7 = prime_field(3), prime_field(5), prime_field(7)
FIELDS = [Q, F3, F5, F7]

# the largest number of even matrices brute force runs through per value set
RAW_SPACE_CAP = 3 ** 9

ONE_MAP_PREDICATES = [
    name for name, op in OPERATIONS.items() if op.kind == CHECK and op.takes.count("map") == 1
]


def variants(forms, sides=("left", "right", "both")):
    """(predicate, arguments) for every one-map predicate: each side, weights 0 and 1, each form."""
    out = []
    for name in ONE_MAP_PREDICATES:
        takes = OPERATIONS[name].takes
        if "side" in takes:
            out += [(name, {"side": s}) for s in sides]
        elif "weight" in takes:
            out += [(name, {"weight": w}) for w in (0, 1)]
        elif "form" in takes:
            out += [(name, {"form": f}) for f in forms]
        else:
            out.append((name, {}))
    assert {name for name, _ in out} >= set(ONE_MAP_PREDICATES) - {"symmetric_automorphism"}
    return out


def assert_search_is_brute_force(a, values, forms, constrained_only=False):
    """search_maps equals brute force for every variant, at a budget that lets both see every matrix.

    With constrained_only, only side "both" runs, and variants whose linear
    part constrains no entry on this algebra are left out, to bound the time
    of a 3^9 brute force: test_search_is_brute_force_at_the_default_budget
    covers those of truncated_polynomial(3) over Q, the smaller entries cover
    the rest, and weak_morphism and morphism run against brute force on
    truncated_polynomial(3) over F5 below.
    """
    raw = len(set(a.field.coerce(v) for v in values)) ** len(even_positions(a))
    maps = candidates(a, values)
    for name, given in variants(forms, ("both",) if constrained_only else ("left", "right", "both")):
        if constrained_only and not constrains(a, name, given):
            continue
        expected = [m.matrix for m in brute_force_search(a, name, maps, **given)]
        found = search_maps(a, name, values=values, budget=raw, **given)
        assert [m.matrix for m in found] == expected, (name, given, values)


def constrains(a, name, given):
    if not linear_conditions(name, given.get("side", "both")):
        return False
    units = []
    for k, i in even_positions(a):
        rows = [[a.field.zero] * a.dim for _ in range(a.dim)]
        rows[k][i] = a.field.one
        units.append(make_map(a.basis, rows))
    return any(_residual(a, name, unit, given) for unit in units)


def _label(entry):
    return f"{entry.recipe.name}{dict(entry.recipe.params)}"


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_search_is_brute_force_on_the_catalog(field):
    """Every entry with at most RAW_SPACE_CAP matrices per value set.

    A 3^9 brute force costs several seconds per entry and field, so the
    nine-position entries run it with (-1, 0, 1) in the next test instead.
    """
    for entry in standard_entries(field):
        a = entry.algebra
        positions = len(even_positions(a))
        for values in ((0, 1), (-1, 0, 1)):
            if len(values) ** positions > RAW_SPACE_CAP or (len(values) == 3 and positions == 9):
                continue
            assert_search_is_brute_force(a, values, entry.forms.values())


# each nine-position entry once with (-1, 0, 1), over a field of its own
NINE_POSITION_CASES = [
    (F3, "truncated_polynomial", {"n": 3}),
    (Q, "euler_novikov", {"n": 3}),
    (F7, "scaled_polynomial", {"n": 3, "c": 2}),
    (F5, "scaled_polynomial", {"n": 3, "c": -1}),
    (Q, "involutive_quadratic_polynomial", {"n": 3}),
]


@pytest.mark.parametrize(
    "field, recipe, params", NINE_POSITION_CASES, ids=[f"{f}-{r}" for f, r, _ in NINE_POSITION_CASES]
)
def test_search_is_brute_force_on_nine_positions_with_three_values(field, recipe, params):
    """Side "both" and the variants whose linear part constrains something.

    The one-sided variants and the plain enumerations run on every smaller
    entry above and with (0, 1); a 3^9 brute force costs about a second per
    variant.
    """
    entry = build_entry(recipe, field, **params)
    assert len(even_positions(entry.algebra)) == 9
    assert_search_is_brute_force(entry.algebra, (-1, 0, 1), entry.forms.values(), constrained_only=True)


def test_the_nine_position_cases_are_the_nine_position_entries():
    for field in FIELDS:
        names = [e.recipe.name for e in standard_entries(field) if len(even_positions(e.algebra)) == 9]
        assert sorted(names) == sorted(r for _, r, _ in NINE_POSITION_CASES), field


# ---------------------------------------------------------------------------
# random algebras


def _z2_sign(field):
    g = GradeGroup(0, (2,))
    return g, make_bicharacter(field, g, ((field.from_int(-1),),))


def _z3z3_cube_root(field):
    # 2 is a primitive cube root of unity in F7, and 4 = 2^-1
    g = GradeGroup(0, (3, 3))
    return g, make_bicharacter(field, g, ((field.one, field.from_int(2)), (field.from_int(4), field.one)))


def _trivial(field):
    g = GradeGroup(0)
    return g, trivial_bicharacter(field, g)


GRADINGS = [(f, grading) for f in FIELDS for grading in (_trivial, _z2_sign)] + [(F7, _z3z3_cube_root)]


@st.composite
def algebras(draw):
    """dim <= 3, trivial, Z2 or Z3 x Z3 graded, with identity or random even alpha."""
    field, grading = draw(st.sampled_from(GRADINGS))
    group, bichar = grading(field)
    n = draw(st.integers(1, 3))
    elements = [group.element(c) for c in iproduct(*(range(m) for m in group.torsion_orders))]
    degrees = tuple(draw(st.sampled_from(elements)) for _ in range(n))
    basis = GradedBasis(field, group, degrees)
    value = st.sampled_from((0, 0, 1, -1, 2))
    structure = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in iproduct(range(n), repeat=3):
        if degrees[k] == degrees[i] + degrees[j]:
            structure[i][j][k] = field.from_int(draw(value))
    alpha = identity_map(basis)
    if draw(st.booleans()):
        alpha = make_map(basis, random_even(draw, basis))
    return make_algebra(basis, bichar, structure, alpha)


def random_even(draw, basis, values=(0, 0, 1, -1, 2, 3)):
    n, degs = basis.dim, basis.degrees
    return [
        [basis.field.from_int(draw(st.sampled_from(values))) if degs[k] == degs[i] else basis.field.zero
         for i in range(n)]
        for k in range(n)
    ]


def even_form(a):
    """B = 1 on every pair of basis vectors whose degrees cancel, identity companion."""
    n, degs = a.dim, a.degrees
    gram = [[int((degs[i] + degs[j]).is_zero) for j in range(n)] for i in range(n)]
    return BilinearFormStructure(a.basis, gram, identity_map(a.basis))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras())
def test_search_is_brute_force_on_random_algebras(a):
    positions = len(even_positions(a))
    values = (-1, 0, 1) if 3 ** positions <= 3 ** 5 else (0, 1)
    assert_search_is_brute_force(a, values, [even_form(a)])


# ---------------------------------------------------------------------------
# the search past its budget, the budget as a bound, and the meaning of values


@cache
def tp3_f5_brute_force():
    """truncated_polynomial(3, F5) and its (weak) morphisms over (-1, 0, 1), from all 3^9 matrices."""
    a = truncated_polynomial(3, F5)
    maps = candidates(a, (-1, 0, 1))
    return a, {name: [m.matrix for m in brute_force_search(a, name, maps)] for name in ("weak_morphism", "morphism")}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("budget", [40, 300, 1000])
def test_weak_morphism_search_is_brute_force_past_the_budget(seed, budget):
    # 3^9 matrices, but fewer than 100 leaves in the search tree: budgets 300
    # and 1000 see them all, 40 cuts the search short.  The seed shuffles the
    # order of the values, which sets the branch order but not the sorted hits
    a, expected = tp3_f5_brute_force()
    expected = expected["weak_morphism"]
    values = tuple(random.Random(seed).sample((-1, 0, 1), 3))
    found = [m.matrix for m in search_maps(a, "weak_morphism", budget=budget, values=values)]
    if budget >= 100:
        assert found == expected
    else:
        assert found == [m.matrix for m in search_maps(a, "weak_morphism", budget=budget, values=values)]
        assert set(found) < set(expected)


def test_morphism_search_is_brute_force_at_a_budget_covering_every_matrix():
    # alpha is the identity, so the linear part fixes nothing
    a, expected = tp3_f5_brute_force()
    found = search_maps(a, "morphism", values=(-1, 0, 1), budget=3 ** 9)
    assert [m.matrix for m in found] == expected["morphism"]


def test_morphism_search_is_brute_force_at_the_default_budget():
    # the linear part fixes nothing, and the product pairs prune and force as
    # for weak morphisms; a search that only checks leaves stops after 10^4 of
    # the 3^9 matrices
    a, expected = tp3_f5_brute_force()
    found = search_maps(a, "morphism", values=(-1, 0, 1))
    assert len(expected["morphism"]) == 10
    assert [m.matrix for m in found] == expected["morphism"]


# 3-dimensional algebras over F_p: (p, {(i, j): {k: c}}, alpha's rows,
# predicate, arguments).  alpha mixes columns, so twist compatibility (twist
# commutation for Rota-Baxter, here of weight -1) ties entries of two
# columns; numbered latest column first, the linear part fixes the later
# column's entry, and the search forces columns that hold a fixed entry
# (15, 9 and 4 times), which must lose no hit
MIXING_ALPHA_CASES = [
    (3, {(1, 0): {0: 1}, (1, 1): {1: 1, 2: -1}}, ((1, 0, 1), (0, 1, 2), (0, 0, -1)), "morphism", {}),
    (5, {(0, 0): {2: -1}, (0, 1): {0: 1, 1: 1}, (1, 1): {1: -1, 2: 2}, (1, 2): {1: 1}}, ((0, 0, 2), (0, 0, 0), (0, 0, -1)),
     "morphism", {}),
    (3, {(0, 0): {1: -1, 0: 1}, (1, 1): {0: -1}, (1, 2): {0: 1, 2: 2}, (2, 0): {1: -1}, (2, 2): {1: 2, 0: 2}},
     ((0, 0, 0), (0, 1, 1), (0, 2, 2)), "rota_baxter", {"weight": -1}),
]


@pytest.mark.parametrize(
    "p, cells, alpha, predicate, given", MIXING_ALPHA_CASES, ids=["F3", "F5", "F3-rota_baxter-weight-1"]
)
def test_the_search_matches_brute_force_where_forced_columns_hold_fixed_entries(p, cells, alpha, predicate, given):
    field = prime_field(p)
    basis = GradedBasis(field, GradeGroup(0), (GradeGroup(0).zero(),) * 3)
    structure = [[[cells.get((i, j), {}).get(k, 0) for k in range(3)] for j in range(3)] for i in range(3)]
    a = make_algebra(basis, trivial_bicharacter(field, basis.group), structure, make_map(basis, alpha))
    expected = [m.matrix for m in brute_force_search(a, predicate, candidates(a, (-1, 0, 1)), **given)]
    found = search_maps(a, predicate, values=(-1, 0, 1), budget=3 ** 9, **given)
    assert expected  # a forced column that lost a hit would show against these
    assert [m.matrix for m in found] == expected


# the predicates with a condition beyond the linear part that the linear part
# leaves wholly to the search when alpha is the identity
OPERATOR_VARIANTS = [
    ("averaging", {"side": "left"}), ("averaging", {"side": "right"}), ("averaging", {"side": "both"}),
    ("rota_baxter", {"weight": 0}), ("rota_baxter", {"weight": 1}), ("rota_baxter", {"weight": -1}),
    ("bracket_operator_conditions", {}),
]


@cache
def tp3_q_candidates():
    a = truncated_polynomial(3)
    return a, candidates(a, (-1, 0, 1))


@pytest.mark.parametrize(
    "predicate, given", OPERATOR_VARIANTS, ids=[f"{p}{list(g.values())}" for p, g in OPERATOR_VARIANTS]
)
def test_search_is_brute_force_at_the_default_budget(predicate, given):
    # alpha is the identity, so twist commutation fixes nothing: 3^9 matrices
    # against a budget of 10^4 leaves, which checking only complete
    # candidates would exhaust after a lexicographic prefix
    a, maps = tp3_q_candidates()
    expected = [m.matrix for m in brute_force_search(a, predicate, maps, **given)]
    assert [m.matrix for m in search_maps(a, predicate, values=(-1, 0, 1), **given)] == expected


def test_operator_searches_over_q_find_every_hit_with_the_default_values():
    # the counts of an exhaustive search (budget 4^9) of truncated_polynomial(3) over Q
    a = truncated_polynomial(3)
    assert len(search_maps(a, "averaging")) == 187
    assert len(search_maps(a, "rota_baxter", weight=0)) == 20


# which searched conditions may force a column: those with a term f(y) at the top of a side
MAY_FORCE = {
    "product-morphism": True, "left-averaging": True, "right-averaging": True, "rota-baxter": True,
    "defect-centrality": False, "operator-right-commutativity": False,
}


def test_which_conditions_may_force_is_read_off_their_declarations():
    searched = {name for p in ONE_MAP_PREDICATES for group in PREDICATE_CONDITIONS[p] for name in group}
    searched -= {name for p in ONE_MAP_PREDICATES for name in linear_conditions(p)}
    assert searched == set(MAY_FORCE)
    assert {name: bool(search._split(name)[1]) for name in MAY_FORCE} == MAY_FORCE


def _reads_f0(node) -> bool:
    if type(node) is checks.F and node.x == 0:
        return True
    return type(node) is not int and any(map(_reads_f0, node))


def test_every_searched_condition_reads_f_of_x0_first():
    # search_maps visits a condition's tuples with x_0 = e_k once it sets
    # column k, so each one it searches must read f(x_0) before any other column
    entry = build_entry("involutive_quadratic_polynomial", Q, n=3)
    a, form = entry.algebra, next(iter(entry.forms.values()))
    for p in ONE_MAP_PREDICATES:
        for side in ("left", "right", "both"):
            linear = linear_conditions(p, side)
            searched = [name for group in checks._groups(PREDICATE_CONDITIONS[p], side)
                        for name in group if name not in linear]
            for name in searched:
                _, left, right = checks._CONDITIONS[name]
                assert any(_reads_f0(node) for _, _, node in left + right), (p, side, name)
            instances = search.search_instances(p, side, a, {}, 1, form)
            assert [arity for _, arity in instances] == [checks._CONDITIONS[name][0] for name in searched]
            for sides, arity in instances:
                for idx in iproduct(range(a.dim), repeat=arity):
                    with pytest.raises(KeyError) as unset:
                        sides(*idx)
                    assert unset.value.args == (idx[0],), (p, side, idx)


def test_a_budget_zero_search_at_dimension_64_builds_nothing_per_tuple():
    # the bracket operator search has two 3-slot conditions, 2 * 64^3 tuples
    # at dimension 64; none is built or visited before the first branch
    a = truncated_polynomial(64)
    tracemalloc.start()
    try:
        found = search_maps(a, "bracket_operator_conditions", budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == []
    assert peak < 16 * 2 ** 20


def test_a_budget_below_the_leaf_count_returns_a_deterministic_prefix():
    # the search tree has fewer than 100 leaves here: complete candidates
    # plus the partial assignments a failing pair or forced column abandons
    a, expected = tp3_f5_brute_force()
    expected = expected["weak_morphism"]
    previous = []
    for budget in range(101):
        found = [m.matrix for m in search_maps(a, "weak_morphism", values=(-1, 0, 1), budget=budget)]
        again = search_maps(a, "weak_morphism", values=(-1, 0, 1), budget=budget)
        assert [m.matrix for m in again] == found, budget
        assert set(previous) <= set(found) <= set(expected), budget
        assert found == sorted(found, key=lambda m: tuple(F5.sort_key(v) for row in m for v in row))
        previous = found
    assert found == expected
    assert search_maps(a, "weak_morphism", values=(-1, 0, 1), budget=0) == []


# the condition names of each one-map predicate's derived linear part, per side
LINEAR_PARTS = {
    ("derivation", "both"): ("leibniz",),
    ("centroid", "left"): ("twist-commutation", "left-centroid"),
    ("centroid", "right"): ("twist-commutation", "right-centroid"),
    ("centroid", "both"): ("twist-commutation", "left-centroid", "right-centroid"),
    ("averaging", "left"): ("twist-commutation",),
    ("averaging", "right"): ("twist-commutation",),
    ("averaging", "both"): ("twist-commutation",),
    ("rota_baxter", "both"): ("twist-commutation",),
    ("bracket_operator_conditions", "both"): ("twist-commutation",),
    ("morphism", "both"): ("twist-compatibility",),
    ("symmetric_automorphism", "both"): ("twist-compatibility", "b-symmetry"),
    ("weak_morphism", "both"): (),
}


def test_the_derived_linear_parts_and_which_search_forces_products():
    assert {name for name, _ in LINEAR_PARTS} == set(ONE_MAP_PREDICATES)
    sided = {name for name, side in LINEAR_PARTS if side != "both"}
    assert sided == {name for name in ONE_MAP_PREDICATES if "side" in OPERATIONS[name].takes}
    for (name, side), expected in LINEAR_PARTS.items():
        assert linear_conditions(name, side) == expected, (name, side)
    # the predicates that declare a product-morphism condition
    declares_products = {
        name for name, groups in PREDICATE_CONDITIONS.items() if any("product-morphism" in g for g in groups)
    }
    assert declares_products == {"weak_morphism", "morphism", "symmetric_automorphism"}


@pytest.mark.parametrize("budget", [None, 2.5, "10", True, False, Fraction(3)])
def test_a_budget_that_is_not_an_int_is_a_structure_error(budget):
    a = truncated_polynomial(2)
    with pytest.raises(StructureError, match="budget"):
        search_maps(a, "derivation", budget=budget)


@pytest.mark.parametrize(
    "predicate, given",
    [
        ("derivation", {"weight": "junk"}),
        ("derivation", {"side": "nonsense"}),
        ("derivation", {"form": object()}),
        ("derivation", {"side": "left"}),
        ("weak_morphism", {"weight": 0}),
        ("averaging", {"weight": 1}),
        ("rota_baxter", {"side": "right"}),
        ("rota_baxter", {"form": object()}),
    ],
    ids=lambda x: x if isinstance(x, str) else ",".join(x),
)
def test_an_argument_the_predicate_does_not_take_is_a_structure_error(predicate, given):
    a = truncated_polynomial(2)
    arg = next(iter(given))
    with pytest.raises(StructureError, match=f"{predicate} search takes no {arg}"):
        search_maps(a, predicate, **given)


def test_the_default_arguments_are_accepted_by_every_predicate():
    a = truncated_polynomial(2)
    assert len(search_maps(a, "derivation", side="both", weight=None, form=None)) == 4


def test_a_negative_budget_finds_nothing():
    a = truncated_polynomial(2)
    assert search_maps(a, "derivation", budget=-1) == []
    assert search_maps(a, "weak_morphism", budget=-5) == []


# weak morphisms over Q with the default values, identity included
WEAK_MORPHISM_COUNTS = [
    ("truncated_polynomial", {"n": 3}, 13),
    ("euler_novikov", {"n": 3}, 9),
    ("scaled_polynomial", {"n": 3, "c": 2}, 4),
    ("scaled_polynomial", {"n": 3, "c": -1}, 4),
    ("involutive_quadratic_polynomial", {"n": 3}, 4),
    ("truncated_polynomial", {"n": 4}, 33),
]


@pytest.mark.parametrize(
    "recipe, params, count", WEAK_MORPHISM_COUNTS,
    ids=[f"{r}{dict(p)}" for r, p, _ in WEAK_MORPHISM_COUNTS],
)
def test_weak_morphism_search_over_q_finds_every_hit_at_the_default_budget(recipe, params, count):
    a = build_entry(recipe, Q, **params).algebra
    hits = search_maps(a, "weak_morphism")
    assert len(hits) == count
    assert identity_map(a.basis).matrix in [m.matrix for m in hits]
    for m in hits:
        assert is_weak_morphism(a, a, m), m.matrix


def test_weak_morphism_search_matches_the_sampler_when_exhaustive():
    a = build_entry("super_commutative_line", Q).algebra
    expected = sampled_search(a, "weak_morphism")
    assert [m.matrix for m in search_maps(a, "weak_morphism")] == [m.matrix for m in expected]


def test_values_equal_after_coercion_count_once():
    a = truncated_polynomial(3, F7)
    for name, given in variants([]):
        # 9 = 2 in F7; with the duplicate, 3^9 candidates would pass the budget of 600
        with_duplicate = search_maps(a, name, values=(0, 2, 9), budget=600, **given)
        plain = search_maps(a, name, values=(0, 2), budget=600, **given)
        assert [m.matrix for m in with_duplicate] == [m.matrix for m in plain], name


def test_empty_values_find_nothing():
    a = truncated_polynomial(2)
    form = build_entry("truncated_polynomial", Q, n=2).forms["pairing"]
    for name, given in variants([form]):
        assert search_maps(a, name, values=(), **given) == [], name


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_hits_hold_field_elements_also_where_the_solution_fixes_them(field):
    kind = Fraction if field is Q else Fp
    a = build_entry("euler_novikov", field, n=3).algebra
    for name, given in variants([]):
        for m in search_maps(a, name, values=(-1, 0, 1, 2), budget=300, **given):
            assert all(type(v) is kind for row in m.matrix for v in row), (name, m.matrix)


def test_the_searches_the_old_sampler_missed_are_exact():
    # K[t]/(t^4): d(t) = a t + b t^2 + c t^3 fixes d(t^2) = 2a t^2 + 2b t^3 and
    # d(t^3) = 3a t^3, so over Q with entries in {-1, 0, 1} only c is free
    a = truncated_polynomial(4)
    hits = search_maps(a, "derivation", values=(-1, 0, 1))  # 3^16 raw candidates
    assert [m.matrix[3][1] for m in hits] == [Fraction(-1), Fraction(0), Fraction(1)]
    for m in hits:
        assert all(v == 0 for k, row in enumerate(m.matrix) for i, v in enumerate(row) if (k, i) != (3, 1))


# ---------------------------------------------------------------------------
# every derived linear part is linear


LINEAR = [name for name in ONE_MAP_PREDICATES if linear_conditions(name)]


def _residual(a, name, m, given):
    takes = OPERATIONS[name].takes
    options = {arg: given[arg] for arg in takes if arg in ("weight", "form")}
    return condition_residual(a, m, linear_conditions(name, given.get("side", "both")), **options)


def _combined(a, s, f, t, g):
    """The map s*f + t*g."""
    return make_map(a.basis, [
        [s * x + t * y for x, y in zip(fr, gr)] for fr, gr in zip(f.matrix, g.matrix)
    ])


def _sum(x, y):
    out = dict(x)
    for key, v in y.items():
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras(), st.data())
def test_declared_linear_parts_are_linear(a, data):
    f = make_map(a.basis, random_even(data.draw, a.basis))
    g = make_map(a.basis, random_even(data.draw, a.basis))
    c = a.field.from_int(data.draw(st.sampled_from((-1, 2, 3))))
    given = {
        "side": data.draw(st.sampled_from(("left", "right", "both"))),
        "weight": data.draw(st.sampled_from((0, 1, -2))),
        "form": even_form(a),
    }
    one, zero = a.field.one, a.field.zero
    for name in LINEAR:
        rf, rg = _residual(a, name, f, given), _residual(a, name, g, given)
        assert _residual(a, name, _combined(a, one, f, one, g), given) == _sum(rf, rg), name
        scaled = {key: c * v for key, v in rf.items() if c * v}
        assert _residual(a, name, _combined(a, c, f, zero, g), given) == scaled, name
