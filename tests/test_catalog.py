"""Catalog recipes, their verified claims, and the deterministic map search."""

from fractions import Fraction

import pytest

from colorhom.catalog import (
    CHECKS_BY_NAME,
    RECIPES,
    build_entry,
    pairing_form,
    run_named_check,
    search_maps,
    standard_entries,
    truncated_polynomial,
)
from colorhom.errors import StructureError
from colorhom.scalars import prime_field, rationals


Q = rationals()
F7 = prime_field(7)


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_every_claim_of_every_entry_verifies(field):
    for entry in standard_entries(field):
        for claim in entry.recipe.claims:
            verdict = run_named_check(entry.algebra, claim)
            assert verdict, (
                f"{entry.recipe.name}{entry.recipe.params} over {field}: "
                f"claim {claim} failed at {verdict.witness}"
            )


def test_standard_battery_size_depends_on_the_field():
    assert len(standard_entries(Q)) == 12
    assert len(standard_entries(F7)) == 13  # order-3 scalars exist mod 7
    assert len(standard_entries(prime_field(5))) == 12


def test_order3_recipe_needs_a_matching_field():
    with pytest.raises(StructureError):
        build_entry("z3_graded_nilpotent", Q)
    with pytest.raises(StructureError):
        build_entry("z3_graded_nilpotent", prime_field(5))
    entry = build_entry("z3_graded_nilpotent", F7)
    assert entry.algebra.dim == 3


def test_build_entry_rejects_unknown_names_and_params():
    with pytest.raises(StructureError):
        build_entry("no_such_recipe", Q)
    with pytest.raises(StructureError):
        build_entry("truncated_polynomial", Q, order=3)
    with pytest.raises(StructureError):
        run_named_check(truncated_polynomial(2), "associative")


def test_every_recipe_name_is_buildable_somewhere():
    for name in RECIPES:
        field = F7 if name == "z3_graded_nilpotent" else Q
        entry = build_entry(name, field)
        assert entry.recipe.name == name
        for check in entry.recipe.claims:
            assert check in CHECKS_BY_NAME


# the parameters each recipe records when built with none given: its builder's defaults
DEFAULT_PARAMS = {
    "truncated_polynomial": (("n", 3),),
    "super_commutative_line": (),
    "euler_novikov": (("n", 3),),
    "scaled_polynomial": (("c", 2), ("n", 3)),
    "involutive_quadratic_polynomial": (("n", 3),),
    "z3_graded_nilpotent": (),
    "solvable_bracket": (),
    "zero_algebra": (("dim", 2),),
}


# over F3 a size sent through the field would read n = 0
@pytest.mark.parametrize("field", [Q, prime_field(3), F7], ids=str)
def test_a_recipe_built_without_parameters_records_its_defaults(field):
    assert set(DEFAULT_PARAMS) == set(RECIPES)
    for name, params in DEFAULT_PARAMS.items():
        if name == "z3_graded_nilpotent" and field is not F7:
            continue
        entry = build_entry(name, field)
        assert entry.recipe.params == params, name
        assert entry == build_entry(name, field, **dict(params)), name


def test_involutive_quadratic_recipe_rejects_even_truncation():
    with pytest.raises(StructureError):
        build_entry("involutive_quadratic_polynomial", Q, n=4)


def test_weak_morphism_search_on_the_graded_line_is_exhaustive():
    sl = build_entry("super_commutative_line", Q).algebra
    hits = search_maps(sl, "weak_morphism")  # 4^2 candidates, fully enumerated
    diagonals = [tuple(m.matrix[i][i] for i in range(2)) for m in hits]
    assert diagonals == [
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2)),
    ]
    assert all(m.matrix[0][1] == 0 and m.matrix[1][0] == 0 for m in hits)


def test_derivation_search_recovers_the_degree_raising_span():
    a = truncated_polynomial(3)
    hits = search_maps(a, "derivation", values=(-1, 0, 1), budget=20000)
    assert len(hits) == 3  # 0 and +-(t^2 d/dt): e_1 -> c e_2
    entries = sorted(m.matrix[2][1] for m in hits)
    assert entries == [Fraction(-1), Fraction(0), Fraction(1)]
    for m in hits:
        flat = [v for k, row in enumerate(m.matrix) for i, v in enumerate(row) if (k, i) != (2, 1)]
        assert all(v == 0 for v in flat)


def test_symmetric_automorphism_search_finds_sign_and_identity():
    a = truncated_polynomial(3)
    hits = search_maps(
        a,
        "symmetric_automorphism",
        values=(-1, 0, 1),
        budget=20000,
        form=pairing_form(a),
    )
    assert [tuple(m.matrix[i][i] for i in range(3)) for m in hits] == [
        (Fraction(1), Fraction(-1), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(1)),
    ]


def test_sampled_search_is_seed_deterministic():
    zero = build_entry("zero_algebra", Q, dim=2).algebra
    first = search_maps(zero, "weak_morphism", budget=50)
    second = search_maps(zero, "weak_morphism", budget=50)
    assert [m.matrix for m in first] == [m.matrix for m in second]
    assert first  # every map preserves the zero product


def test_search_validates_its_arguments():
    a = truncated_polynomial(2)
    with pytest.raises(StructureError):
        search_maps(a, "idempotent")
    with pytest.raises(StructureError):
        search_maps(a, "symmetric_automorphism")  # needs form=...
