"""Invariant forms: clause order, witnesses, and the quadratic constructions."""

from fractions import Fraction

import pytest

from colorhom.catalog import (
    build_entry,
    pairing_form,
    scaling_morphism,
    search_maps,
    truncated_polynomial,
)
from colorhom.checks import Witness, check_hom_novikov
from colorhom.core import identity_map, make_algebra, make_map, trivial_basis
from colorhom.errors import HypothesisError, StructureError
from colorhom.grading import trivial_bicharacter
from colorhom.quadratic import (
    BilinearFormStructure,
    check_quadratic_structure,
    form_value,
    is_symmetric_automorphism,
    quadratic_commutator,
    quadratic_untwist_involutive,
    quadratic_yau_twist,
    regular_quadratic_commutator,
)
from colorhom.scalars import prime_field, rationals


Q = rationals()


def frac(*vals):
    return tuple(Fraction(v) for v in vals)


def all_zero(a):
    return all(v == 0 for plane in a.structure for cell in plane for v in cell)


def test_antidiagonal_pairing_is_a_quadratic_structure():
    a = truncated_polynomial(3)
    pair = pairing_form(a)
    assert pair.gram[0][2] == 1 and pair.gram[1][1] == 1 and pair.gram[2][0] == 1
    assert check_quadratic_structure(a, pair)


def test_form_value_bilinear_extension():
    a = truncated_polynomial(3)
    pair = pairing_form(a)
    x = frac(1, 2, 0)
    y = frac(0, 3, 4)
    # B(x, y) = x0*y2 + x1*y1 + x2*y0
    assert form_value(pair, x, y) == Fraction(4) + Fraction(6)
    with pytest.raises(StructureError):
        form_value(pair, frac(1, 0), y)


def test_identity_form_fails_invariance_with_z_major_witness():
    a = truncated_polynomial(3)
    ident = BilinearFormStructure(
        a.basis, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), identity_map(a.basis)
    )
    v = check_quadratic_structure(a, ident)
    assert v.witness == Witness("invariance", (1, 1, 0), frac(0), frac(1))


def test_clause_order_symmetry_then_degeneracy_then_invariance():
    a = truncated_polynomial(3)
    asym = BilinearFormStructure(
        a.basis, ((0, 0, 1), (0, 1, 0), (2, 0, 0)), identity_map(a.basis)
    )
    v = check_quadratic_structure(a, asym)
    assert v.witness == Witness("epsilon-symmetry", (0, 2), frac(1), frac(2))

    degen = BilinearFormStructure(
        a.basis, ((0, 0, 1), (0, 0, 0), (1, 0, 0)), identity_map(a.basis)
    )
    v = check_quadratic_structure(a, degen)
    assert v.witness == Witness("nondegeneracy", (), None, None)


def test_isolated_twist_symmetry_failure():
    # zero products satisfy invariance trivially; only the last clause can fail
    basis = trivial_basis(Q, 2)
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    collapse = make_map(basis, ((1, 1), (0, 0)))
    a = make_algebra(basis, trivial_bicharacter(Q, basis.group), zero, collapse)
    ident = BilinearFormStructure(basis, ((1, 0), (0, 1)), identity_map(basis))
    v = check_quadratic_structure(a, ident)
    assert v.witness == Witness("twist-b-symmetry", (0, 1), frac(0), frac(1))


def test_gram_evenness_enforced_unless_disabled():
    sl = build_entry("super_commutative_line", Q).algebra
    with pytest.raises(StructureError) as info:
        BilinearFormStructure(sl.basis, ((0, 1), (1, 0)), identity_map(sl.basis))
    assert info.value.indices == (0, 1)
    odd_pair = BilinearFormStructure(
        sl.basis, ((0, 1), (1, 0)), identity_map(sl.basis), require_even=False
    )
    assert check_quadratic_structure(sl, odd_pair)


def test_scaling_is_morphism_but_not_form_symmetric():
    a = truncated_polynomial(3)
    pair = pairing_form(a)
    v = is_symmetric_automorphism(a, pair, scaling_morphism(a, 2))
    assert v.witness == Witness("b-symmetry", (0, 2), frac(1), frac(4))
    singular = make_map(a.basis, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    v = is_symmetric_automorphism(a, pair, singular)
    assert v.witness == Witness("invertibility", (), None, None)


def test_sign_map_is_a_symmetric_automorphism():
    a = truncated_polynomial(3)
    assert is_symmetric_automorphism(a, pairing_form(a), scaling_morphism(a, -1))


def test_quadratic_yau_twist_along_the_sign_map():
    a = truncated_polynomial(3)
    pair = pairing_form(a)
    sign = scaling_morphism(a, -1)
    twisted, form = quadratic_yau_twist(a, pair, sign)
    assert twisted.structure[0][1][1] == Fraction(-1)
    assert twisted.structure[1][1][2] == Fraction(1)
    assert twisted.alpha.matrix == sign.matrix
    assert form.gram == (frac(0, 0, 1), frac(0, -1, 0), frac(1, 0, 0))
    assert form.companion.matrix == identity_map(a.basis).matrix
    assert check_hom_novikov(twisted)
    assert check_quadratic_structure(twisted, form)


def test_quadratic_yau_twist_rejects_asymmetric_automorphism():
    a = truncated_polynomial(3)
    pair = pairing_form(a)
    with pytest.raises(HypothesisError) as info:
        quadratic_yau_twist(a, pair, scaling_morphism(a, 2))
    assert info.value.requirement == "symmetric-automorphism"
    assert info.value.verdict.witness.identity == "b-symmetry"


def test_quadratic_commutator_keeps_the_form():
    a = truncated_polynomial(3)
    pair = pairing_form(a)
    bracket, form = quadratic_commutator(a, pair)
    assert all_zero(bracket)  # commutative product
    assert form is pair
    assert check_quadratic_structure(bracket, form)


def test_regular_quadratic_commutator_transports_the_form():
    entry = build_entry("involutive_quadratic_polynomial", Q, n=3)
    a, form = entry.algebra, entry.forms["pairing"]
    assert form.companion.matrix == a.alpha.matrix
    bracket, out = regular_quadratic_commutator(a, form)
    assert all_zero(bracket)
    assert out.gram == (frac(0, 0, 1), frac(0, -1, 0), frac(1, 0, 0))
    assert out.companion.matrix == a.alpha.matrix
    assert check_quadratic_structure(bracket, out)


def test_quadratic_untwist_involutive_round_trip():
    entry = build_entry("involutive_quadratic_polynomial", Q, n=3)
    a, form = entry.algebra, entry.forms["pairing"]
    assert check_quadratic_structure(a, form)
    plain, out = quadratic_untwist_involutive(a, form)
    assert plain.structure == truncated_polynomial(3).structure
    assert plain.alpha.matrix == identity_map(a.basis).matrix
    assert out.gram == form.gram
    assert out.companion.matrix == identity_map(a.basis).matrix
    assert check_hom_novikov(plain)
    assert check_quadratic_structure(plain, out)


def test_companion_conventions_are_enforced():
    a = truncated_polynomial(3)
    pair = pairing_form(a)  # identity companion
    entry = build_entry("involutive_quadratic_polynomial", Q, n=3)
    iq, alpha_form = entry.algebra, entry.forms["pairing"]
    with pytest.raises(StructureError):
        quadratic_commutator(iq, alpha_form)  # wants identity companion
    with pytest.raises(StructureError):
        quadratic_untwist_involutive(iq, pairing_form(iq))  # wants alpha
    with pytest.raises(StructureError):
        regular_quadratic_commutator(a, pairing_form(a, scaling_morphism(a, -1)))


def test_form_constructor_validation():
    a = truncated_polynomial(3)
    with pytest.raises(StructureError):
        BilinearFormStructure(a.basis, ((1, 0), (0, 1)), identity_map(a.basis))
    other = identity_map(trivial_basis(Q, 2))
    with pytest.raises(StructureError):
        BilinearFormStructure(a.basis, pairing_form(a).gram, other)
    with pytest.raises(StructureError):
        check_quadratic_structure(
            a,
            BilinearFormStructure(
                trivial_basis(Q, 2), ((1, 0), (0, 1)), identity_map(trivial_basis(Q, 2))
            ),
        )


def _entry_points(a, form):
    """Every quadratic entry point that takes a form, called with form."""
    m = identity_map(a.basis)
    return {
        "search_maps": lambda: search_maps(a, "symmetric_automorphism", form=form),
        "check_quadratic_structure": lambda: check_quadratic_structure(a, form),
        "is_symmetric_automorphism": lambda: is_symmetric_automorphism(a, form, m),
        "quadratic_yau_twist": lambda: quadratic_yau_twist(a, form, m),
        "quadratic_commutator": lambda: quadratic_commutator(a, form),
        "regular_quadratic_commutator": lambda: regular_quadratic_commutator(a, form),
        "quadratic_untwist_involutive": lambda: quadratic_untwist_involutive(a, form),
    }


@pytest.mark.parametrize("form", ["x", object(), 0, ((1, 0), (0, 1))], ids=["str", "object", "int", "gram"])
@pytest.mark.parametrize("name", list(_entry_points(truncated_polynomial(2), None)))
def test_a_form_argument_that_is_not_a_form_is_a_structure_error(name, form):
    call = _entry_points(truncated_polynomial(2), form)[name]
    with pytest.raises(StructureError, match="BilinearFormStructure"):
        call()


@pytest.mark.parametrize("name", list(_entry_points(truncated_polynomial(2), None)))
def test_a_form_on_another_basis_is_a_structure_error(name):
    a = truncated_polynomial(2)
    other = pairing_form(truncated_polynomial(2, prime_field(5)))
    with pytest.raises(StructureError, match="different basis"):
        _entry_points(a, other)[name]()
