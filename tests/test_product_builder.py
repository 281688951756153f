"""The one-pass builder of the declared products against the route it replaced (product_oracle).

checks._product_table turns a declaration's slice i straight into row i of
the stored rows, or of the unreduced rows the twisted products x*alpha(y)
and alpha(x)*y are indexed from.  Every construction that builds a
declared product, check_lie_admissible's commutator, commutator_tensor and
both twisted products are compared with the cells route of
tests/product_oracle.py: equal rows, alpha, repr, hash, eps table and
index, or the same StructureError text and indices.  The inputs are the
catalog over Q, F3, F5 and F7 with maps whose constants sit just below p,
Hypothesis algebras with alpha not the identity, maps of nonzero degree in
unchecked mode, whose products are not even, and algebras whose
bicharacter does not grade their basis, which a construction with a new
alpha rejects as make_algebra does.
"""

import product_oracle
import pytest
from hypothesis import HealthCheck, given, settings
from test_support_scans import FIELDS, _operators, sparse_algebras

from colorhom import checks, constructions, core, grading, linalg
from colorhom.catalog import standard_entries
from colorhom.errors import HypothesisError, StructureError
from colorhom.scalars import rationals

TWISTED = ("times-image", "image-times")


def fresh(a):
    """An algebra equal to a, sharing its parts, with nothing built or kept on it yet."""
    out = object.__new__(core.ColorHomAlgebra)
    vars(out).update({k: vars(a)[k] for k in ("basis", "bicharacter", "product_rows", "alpha", "eps_table")})
    return out


def outcome(build):
    """What a build gives: the output's rows, alpha, repr, hash, eps table and index, or the error it raises."""
    try:
        b = build()
    except StructureError as exc:
        return "StructureError", str(exc), exc.indices
    except HypothesisError as exc:
        return "HypothesisError", str(exc)
    return b.product_rows, b.alpha, repr(b), hash(b), b.eps_table, b.product_index


def near_p_maps(a):
    """Scalar maps whose constant is just below p over F_p (-1 and 1/2 over Q)."""
    p = a.field.p
    values = (-1, 2, a.field.one / 2) if p is None else (p - 1, p - 2, (p + 1) // 2)
    return [core.scalar_map(a.basis, v) for v in values]


def odd_maps(a):
    """For each nonzero degree g between two basis degrees, the map e_i -> the first e_k of degree deg e_i + g."""
    out = []
    for g in dict.fromkeys(e + -d for d in a.degrees for e in a.degrees if e != d):
        columns = [{k: 1 for k in range(a.dim) if a.degrees[k] == d + g} for d in a.degrees]
        columns = [dict(list(c.items())[:1]) for c in columns]
        out.append(core.GradedLinearMap(a.basis, core._Columns(tuple(columns)), g))
    return out


def construction_builds(a, maps):
    """Every construction that builds a declared product, unchecked, on a and each map in turn."""
    c = constructions
    xi = linalg.unit_vector(a.field, a.dim, 0)
    builds = [
        lambda: c.commutator_algebra(a),
        lambda: c.power_twist(a, 2, checked=False),
        lambda: c.xi_square_twist(a, xi, checked=False),
        lambda: c.untwist_involutive(a, checked=False),
        lambda: c.regular_lie_untwist(a, checked=False),
    ]
    for f in maps:
        builds += [
            lambda f=f: c.yau_twist(a, f, checked=False),
            lambda f=f: c.centroid_twist(a, f, checked=False),
            lambda f=f: c.derivation_product(a, f, checked=False),
            lambda f=f: c.composed_derivation_product(a, f, checked=False),
            lambda f=f: c.averaging_product(a, f, checked=False),
            lambda f=f: c.bracket_operator_product(a, f, checked=False),
        ]
    return builds


def assert_builds_match_the_oracle(monkeypatch, a, maps) -> set:
    """Compare every build on a with the oracle's; returns the error texts seen."""
    builds = construction_builds(a, maps)
    got = [outcome(build) for build in builds]
    got.append(outcome(lambda: checks._product_algebra("bracket", fresh(a))))
    got.append(linalg.commutator_tensor(a))
    got += [checks._twisted(fresh(a), name) for name in TWISTED]
    with monkeypatch.context() as m:
        m.setattr(constructions, "_product_algebra", product_oracle.product_algebra)
        m.setattr(checks, "_product_algebra", product_oracle.product_algebra)
        expected = [outcome(build) for build in builds]
        expected.append(outcome(lambda: product_oracle.product_algebra("bracket", a)))
        expected.append(linalg.commutator_tensor(a))
    expected += [product_oracle.twisted(a, name) for name in TWISTED]
    assert len(got) == len(expected)
    for k, (x, y) in enumerate(zip(got, expected)):
        assert x == y, k
    return {x[1] for x in got if x and x[0] == "StructureError"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_declared_product_matches_the_cells_route_on_the_catalog(monkeypatch, field):
    for entry in standard_entries(field):
        a = entry.algebra
        maps = _operators(a) + near_p_maps(a) + list(entry.maps.values()) + odd_maps(a)
        assert_builds_match_the_oracle(monkeypatch, a, maps)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(sparse_algebras().filter(lambda a: a.alpha != core.identity_map(a.basis)))
def test_every_declared_product_matches_the_cells_route_on_random_algebras(monkeypatch, a):
    assert_builds_match_the_oracle(monkeypatch, a, _operators(a) + near_p_maps(a) + odd_maps(a))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_uneven_unchecked_output_names_the_oracles_first_entry(monkeypatch, field):
    # a derivation of nonzero degree on the super-commutative line: e_0 * d(e_0) = e_1 is odd
    a = next(e.algebra for e in standard_entries(field) if e.recipe.name == "super_commutative_line")
    [d] = odd_maps(a)
    got = outcome(lambda: constructions.derivation_product(a, d, checked=False))
    with monkeypatch.context() as m:
        m.setattr(constructions, "_product_algebra", product_oracle.product_algebra)
        assert got == outcome(lambda: constructions.derivation_product(a, d, checked=False))
    assert got == ("StructureError", "product not even: c[0][0][1] != 0 but deg(e_1) != deg(e_0) + deg(e_0)",
                   (0, 0, 1))
    assert assert_builds_match_the_oracle(monkeypatch, a, [d])


def test_every_output_lists_its_index_on_first_read():
    a = standard_entries(FIELDS[0])[3].algebra
    for b in (constructions.commutator_algebra(a), checks._product_algebra("bracket", a)):
        assert "product_index" not in vars(b)
        assert b.product_index == core._product_index(b.product_rows)


def mismatched(a):
    """a on a trivial bicharacter over Q (coercible over F_p), and on one of another grading group."""
    field = core.ColorHomAlgebra(a.basis, grading.trivial_bicharacter(rationals(), a.basis.group), a.structure, a.alpha)
    group = object.__new__(core.ColorHomAlgebra)
    other = grading.GradeGroup(a.basis.group.free_rank + 1, a.basis.group.torsion_orders)
    vars(group).update(vars(fresh(a)), bicharacter=grading.trivial_bicharacter(a.field, other))
    return (field, "scalar fields"), (group, "grading groups")


@pytest.mark.parametrize("field", FIELDS[1:], ids=str)
def test_a_new_alpha_on_a_bicharacter_that_does_not_grade_the_basis_is_rejected(monkeypatch, field):
    a = standard_entries(field)[0].algebra
    for m, what in mismatched(a):
        xi = linalg.unit_vector(a.field, a.dim, 0)
        builds = [
            lambda: constructions.power_twist(m, 2, checked=False),
            lambda: constructions.yau_twist(m, a.alpha, checked=False),
            lambda: constructions.xi_square_twist(m, xi, checked=False),
            lambda: constructions.untwist_involutive(m, checked=False),
            lambda: constructions.regular_lie_untwist(m, checked=False),
        ]
        got = [outcome(build) for build in builds]
        assert got == [("StructureError", f"bicharacter and basis use different {what}", None)] * len(builds)
        with monkeypatch.context() as patched:
            patched.setattr(constructions, "_product_algebra", product_oracle.product_algebra)
            assert got == [outcome(build) for build in builds]
