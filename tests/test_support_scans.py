"""Support-driven identity scans against the full-tuple oracle.

An identity scan visits only the basis tuples where some term of the
identity can be nonzero.  The differential tests compare its verdicts and
witnesses with tests/scan_oracle.py, which visits every tuple, and check
the property the skip rests on: off the support every term is zero and both
sides are {}.  The directed tests pin the witness for one failure reached
through each term shape alone, written C(p,q) = x_p*x_q, L(p,q;r) =
(x_p*x_q)*alpha(x_r) and R(p;q,r) = alpha(x_p)*(x_q*x_r) in their ids.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scan_oracle
from colorhom import checks, core
from colorhom.catalog import standard_entries
from colorhom.checks import IDENTITIES_BY_CHECK, A, P
from colorhom.core import GradedBasis, make_algebra, make_map
from colorhom.errors import StructureError
from colorhom.grading import GradeGroup, make_bicharacter, trivial_bicharacter
from colorhom.scalars import prime_field, rationals

Q = rationals()
FIELDS = (Q, prime_field(3), prime_field(5), prime_field(7))

COMPOSITES = {
    "epsilon_commutative": checks.check_epsilon_commutative,
    "hom_associative": checks.check_hom_associative,
    "hom_novikov": checks.check_hom_novikov,
    "left_symmetric": checks.check_left_symmetric,
    "hom_lie": checks.check_hom_lie,
    "cyclic_commutator_products": checks.check_cyclic_commutator_products,
}


def test_the_composites_cover_every_check_with_identities():
    assert set(COMPOSITES) == set(IDENTITIES_BY_CHECK)


def term_value(a, term, idx):
    """The sparse value of one term, a product and alpha node tree, on the basis vectors of the tuple idx."""
    if type(term) is int:
        return {idx[term]: 1}
    if type(term) is A:
        return core.sparse_apply(a.alpha, term_value(a, term.x, idx))
    return core.sparse_product(a, term_value(a, term.x, idx), term_value(a, term.y, idx))


def terms(name):
    """The declared terms of an identity, left side first."""
    _, left, right = checks._IDENTITIES[name]
    return [node for _, _, node in left + right]


def support(a, name):
    if checks.IDENTITY_ARITY[name] == 3:
        return list(checks._support(a, terms(name)))
    return list(checks._pair_support(a, terms(name)))


def assert_support_scans_match_the_oracle(a, maps=()):
    eps, units = a.eps_table, scan_oracle.unit_vectors(a)
    for name, (arity, sides) in scan_oracle.SIDES.items():
        shapes = terms(name)
        tuples = support(a, name)
        assert tuples == sorted(set(tuples)), name
        visited = set(tuples)
        for idx in iproduct(range(a.dim), repeat=arity):
            if idx not in visited:
                assert not any(term_value(a, t, idx) for t in shapes), (name, idx)
                assert sides(a, eps, idx, tuple(units[i] for i in idx)) == ({}, {}), (name, idx)
        assert repr(checks._scan(a, name)) == repr(scan_oracle.scan(a, name)), name
    for check, fn in COMPOSITES.items():
        assert repr(fn(a)) == repr(scan_oracle.scan_check(a, check)), check
    for f in maps:
        got = checks.check_bracket_operator_conditions(a, f)
        assert repr(got) == repr(scan_oracle.bracket_operator_conditions(a, f))


def _operators(a):
    """Even maps for the bracket operator conditions, most of them commuting with alpha."""
    basis = a.basis
    return [
        a.alpha, core.compose_maps(a.alpha, a.alpha), core.identity_map(basis),
        core.scalar_map(basis, 2),
    ]


# ---------------------------------------------------------------------------
# catalog and random algebras


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_support_scans_match_the_oracle_on_the_catalog(field):
    for entry in standard_entries(field):
        a = entry.algebra
        maps = [m for m in entry.maps.values() if m.is_even]
        assert_support_scans_match_the_oracle(a, _operators(a) + maps)


def _trivial(field):
    g = GradeGroup(0)
    return g, trivial_bicharacter(field, g)


def _z2_sign(field):
    g = GradeGroup(0, (2,))
    return g, make_bicharacter(field, g, ((field.from_int(-1),),))


def _z3z3_cube_root(field):
    # 2 is a primitive cube root of unity in F7, and 4 = 2^-1
    g = GradeGroup(0, (3, 3))
    return g, make_bicharacter(field, g, ((field.one, field.from_int(2)), (field.from_int(4), field.one)))


GRADINGS = [(f, g) for f in FIELDS for g in (_trivial, _z2_sign)] + [(prime_field(7), _z3z3_cube_root)]

ALPHAS = ("identity", "random", "zero columns", "collapse")


def _values(field):
    if field.p is None:
        return (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2))
    p = field.p
    # constants just below p, so that sides cancel mod p
    return (p - 1, p - 2, (p + 1) // 2, 1)


@st.composite
def sparse_algebras(draw):
    """Random algebras with sparse cells, graded, and alpha of one of four kinds."""
    field, grading = draw(st.sampled_from(GRADINGS))
    group, bichar = grading(field)
    n = draw(st.integers(1, 5))
    elements = [group.element(c) for c in iproduct(*(range(m) for m in group.torsion_orders))]
    degrees = tuple(draw(st.sampled_from(elements)) for _ in range(n))
    basis = GradedBasis(field, group, degrees)
    value = st.sampled_from(_values(field)).map(field.coerce)
    fill = draw(st.integers(1, 6))  # in tenths
    structure = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i, j in iproduct(range(n), repeat=2):
        targets = [k for k in range(n) if degrees[k] == degrees[i] + degrees[j]]
        if targets and draw(st.integers(0, 9)) < fill:
            for k in draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True)):
                structure[i][j][k] = draw(value)
    kind = draw(st.sampled_from(ALPHAS))
    alpha = [[field.zero] * n for _ in range(n)]
    first = {d: degrees.index(d) for d in degrees}
    for k, i in iproduct(range(n), repeat=2):
        if kind == "identity":
            alpha[k][i] = field.one if k == i else field.zero
        elif kind == "collapse":
            # every e_i onto the first basis vector of its degree: not injective
            # once a degree holds two basis vectors
            if k == first[degrees[i]]:
                alpha[k][i] = draw(value)
        elif degrees[k] == degrees[i] and draw(st.booleans()):
            alpha[k][i] = draw(value)
    if kind == "zero columns":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)):
            for k in range(n):
                alpha[k][i] = field.zero
    return make_algebra(basis, bichar, structure, make_map(basis, alpha))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras(), st.data())
def test_support_scans_match_the_oracle_on_random_algebras(a, data):
    n, field = a.dim, a.field
    rows = [
        [data.draw(st.sampled_from(_values(field))) if a.degrees[k] == a.degrees[i] else 0 for i in range(n)]
        for k in range(n)
    ]
    assert_support_scans_match_the_oracle(a, _operators(a) + [make_map(a.basis, rows)])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras(), st.data())
def test_identity_sides_sum_the_terms_like_the_oracle(a, data):
    # the declared terms, summed on homogeneous vectors, give each side of the
    # hand-written evaluators exactly
    field, n = a.field, a.dim
    value = st.sampled_from((0,) + _values(field))
    for name, (arity, sides) in scan_oracle.SIDES.items():
        degrees = [data.draw(st.sampled_from(a.degrees)) for _ in range(arity)]
        vectors = [
            tuple(field.coerce(data.draw(value)) if a.degrees[k] == d else field.zero for k in range(n))
            for d in degrees
        ]
        eps = [[field.kernel_scalar(a.eps(d, e)) for e in degrees] for d in degrees]
        expected = sides(a, eps, range(arity), [core.sparse_vector(field, v) for v in vectors])
        got = checks.identity_sides(a, name, degrees, vectors)
        assert repr(got) == repr(tuple(core.dense_vector(field, n, x) for x in expected)), name


# ---------------------------------------------------------------------------
# bracket operators with a vanishing defect
#
# With f = diag(d), the defect of (e_i, e_j) is the sum over the terms c e_m of
# e_i * e_j of (d_m (d_i + d_j) - d_i d_j) c e_m.  Cells keep only the terms
# where that factor is zero, so defect-centrality holds and every case reaches
# operator-right-commutativity.

OPERATOR_DIAGONAL = (0, 1, 2, Fraction(1, 2), Fraction(2, 3), -1)


def defect_free_case(seed):
    """A seeded (l, f) with a vanishing defect: f = diag(d), alpha diagonal of 0s and 1s."""
    rng = random.Random(seed)
    field = rng.choice((Q, prime_field(5), prime_field(7)))
    group, bichar = rng.choice((_trivial, _z2_sign))(field)
    n = rng.randint(2, 6)
    degrees = tuple(group.element((rng.randrange(2),) if group.torsion_orders else ()) for _ in range(n))
    basis = GradedBasis(field, group, degrees)
    d = [field.coerce(rng.choice(OPERATOR_DIAGONAL)) for _ in range(n)]
    structure = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i, j in iproduct(range(n), repeat=2):
        targets = [
            m for m in range(n)
            if degrees[m] == degrees[i] + degrees[j] and d[m] * (d[i] + d[j]) == d[i] * d[j]
        ]
        if targets and rng.random() < 0.5:
            for m in rng.sample(targets, rng.randint(1, min(2, len(targets)))):
                structure[i][j][m] = field.coerce(rng.choice((1, -1, 2)))

    def diagonal(values):
        return make_map(basis, [[values[k] if k == i else 0 for i in range(n)] for k in range(n)])

    alpha = diagonal([rng.randrange(2) for _ in range(n)])
    return make_algebra(basis, bichar, structure, alpha), diagonal(d)


def test_bracket_operator_conditions_match_the_oracle_past_defect_centrality():
    reached = {}
    for seed in range(1200):
        l, f = defect_free_case(seed)
        verdict = checks.check_bracket_operator_conditions(l, f)
        assert repr(verdict) == repr(scan_oracle.bracket_operator_conditions(l, f)), seed
        stage = verdict.witness.identity if verdict.witness else "pass"
        reached[stage] = reached.get(stage, 0) + 1
    # the corpus passes and fails the last stage, and no earlier stage fails
    assert set(reached) == {"pass", "operator-right-commutativity"}, reached
    assert min(reached.values()) >= 100, reached


# ---------------------------------------------------------------------------
# the support shapes


def skeleton(node):
    """The node tree with its node types named and every slot replaced by 0."""
    return 0 if type(node) is int else (type(node).__name__, *map(skeleton, node))


def slots(node):
    """The slots a node names, left to right."""
    return [node] if type(node) is int else [s for x in node for s in slots(x)]


# skeleton -> the arity of the identities it may appear in
SHAPES = {
    skeleton(P(0, 1)): 2,
    skeleton(P(P(0, 1), A(2))): 3,
    skeleton(P(A(0), P(1, 2))): 3,
}


def test_every_identity_term_has_one_of_the_three_support_shapes():
    for name, arity in checks.IDENTITY_ARITY.items():
        for term in terms(name):
            assert SHAPES.get(skeleton(term)) == arity, (name, term)
            assert sorted(slots(term)) == list(range(arity)), (name, term)


@pytest.mark.parametrize("term", [
    P(P(0, 1), 2),  # (x*y)*z: no alpha
    P(A(0), A(P(1, 2))),  # alpha(x)*alpha(y*z)
    P(P(0, 1), A(1)),  # a slot named twice, another never
    P(0, 1),  # a pair shape among triples
], ids=repr)
def test_a_fourth_shape_is_rejected(term):
    table = dict(checks._IDENTITIES)
    table["fourth-shape"] = (3, [(1, (), term)], [])
    with pytest.raises(StructureError, match="no support walk"):
        checks._require_support_shapes(table)
    checks._require_support_shapes(checks._IDENTITIES)


# ---------------------------------------------------------------------------
# directed witnesses: one failure, reached through one term
#
# Each algebra is over Q with the trivial grading and dimension 3; products
# maps (i, j) to the basis index of e_i * e_j, and alpha is the identity
# unless ALPHA gives its rows.


def _algebra(products, alpha=None):
    basis = core.trivial_basis(Q, 3)
    structure = [[[Q.zero] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), k in products.items():
        structure[i][j][k] = Q.one
    alpha = make_map(basis, alpha) if alpha else core.identity_map(basis)
    return make_algebra(basis, trivial_bicharacter(Q, basis.group), structure, alpha)


E0, ZERO = (Q.one, Q.zero, Q.zero), (Q.zero, Q.zero, Q.zero)

DIRECTED = {
    "C(0,1)": ({(1, 2): 0}, "epsilon-commutativity", P(0, 1), (1, 2), E0, ZERO),
    "C(1,0)": ({(2, 1): 0}, "epsilon-commutativity", P(1, 0), (1, 2), ZERO, E0),
    "L(0,1;2)": ({(1, 1): 2, (2, 1): 0}, "hom-associativity", P(P(0, 1), A(2)), (1, 1, 1), ZERO, E0),
    "R(0;1,2)": ({(1, 1): 2, (1, 2): 0}, "hom-associativity", P(A(0), P(1, 2)), (1, 1, 1), E0, ZERO),
    "L(0,2;1)": ({(1, 1): 2, (2, 0): 0}, "right-commutativity", P(P(0, 2), A(1)), (1, 0, 1), ZERO, E0),
    "L(1,0;2)": ({(2, 0): 1, (1, 1): 0}, "left-symmetry", P(P(1, 0), A(2)), (0, 2, 1), ZERO, E0),
    "R(1;2,0)": ({(2, 0): 1, (1, 1): 0}, "hom-jacobi", P(A(1), P(2, 0)), (0, 1, 2), E0, ZERO),
    # alpha(e_0) = e_1, so alpha(e_0) * (e_1 * e_1) = e_1 * e_2 = e_0
    "R(0;1,2) through alpha": (
        {(1, 1): 2, (1, 2): 0}, "hom-associativity", P(A(0), P(1, 2)), (0, 1, 1), E0, ZERO
    ),
}

# alpha for the cases that do not use the identity, as rows
ALPHA = {"R(0;1,2) through alpha": ((0, 0, 0), (1, 1, 0), (0, 0, 1))}


@pytest.mark.parametrize("case", DIRECTED, ids=str)
def test_the_witness_reached_through_one_term(case):
    products, name, term, indices, left, right = DIRECTED[case]
    a = _algebra(products, ALPHA.get(case))
    verdict = checks._scan(a, name)
    assert verdict == checks.Verdict(False, checks.Witness(name, indices, left, right))
    assert verdict == scan_oracle.scan(a, name)
    assert [t for t in terms(name) if term_value(a, t, indices)] == [term]
    # every tuple before the witness is off the support, and the witness is its first tuple
    tuples = support(a, name)
    assert tuples[0] == indices
    assert all(idx not in tuples for idx in iproduct(range(3), repeat=len(indices)) if idx < indices)


def test_a_directed_witness_lies_past_the_first_slice():
    assert any(DIRECTED[case][3][0] > 0 for case in DIRECTED)


def test_a_scan_stopping_in_slice_zero_leaves_later_slices_unbuilt(monkeypatch):
    # e0*e0 = e1 and e1*e0 = e2: (e0*e0)*e0 = e2 but e0*(e0*e0) = 0, so (0, 0, 0) fails
    a = _algebra({(0, 0): 1, (1, 0): 2})
    asked = []
    original = checks._term_bits
    monkeypatch.setattr(checks, "_term_bits", lambda a, term, i: asked.append(i) or original(a, term, i))
    verdict = checks._scan(a, "hom-associativity")
    assert verdict == scan_oracle.scan(a, "hom-associativity")
    assert not verdict and set(asked) == {0}


def test_operator_right_commutativity_fails_where_only_the_second_image_is_nonzero():
    # e0*e1 = e2, e2*e0 = e1, alpha = id, f = diag(2, 2, 1): the defect is
    # alpha-central, and at (0, 0, 1) the left side [f([f(e0), e0]), e1] has
    # an empty image while [f([f(e0), e1]), e0] = 2 e2*e0 = 2 e1 does not
    a = _algebra({(0, 1): 2, (2, 0): 1})
    f = make_map(a.basis, [[2, 0, 0], [0, 2, 0], [0, 0, 1]])
    verdict = checks.check_bracket_operator_conditions(a, f)
    witness = checks.Witness("operator-right-commutativity", (0, 0, 1), ZERO, (Q.zero, Q.from_int(2), Q.zero))
    assert verdict == checks.Verdict(False, witness)
    assert verdict == scan_oracle.bracket_operator_conditions(a, f)
