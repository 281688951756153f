"""The sparse kernel against a dense reference, its derived views and its eps bound.

The reference scan below is a dense evaluator: every product and map image
is a full coordinate tuple computed from algebra.structure and alpha.matrix,
and every sign comes from bicharacter_eval.  It shares no code with the
sparse kernel, so equal verdicts (identity, tuple, both sides) on random and
catalog algebras pin the sparse scans down exactly.
"""

import subprocess
import sys
import time
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colorhom import checks, core
from colorhom.catalog import standard_entries
from colorhom.checks import IDENTITIES_BY_CHECK, PASS, Verdict, Witness
from colorhom.core import ColorHomAlgebra, GradedBasis, make_algebra, make_map
from colorhom.errors import StructureError
from colorhom.grading import (
    EPS_MAX_BITS,
    GradeGroup,
    bicharacter_eval,
    make_bicharacter,
    trivial_bicharacter,
)
from colorhom.io import parse_document, serialize_document
from colorhom.scalars import prime_field, rationals

Q = rationals()
F7 = prime_field(7)


# ---------------------------------------------------------------------------
# dense reference evaluator


def _d_mul(a, x, y):
    n = a.dim
    out = [a.field.zero] * n
    for i, j in iproduct(range(n), repeat=2):
        if x[i] != 0 and y[j] != 0:
            for k in range(n):
                c = a.structure[i][j][k]
                if c != 0:
                    out[k] = out[k] + x[i] * y[j] * c
    return tuple(out)


def _d_al(a, x):
    n = a.dim
    out = [a.field.zero] * n
    for k, i in iproduct(range(n), repeat=2):
        if a.alpha.matrix[k][i] != 0 and x[i] != 0:
            out[k] = out[k] + a.alpha.matrix[k][i] * x[i]
    return tuple(out)


def _d_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def _d_sub(x, y):
    return tuple(p - q for p, q in zip(x, y))


def _d_scale(s, x):
    return tuple(s * p for p in x)


def _d_eps(a, d, e):
    return bicharacter_eval(a.bicharacter, d, e)


def _d_bracket(a, dx, dy, x, y):
    return _d_sub(_d_mul(a, x, y), _d_scale(_d_eps(a, dx, dy), _d_mul(a, y, x)))


def _d_cyclic(a, degs, terms):
    (dx, dy, dz) = degs
    signs = (_d_eps(a, dz, dx), _d_eps(a, dx, dy), _d_eps(a, dy, dz))
    acc = tuple(a.field.zero for _ in range(a.dim))
    for sign, term in zip(signs, terms):
        acc = _d_add(acc, _d_scale(sign, term))
    return acc, tuple(a.field.zero for _ in range(a.dim))


def _d_sides(a, name, degs, vecs):
    mul, al = (lambda x, y: _d_mul(a, x, y)), (lambda x: _d_al(a, x))
    if name in ("epsilon-commutativity", "skew-symmetry"):
        (dx, dy), (x, y) = degs, vecs
        sign = _d_eps(a, dx, dy)
        return mul(x, y), _d_scale(sign if name == "epsilon-commutativity" else -sign, mul(y, x))
    (dx, dy, dz), (x, y, z) = degs, vecs
    if name == "hom-associativity":
        return mul(al(x), mul(y, z)), mul(mul(x, y), al(z))
    if name == "right-commutativity":
        return mul(mul(x, y), al(z)), _d_scale(_d_eps(a, dy, dz), mul(mul(x, z), al(y)))
    if name == "left-symmetry":
        left = _d_sub(mul(mul(x, y), al(z)), mul(al(x), mul(y, z)))
        assoc_yx = _d_sub(mul(mul(y, x), al(z)), mul(al(y), mul(x, z)))
        return left, _d_scale(_d_eps(a, dx, dy), assoc_yx)
    if name == "hom-jacobi":
        return _d_cyclic(a, degs, (mul(al(x), mul(y, z)), mul(al(y), mul(z, x)), mul(al(z), mul(x, y))))
    br = lambda d1, d2, u, v: _d_bracket(a, d1, d2, u, v)  # noqa: E731
    if name == "cyclic-right-products":
        return _d_cyclic(a, degs, (
            mul(br(dx, dy, x, y), al(z)), mul(br(dy, dz, y, z), al(x)), mul(br(dz, dx, z, x), al(y))
        ))
    assert name == "cyclic-left-products"
    return _d_cyclic(a, degs, (
        mul(al(x), br(dy, dz, y, z)), mul(al(y), br(dz, dx, z, x)), mul(al(z), br(dx, dy, x, y))
    ))


def dense_scan(a, name):
    """The reference: dense sides on unit vectors, lexicographic slot order."""
    n, degs = a.dim, a.degrees
    units = [core.unit_vector(a.field, n, i) for i in range(n)]
    for idx in iproduct(range(n), repeat=checks.IDENTITY_ARITY[name]):
        left, right = _d_sides(a, name, [degs[i] for i in idx], [units[i] for i in idx])
        if left != right:
            return Verdict(False, Witness(name, idx, left, right))
    return PASS


def dense_check(a, check):
    for name in IDENTITIES_BY_CHECK[check]:
        v = dense_scan(a, name)
        if not v:
            return v
    return PASS


COMPOSITES = {
    "epsilon_commutative": checks.check_epsilon_commutative,
    "hom_associative": checks.check_hom_associative,
    "hom_novikov": checks.check_hom_novikov,
    "left_symmetric": checks.check_left_symmetric,
    "hom_lie": checks.check_hom_lie,
    "cyclic_commutator_products": checks.check_cyclic_commutator_products,
}


def _dense_commutator(a):
    n = a.dim
    return tuple(
        tuple(
            tuple(
                a.structure[i][j][k] - _d_eps(a, a.degrees[i], a.degrees[j]) * a.structure[j][i][k]
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


def assert_matches_reference(a):
    for name in checks.IDENTITY_ARITY:
        assert checks._scan(a, name) == dense_scan(a, name), name
    for check, fn in COMPOSITES.items():
        assert fn(a) == dense_check(a, check), check
    assert checks.check_right_commutative(a) == dense_scan(a, "right-commutativity")
    bracket = make_algebra(a.basis, a.bicharacter, _dense_commutator(a), a.alpha)
    assert checks.check_lie_admissible(a) == dense_check(bracket, "hom_lie")


# ---------------------------------------------------------------------------
# random algebras


def _z2_sign(field):
    g = GradeGroup(0, (2,))
    return g, make_bicharacter(field, g, ((field.from_int(-1),),))


def _z3z3_cube_root(field):
    # 2 is a primitive cube root of unity in F7, and 4 = 2^-1
    g = GradeGroup(0, (3, 3))
    two, four = field.from_int(2), field.from_int(4)
    return g, make_bicharacter(field, g, ((field.one, two), (four, field.one)))


def _trivial(field):
    g = GradeGroup(0)
    return g, trivial_bicharacter(field, g)


GRADINGS = [
    (Q, _trivial), (Q, _z2_sign),
    (F7, _trivial), (F7, _z2_sign), (F7, _z3z3_cube_root),
]

VALUES = (-2, -1, 1, 2, 3)


@st.composite
def algebras(draw):
    field, grading = draw(st.sampled_from(GRADINGS))
    group, bichar = grading(field)
    n = draw(st.integers(1, 4))
    elements = [group.element(c) for c in iproduct(*(range(m) for m in group.torsion_orders))]
    degrees = tuple(draw(st.sampled_from(elements)) for _ in range(n))
    basis = GradedBasis(field, group, degrees)
    # dense cells fill every admissible k; sparse cells hold at most one entry
    dense = draw(st.booleans())
    fill = draw(st.sampled_from((2, 6, 10)))  # in tenths
    value = st.sampled_from(VALUES)
    structure = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i, j in iproduct(range(n), repeat=2):
        targets = [k for k in range(n) if degrees[k] == degrees[i] + degrees[j]]
        if not targets or draw(st.integers(0, 9)) >= fill:
            continue
        if not dense:
            targets = [draw(st.sampled_from(targets))]
        for k in targets:
            structure[i][j][k] = field.from_int(draw(value))
    # alpha: even, a random scalar on the diagonal plus random admissible entries
    alpha = [[field.zero] * n for _ in range(n)]
    for k, i in iproduct(range(n), repeat=2):
        if degrees[k] == degrees[i] and (k == i or draw(st.booleans())):
            alpha[k][i] = field.from_int(draw(value))
    return make_algebra(basis, bichar, structure, make_map(basis, alpha))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras())
def test_sparse_scans_match_the_dense_reference_on_random_algebras(a):
    assert_matches_reference(a)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras(), st.data())
def test_public_dense_functions_match_the_reference(a, data):
    vec = st.lists(st.sampled_from((0, 0, 1, -1, 2)), min_size=a.dim, max_size=a.dim)
    x = tuple(a.field.from_int(v) for v in data.draw(vec))
    y = tuple(a.field.from_int(v) for v in data.draw(vec))
    assert core.eval_product(a, x, y) == _d_mul(a, x, y)
    assert core.eval_map(a.alpha, x) == _d_al(a, x)
    m, n = a.alpha.matrix, range(a.dim)
    square = tuple(tuple(sum((m[k][l] * m[l][i] for l in n), a.field.zero) for i in n) for k in n)
    assert core.compose_maps(a.alpha, a.alpha).matrix == square
    for name, arity in checks.IDENTITY_ARITY.items():
        vectors = [x, y, x][:arity]
        expected = tuple(a.field.zero for _ in range(a.dim))
        split = [core.homogeneous_components(a.basis, v) for v in vectors]
        for combo in iproduct(*split):
            left, right = _d_sides(a, name, [d for d, _ in combo], [v for _, v in combo])
            expected = _d_add(expected, _d_sub(left, right))
        assert checks.identity_residual_on_vectors(a, name, vectors) == expected


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_sparse_scans_match_the_dense_reference_on_the_catalog(field):
    for entry in standard_entries(field):
        assert_matches_reference(entry.algebra)


def test_graded_witnesses_carry_the_reference_sides():
    # Z3 x Z3 with a cube-root bicharacter: a sign enters the witness
    group, bichar = _z3z3_cube_root(F7)
    degrees = (group.element((1, 0)), group.element((0, 1)), group.element((1, 1)))
    basis = GradedBasis(F7, group, degrees)
    structure = [[[F7.zero] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][1][2] = F7.one
    structure[1][0][2] = F7.one
    a = make_algebra(basis, bichar, structure, core.identity_map(basis))
    verdict = checks.check_epsilon_commutative(a)
    assert verdict == dense_check(a, "epsilon_commutative")
    assert verdict.witness.indices == (0, 1)
    assert verdict.witness.right == (F7.zero, F7.zero, F7.from_int(2))


# ---------------------------------------------------------------------------
# boundary validation


def test_identity_sides_rejects_a_wrong_length_vector():
    a = standard_entries(Q)[2].algebra  # truncated_polynomial(3)
    zero = a.degrees[0]
    with pytest.raises(StructureError):
        checks.identity_sides(a, "epsilon-commutativity", (zero, zero), ((Q.one,) * 3, (Q.one,) * 2))
    with pytest.raises(StructureError):
        checks.identity_sides(a, "hom-associativity", (zero,) * 3, ((Q.one,) * 4,) * 3)


def test_identity_residual_rejects_a_wrong_length_vector():
    a = standard_entries(Q)[2].algebra
    with pytest.raises(StructureError):
        checks.identity_residual_on_vectors(a, "left-symmetry", ((Q.one,) * 3, (Q.one,) * 3, (Q.one,) * 2))
    with pytest.raises(StructureError):
        checks.identity_residual_on_vectors(a, "skew-symmetry", ((Q.one,) * 4, (Q.one,) * 3))


# ---------------------------------------------------------------------------
# derived views


def _euler4_parts():
    n = 4
    basis = core.trivial_basis(Q, n)
    structure = [[[Q.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(1, n - i):
            structure[i][j][i + j] = Q.from_int(j)
    return basis, trivial_bicharacter(Q, basis.group), structure, core.identity_map(basis)


def test_derived_views_are_invisible_to_equality_repr_and_documents():
    a, b = make_algebra(*_euler4_parts()), make_algebra(*_euler4_parts())
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert "product_rows" not in repr(a) and "eps_table" not in repr(a)
    assert "sparse_columns" not in repr(a.alpha)
    assert serialize_document(a) == serialize_document(b)
    assert parse_document(serialize_document(a)).algebra == a


def test_product_rows_hold_the_nonzeros_and_share_the_empty_cell():
    a = make_algebra(*_euler4_parts())
    assert a.product_rows[1][2] == {3: Q.from_int(2)}
    empty = [cell for plane in a.product_rows for cell in plane if not cell]
    assert len(empty) == 10 and all(cell is empty[0] for cell in empty)
    assert a.alpha.sparse_columns == tuple({i: Q.one} for i in range(4))
    assert all(e == 1 for row in a.eps_table for e in row)


def test_a_directly_constructed_algebra_scans_like_make_algebra():
    basis, bichar, structure, alpha = _euler4_parts()
    direct = ColorHomAlgebra(basis, bichar, tuple(tuple(tuple(c) for c in p) for p in structure), alpha)
    built = make_algebra(basis, bichar, structure, alpha)
    assert direct == built
    for check, fn in COMPOSITES.items():
        assert fn(direct) == fn(built) == dense_check(direct, check), check
    assert not checks.check_hom_associative(direct)


# ---------------------------------------------------------------------------
# the eps bound


def _hostile_document():
    return """{
  "field": {"kind": "rationals"},
  "group": {"free_rank": 2, "torsion_orders": []},
  "bicharacter": {"gen_table": [[1, 2], ["1/2", 1]]},
  "basis": {"degrees": [[1000000000, 0], [0, 1000000000]]},
  "product": {"triples": []},
  "alpha": {"matrix": [[1, 0], [0, 1]]}
}
"""


def test_a_rational_eps_value_past_the_bit_cap_is_a_structure_error():
    g = GradeGroup(2)
    b = make_bicharacter(Q, g, ((1, 2), (Q.parse("1/2"), 1)))
    x, y = g.element((10**9, 0)), g.element((0, 10**9))
    with pytest.raises(StructureError):
        bicharacter_eval(b, x, y)
    # values up to the cap are computed exactly
    assert bicharacter_eval(b, g.element((EPS_MAX_BITS // 2, 0)), g.element((0, 1))) == 2 ** (EPS_MAX_BITS // 2)
    # +-1 values and prime-field values stay cheap for any exponent
    signs = make_bicharacter(Q, g, ((-1, 1), (1, 1)))
    odd = g.element((10**9 + 1, 0))
    assert bicharacter_eval(signs, odd, odd) == -1
    f7 = make_bicharacter(F7, g, ((1, 2), (4, 1)))
    assert bicharacter_eval(f7, x, y) == F7.from_int(2) ** (10**18)


def test_parse_rejects_a_hostile_exponent_quickly():
    start = time.perf_counter()
    with pytest.raises(StructureError):
        parse_document(_hostile_document())
    assert time.perf_counter() - start < 5


def test_cli_check_on_a_hostile_exponent_exits_2_without_traceback(tmp_path):
    doc = tmp_path / "hostile.json"
    doc.write_text(_hostile_document(), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "colorhom", "check", str(doc), "hom_novikov"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
