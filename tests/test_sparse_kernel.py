"""The sparse kernel against a dense reference, its derived views and its eps bound.

The reference scan below is a dense evaluator: every product and map image
is a full coordinate tuple computed from algebra.structure and alpha.matrix,
and every sign comes from bicharacter_eval.  It shares no code with the
sparse kernel, so equal verdicts (identity, tuple, both sides) on random and
catalog algebras pin the sparse scans down exactly.

The kernel computes with plain ints, so the last sections check by type
that every value leaving it is a field element again, and that F_p sides
are compared mod p.
"""

import functools
import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_document_hardening import _two_dim_parts

from colorhom import checks, constructions, core, linalg
from colorhom import quadratic as quad
from colorhom.catalog import (
    CHECK,
    OPERATIONS,
    dt_derivation,
    pairing_form,
    search_maps,
    standard_entries,
    truncated_polynomial,
)
from colorhom.checks import IDENTITIES_BY_CHECK, PASS, Verdict, Witness
from colorhom.core import ColorHomAlgebra, GradedBasis, make_algebra, make_map
from colorhom.errors import HypothesisError, SingularMapError, StructureError
from colorhom.grading import (
    EPS_MAX_BITS,
    GradeGroup,
    bicharacter_eval,
    make_bicharacter,
    trivial_bicharacter,
)
from colorhom.io import parse_document, serialize_document
from colorhom.scalars import Fp, prime_field, rationals

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
    units = [linalg.unit_vector(a.field, n, i) for i in range(n)]
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
def algebra_parts(draw, field_grading=None, values=VALUES):
    """(basis, bicharacter, dense structure, alpha) of a random algebra."""
    field, grading = field_grading or draw(st.sampled_from(GRADINGS))
    group, bichar = grading(field)
    n = draw(st.integers(1, 4))
    elements = [group.element(c) for c in iproduct(*(range(m) for m in group.torsion_orders))]
    degrees = tuple(draw(st.sampled_from(elements)) for _ in range(n))
    basis = GradedBasis(field, group, degrees)
    # dense cells fill every admissible k; sparse cells hold at most one entry
    dense = draw(st.booleans())
    fill = draw(st.sampled_from((2, 6, 10)))  # in tenths
    value = st.sampled_from(values)
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
    return basis, bichar, structure, make_map(basis, alpha)


def algebras(field_grading=None, values=VALUES):
    return algebra_parts(field_grading, values).map(lambda parts: make_algebra(*parts))


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
        split = [linalg.homogeneous_components(a.basis, v) for v in vectors]
        for combo in iproduct(*split):
            left, right = _d_sides(a, name, [d for d, _ in combo], [v for _, v in combo])
            expected = _d_add(expected, _d_sub(left, right))
        assert linalg.identity_residual_on_vectors(a, name, vectors) == expected


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
        linalg.identity_sides(a, "epsilon-commutativity", (zero, zero), ((Q.one,) * 3, (Q.one,) * 2))
    with pytest.raises(StructureError):
        linalg.identity_sides(a, "hom-associativity", (zero,) * 3, ((Q.one,) * 4,) * 3)


def test_identity_residual_rejects_a_wrong_length_vector():
    a = standard_entries(Q)[2].algebra
    with pytest.raises(StructureError):
        linalg.identity_residual_on_vectors(a, "left-symmetry", ((Q.one,) * 3, (Q.one,) * 3, (Q.one,) * 2))
    with pytest.raises(StructureError):
        linalg.identity_residual_on_vectors(a, "skew-symmetry", ((Q.one,) * 4, (Q.one,) * 3))


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


# ---------------------------------------------------------------------------
# operator predicates and constructions against dense references
#
# The references below are the dense loops the operator predicates and the
# constructions ran before they moved onto the shared scan loop and the
# sparse-cell builder, rewritten over the dense evaluator above.  Maps are
# applied through their matrices and basis images are map columns.  Hypothesis
# gates of the reference constructions call the reference predicates and
# dense_check, so only compose_maps, map_power, invert_map and make_algebra
# are shared with the code under test.


def _d_map(m, x):
    n = len(m.matrix)
    out = [m.basis.field.zero] * n
    for k, i in iproduct(range(n), repeat=2):
        if m.matrix[k][i] != 0 and x[i] != 0:
            out[k] = out[k] + m.matrix[k][i] * x[i]
    return tuple(out)


def _d_unit(a, i):
    return linalg.unit_vector(a.field, a.dim, i)


def _fail(identity, indices, left, right):
    return Verdict(False, Witness(identity, tuple(indices), left, right))


def _d_require_shared_space(a, b):
    if a.basis != b.basis:
        raise StructureError("the two algebras must share a basis")
    if a.bicharacter != b.bicharacter:
        raise StructureError("the two algebras must share a bicharacter")


def _d_require_even_endo(a, f, role):
    if f.basis != a.basis:
        raise StructureError(f"{role} lives on a different basis")
    if not f.is_even:
        raise StructureError(f"{role} must be even (degree 0)")


def _d_columns_agree(a, name, left_of, right_of):
    for i in range(a.dim):
        left, right = left_of(i), right_of(i)
        if left != right:
            return _fail(name, (i,), left, right)
    return PASS


def ref_commutes_with_twist(a, f):
    if f.basis != a.basis:
        raise StructureError("composition needs a shared basis")
    return _d_columns_agree(
        a, "twist-commutation",
        lambda i: _d_map(a.alpha, f.column(i)), lambda i: _d_map(f, a.alpha.column(i)),
    )


def ref_check_involutive(a):
    return _d_columns_agree(
        a, "involution", lambda i: _d_map(a.alpha, a.alpha.column(i)), lambda i: _d_unit(a, i)
    )


def ref_is_weak_morphism(a, b, f):
    _d_require_shared_space(a, b)
    _d_require_even_endo(a, f, "morphism candidate")
    for i, j in iproduct(range(a.dim), repeat=2):
        left = _d_map(f, a.structure[i][j])
        right = _d_mul(b, f.column(i), f.column(j))
        if left != right:
            return _fail("product-morphism", (i, j), left, right)
    return PASS


def ref_is_morphism(a, b, f):
    v = ref_is_weak_morphism(a, b, f)
    if not v:
        return v
    return _d_columns_agree(
        a, "twist-compatibility",
        lambda i: _d_map(f, a.alpha.column(i)), lambda i: _d_map(b.alpha, f.column(i)),
    )


def ref_is_derivation(a, d, degree=None):
    if d.basis != a.basis:
        raise StructureError("derivation candidate lives on a different basis")
    if degree is not None and degree != d.degree:
        raise StructureError("declared degree disagrees with the map's degree")
    for i, j in iproduct(range(a.dim), repeat=2):
        left = _d_map(d, a.structure[i][j])
        first = _d_mul(a, d.column(i), _d_unit(a, j))
        second = _d_scale(_d_eps(a, d.degree, a.degrees[i]), _d_mul(a, _d_unit(a, i), d.column(j)))
        right = _d_add(first, second)
        if left != right:
            return _fail("leibniz", (i, j), left, right)
    return PASS


def _d_sided(a, f, side, role, name, lhs, left_rhs, right_rhs):
    _d_require_even_endo(a, f, role)
    if side not in ("left", "right", "both"):
        raise StructureError(f"side must be left/right/both, got {side!r}")
    v = ref_commutes_with_twist(a, f)
    if not v:
        return v
    for i, j in iproduct(range(a.dim), repeat=2):
        left = lhs(i, j)
        if side in ("left", "both"):
            right = left_rhs(i, j)
            if left != right:
                return _fail(f"left-{name}", (i, j), left, right)
        if side in ("right", "both"):
            right = right_rhs(i, j)
            if left != right:
                return _fail(f"right-{name}", (i, j), left, right)
    return PASS


def ref_is_averaging(a, f, side="both"):
    return _d_sided(
        a, f, side, "averaging candidate", "averaging",
        lambda i, j: _d_mul(a, f.column(i), f.column(j)),
        lambda i, j: _d_map(f, _d_mul(a, f.column(i), _d_unit(a, j))),
        lambda i, j: _d_map(f, _d_mul(a, _d_unit(a, i), f.column(j))),
    )


def ref_is_centroid(a, f, side="both"):
    return _d_sided(
        a, f, side, "centroid candidate", "centroid",
        lambda i, j: _d_map(f, a.structure[i][j]),
        lambda i, j: _d_mul(a, f.column(i), _d_unit(a, j)),
        lambda i, j: _d_mul(a, _d_unit(a, i), f.column(j)),
    )


def ref_is_rota_baxter(l, r, weight):
    _d_require_even_endo(l, r, "operator")
    lam = l.field.coerce(weight)
    v = ref_commutes_with_twist(l, r)
    if not v:
        return v
    for i, j in iproduct(range(l.dim), repeat=2):
        left = _d_mul(l, r.column(i), r.column(j))
        inner = _d_add(_d_mul(l, r.column(i), _d_unit(l, j)), _d_mul(l, _d_unit(l, i), r.column(j)))
        inner = _d_add(inner, _d_scale(lam, l.structure[i][j]))
        right = _d_map(r, inner)
        if left != right:
            return _fail("rota-baxter", (i, j), left, right)
    return PASS


def ref_in_alpha_center(l, x):
    if len(x) != l.dim:
        raise StructureError(f"vectors must have length {l.dim}")
    return all(not any(_d_mul(l, x, l.alpha.column(j))) for j in range(l.dim))


def ref_check_bracket_operator_conditions(l, f):
    _d_require_even_endo(l, f, "operator")
    v = ref_commutes_with_twist(l, f)
    if not v:
        return v
    n = l.dim
    zero = tuple(l.field.zero for _ in range(n))
    for i, j in iproduct(range(n), repeat=2):
        inner = _d_add(_d_mul(l, f.column(i), _d_unit(l, j)), _d_mul(l, _d_unit(l, i), f.column(j)))
        defect = _d_sub(_d_map(f, inner), _d_mul(l, f.column(i), f.column(j)))
        if any(defect):
            for k in range(n):
                probe = _d_mul(l, defect, l.alpha.column(k))
                if any(probe):
                    return _fail("defect-centrality", (i, j, k), probe, zero)
    for i, j, k in iproduct(range(n), repeat=3):
        fij = _d_map(f, _d_mul(l, f.column(i), _d_unit(l, j)))
        fik = _d_map(f, _d_mul(l, f.column(i), _d_unit(l, k)))
        left = _d_mul(l, fij, l.alpha.column(k))
        right = _d_scale(_d_eps(l, l.degrees[j], l.degrees[k]), _d_mul(l, fik, l.alpha.column(j)))
        if left != right:
            return _fail("operator-right-commutativity", (i, j, k), left, right)
    return PASS


def _outcome(fn):
    """A call's result, or the type and message of the error it raised."""
    try:
        result = fn()
    except (StructureError, HypothesisError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, ColorHomAlgebra):
        return result.structure, result.alpha.matrix, result.degrees
    return result


def _targets(a):
    """a and two algebras on a's basis and bicharacter with another product and twist."""
    doubled = constructions.yau_twist(a, core.scalar_map(a.basis, 2), checked=False)
    return [("a", a), ("[a]", constructions.commutator_algebra(a)), ("2a", doubled)]


def _predicate_pairs(a, f, targets):
    """(label, code under test, reference) for every operator predicate on (a, f).

    The two-algebra predicates run from a to each (label, b) of targets.
    """
    pairs = [
        ("commutes_with_twist", lambda: checks.commutes_with_twist(a, f), lambda: ref_commutes_with_twist(a, f)),
    ]
    for to, b in targets:
        pairs.append((f"is_weak_morphism to {to}", lambda b=b: checks.is_weak_morphism(a, b, f),
                      lambda b=b: ref_is_weak_morphism(a, b, f)))
        pairs.append((f"is_morphism to {to}", lambda b=b: checks.is_morphism(a, b, f),
                      lambda b=b: ref_is_morphism(a, b, f)))
    pairs += [
        ("is_derivation", lambda: checks.is_derivation(a, f), lambda: ref_is_derivation(a, f)),
        ("bracket_operator_conditions", lambda: checks.check_bracket_operator_conditions(a, f),
         lambda: ref_check_bracket_operator_conditions(a, f)),
    ]
    for side in ("left", "right", "both"):
        pairs.append((f"is_averaging {side}", lambda side=side: checks.is_averaging(a, f, side),
                      lambda side=side: ref_is_averaging(a, f, side)))
        pairs.append((f"is_centroid {side}", lambda side=side: checks.is_centroid(a, f, side),
                      lambda side=side: ref_is_centroid(a, f, side)))
    for weight in (0, 1):
        pairs.append((f"is_rota_baxter {weight}", lambda w=weight: checks.is_rota_baxter(a, f, w),
                      lambda w=weight: ref_is_rota_baxter(a, f, w)))
    return pairs


def assert_predicates_match_reference(a, maps):
    assert checks.check_involutive(a) == ref_check_involutive(a)
    assert checks.check_multiplicative(a) == ref_is_weak_morphism(a, a, a.alpha)
    targets = _targets(a)
    for f in maps:
        for label, fn, ref in _predicate_pairs(a, f, targets):
            assert _outcome(fn) == _outcome(ref), label
        x = f.column(0)
        assert checks.in_alpha_center(a, x) == ref_in_alpha_center(a, x)


# dense reference constructions


def _d_require(op, requirement, verdict):
    if not verdict:
        raise HypothesisError(op, requirement, verdict)


def _d_assemble(basis, bicharacter, cell, alpha):
    n = basis.dim
    structure = tuple(tuple(cell(i, j) for j in range(n)) for i in range(n))
    return make_algebra(basis, bicharacter, structure, alpha)


def _d_mapped(f, a):
    return lambda i, j: _d_map(f, a.structure[i][j])


def ref_yau_twist(a, beta, checked):
    if checked:
        _d_require("yau_twist", "weak-morphism", ref_is_weak_morphism(a, a, beta))
        _d_require("yau_twist", "hom-novikov", dense_check(a, "hom_novikov"))
    return _d_assemble(a.basis, a.bicharacter, _d_mapped(beta, a), core.compose_maps(beta, a.alpha))


def ref_power_twist(a, n, checked):
    if not isinstance(n, int) or n < 0:
        raise StructureError(f"power_twist wants n >= 0, got {n!r}")
    if checked:
        _d_require("power_twist", "multiplicative", ref_is_weak_morphism(a, a, a.alpha))
        _d_require("power_twist", "hom-novikov", dense_check(a, "hom_novikov"))
    an = linalg.map_power(a.alpha, n)
    return _d_assemble(a.basis, a.bicharacter, _d_mapped(an, a), linalg.map_power(a.alpha, n + 1))


def ref_centroid_twist(a, beta, checked):
    if checked:
        _d_require("centroid_twist", "centroid", ref_is_centroid(a, beta, "both"))
        _d_require("centroid_twist", "hom-novikov", dense_check(a, "hom_novikov"))
    return _d_assemble(a.basis, a.bicharacter, _d_mapped(beta, a), a.alpha)


def ref_xi_square_twist(a, xi, checked):
    if len(xi) != a.dim:
        raise StructureError(f"xi must have length {a.dim}")
    xi = tuple(a.field.coerce(v) for v in xi)
    if checked:
        if any(not d.is_zero for d, _ in linalg.homogeneous_components(a.basis, xi)):
            raise HypothesisError(
                "xi_square_twist", "xi-degree-zero", detail="xi has a component of nonzero degree"
            )
        _d_require("xi_square_twist", "epsilon-commutative", dense_check(a, "epsilon_commutative"))
        _d_require("xi_square_twist", "hom-associative", dense_check(a, "hom_associative"))
    return _d_assemble(
        a.basis, a.bicharacter, lambda i, j: _d_mul(a, xi, a.structure[i][j]), linalg.map_power(a.alpha, 2)
    )


def ref_commutator_algebra(a, checked):
    return make_algebra(a.basis, a.bicharacter, _dense_commutator(a), a.alpha)


def ref_derivation_product(a, d, checked):
    op = "derivation_product"
    if checked:
        _d_require(op, "epsilon-commutative", dense_check(a, "epsilon_commutative"))
        _d_require(op, "hom-associative", dense_check(a, "hom_associative"))
        if not d.is_even:
            raise HypothesisError(op, "even-derivation", detail="derivation has nonzero degree")
        _d_require(op, "derivation", ref_is_derivation(a, d))
        _d_require(op, "twist-commutation", ref_commutes_with_twist(a, d))
    return _d_assemble(a.basis, a.bicharacter, lambda i, j: _d_mul(a, _d_unit(a, i), d.column(j)), a.alpha)


def ref_composed_derivation_product(a, d, checked):
    op = "composed_derivation_product"
    m = a.alpha
    plain = make_algebra(a.basis, a.bicharacter, a.structure, core.identity_map(a.basis))
    if checked:
        _d_require(op, "epsilon-commutative", dense_check(plain, "epsilon_commutative"))
        _d_require(op, "associative", dense_check(plain, "hom_associative"))
        _d_require(op, "weak-morphism", ref_is_weak_morphism(plain, plain, m))
        if not d.is_even:
            raise HypothesisError(op, "even-derivation", detail="derivation has nonzero degree")
        _d_require(op, "derivation", ref_is_derivation(plain, d))
        if core.compose_maps(d, m).matrix != core.compose_maps(m, d).matrix:
            raise HypothesisError(
                op, "twist-commutation", detail="derivation does not commute with the morphism"
            )
    return _d_assemble(
        a.basis, a.bicharacter, lambda i, j: _d_map(m, _d_mul(a, _d_unit(a, i), d.column(j))), m
    )


def ref_averaging_product(a, f, checked):
    op = "averaging_product"
    if checked:
        _d_require(op, "epsilon-commutative", dense_check(a, "epsilon_commutative"))
        _d_require(op, "hom-novikov", dense_check(a, "hom_novikov"))
        _d_require(op, "averaging", ref_is_averaging(a, f, "both"))
    return _d_assemble(a.basis, a.bicharacter, lambda i, j: _d_mul(a, _d_unit(a, i), f.column(j)), a.alpha)


def ref_bracket_operator_product(l, f, checked):
    if not f.is_even:
        raise StructureError("operator must be even (degree 0)")
    if f.basis != l.basis:
        raise StructureError("operator lives on a different basis")
    if checked:
        _d_require("bracket_operator_product", "hom-lie", dense_check(l, "hom_lie"))
        _d_require("bracket_operator_product", "twist-commutation", ref_commutes_with_twist(l, f))
    return _d_assemble(l.basis, l.bicharacter, lambda i, j: _d_mul(l, f.column(i), _d_unit(l, j)), l.alpha)


def _d_require_shared_grading(s, a, what):
    if s.field != a.field:
        raise StructureError(f"{what} needs a shared scalar field")
    if s.group != a.group:
        raise StructureError(f"{what} needs a shared grading group")
    if s.bicharacter != a.bicharacter:
        raise StructureError(f"{what} needs a shared bicharacter")


def ref_direct_sum(a, b, checked):
    _d_require_shared_grading(a, b, "direct sum")
    na, n = a.dim, a.dim + b.dim
    basis = GradedBasis(a.field, a.group, a.degrees + b.degrees)
    zero = a.field.zero

    def block(matrix_a, matrix_b, k, i):
        if k < na and i < na:
            return matrix_a(k, i)
        if k >= na and i >= na:
            return matrix_b(k - na, i - na)
        return zero

    def cell(i, j):
        return tuple(
            block(lambda p, q: a.structure[p][q][k] if k < na else zero,
                  lambda p, q: b.structure[p][q][k - na] if k >= na else zero, i, j)
            for k in range(n)
        )

    alpha = core.GradedLinearMap(basis, tuple(
        tuple(block(lambda p, q: a.alpha.matrix[p][q], lambda p, q: b.alpha.matrix[p][q], k, i)
              for i in range(n))
        for k in range(n)
    ))
    return _d_assemble(basis, a.bicharacter, cell, alpha)


def ref_tensor_product(s, a, checked):
    _d_require_shared_grading(s, a, "tensor product")
    if checked:
        _d_require("tensor_product", "hom-novikov(first factor)", dense_check(s, "hom_novikov"))
        _d_require("tensor_product", "epsilon-commutative(second factor)", dense_check(a, "epsilon_commutative"))
        _d_require("tensor_product", "hom-associative(second factor)", dense_check(a, "hom_associative"))
    ns, na = s.dim, a.dim
    n = ns * na
    basis = GradedBasis(s.field, s.group, tuple(s.degrees[i] + a.degrees[p] for i in range(ns) for p in range(na)))
    zero = s.field.zero
    structure = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, p, j, q in iproduct(range(ns), range(na), range(ns), range(na)):
        sign = _d_eps(s, a.degrees[p], s.degrees[j])
        for k, r in iproduct(range(ns), range(na)):
            term = sign * s.structure[i][j][k] * a.structure[p][q][r]
            if term != 0:
                structure[i * na + p][j * na + q][k * na + r] += term
    alpha = core.GradedLinearMap(basis, tuple(
        tuple(s.alpha.matrix[k][i] * a.alpha.matrix[r][p] for i in range(ns) for p in range(na))
        for k in range(ns) for r in range(na)
    ))
    return _d_assemble(basis, s.bicharacter, lambda i, j: tuple(structure[i][j]), alpha)


def ref_untwist_involutive(a, checked):
    if checked:
        _d_require("untwist_involutive", "involutive", ref_check_involutive(a))
        _d_require("untwist_involutive", "multiplicative", ref_is_weak_morphism(a, a, a.alpha))
        _d_require("untwist_involutive", "hom-novikov", dense_check(a, "hom_novikov"))
    return _d_assemble(a.basis, a.bicharacter, _d_mapped(a.alpha, a), core.identity_map(a.basis))


def ref_regular_lie_untwist(a, checked):
    if checked:
        _d_require("regular_lie_untwist", "hom-novikov", dense_check(a, "hom_novikov"))
    try:
        inv = linalg.invert_map(a.alpha)
    except SingularMapError:
        raise HypothesisError("regular_lie_untwist", "invertible-twist", detail="alpha is singular") from None
    bracket = _dense_commutator(a)
    return _d_assemble(
        a.basis, a.bicharacter, lambda i, j: _d_map(inv, bracket[i][j]), core.identity_map(a.basis)
    )


# construction name -> (reference, what it takes after the algebra)
REFERENCE_CONSTRUCTIONS = {
    "yau_twist": (ref_yau_twist, "map"),
    "power_twist": (ref_power_twist, "n"),
    "centroid_twist": (ref_centroid_twist, "map"),
    "xi_square_twist": (ref_xi_square_twist, "xi"),
    "commutator_algebra": (ref_commutator_algebra, None),
    "derivation_product": (ref_derivation_product, "map"),
    "composed_derivation_product": (ref_composed_derivation_product, "map"),
    "averaging_product": (ref_averaging_product, "map"),
    "bracket_operator_product": (ref_bracket_operator_product, "map"),
    "direct_sum": (ref_direct_sum, "with"),
    "tensor_product": (ref_tensor_product, "with"),
    "untwist_involutive": (ref_untwist_involutive, None),
    "regular_lie_untwist": (ref_regular_lie_untwist, None),
}


def test_the_construction_references_cover_every_construction():
    assert set(REFERENCE_CONSTRUCTIONS) == set(constructions.__all__)


def assert_constructions_match_reference(a, maps, others):
    xis = [_d_unit(a, i) for i in range(a.dim)] + [tuple(a.field.from_int(k + 1) for k in range(a.dim))]
    arguments = {"map": maps, "n": (0, 1, 2), "xi": xis, "with": others, None: (None,)}
    for name, (ref, takes) in REFERENCE_CONSTRUCTIONS.items():
        fn = getattr(constructions, name)
        for arg in arguments[takes]:
            args = () if takes is None else (arg,)
            for checked in (True, False):
                kwargs = {} if name in ("commutator_algebra", "direct_sum") else {"checked": checked}
                got = _outcome(lambda: fn(a, *args, **kwargs))
                assert got == _outcome(lambda: ref(a, *args, checked)), (name, checked)


def _ones(basis, degree, source=None):
    """Ones wherever a map of the given degree may be nonzero, on the source degree if one is given."""
    degrees, field = basis.degrees, basis.field
    rows = [
        [field.one if degrees[k] == degrees[i] + degree and source in (None, degrees[i]) else field.zero
         for i in range(basis.dim)]
        for k in range(basis.dim)
    ]
    return make_map(basis, rows, degree)


def _map_pool(a, extra=()):
    """alpha, scalars, grade projections and maps of up to three nonzero degrees, plus extra."""
    basis = a.basis
    degrees = list(dict.fromkeys(basis.degrees))
    shifts = [g for g in dict.fromkeys(d + (-e) for d in degrees for e in degrees) if not g.is_zero]
    return [
        a.alpha, core.identity_map(basis), core.scalar_map(basis, 0), core.scalar_map(basis, 2),
        *(_ones(basis, basis.group.zero(), d) for d in degrees),
        *(_ones(basis, g) for g in shifts[:3]),
        *extra,
    ]


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_operator_predicates_match_the_dense_reference_on_the_catalog(field):
    for entry in standard_entries(field):
        assert_predicates_match_reference(entry.algebra, _map_pool(entry.algebra, entry.maps.values()))


@pytest.mark.parametrize("field", [Q, prime_field(3), prime_field(5), F7], ids=str)
def test_constructions_match_the_dense_reference_on_the_catalog(field):
    entries = standard_entries(field)
    for entry in entries:
        a = entry.algebra
        others = [e.algebra for e in entries if e.algebra.dim <= 3][:4] + [a]
        assert_constructions_match_reference(a, _map_pool(a, entry.maps.values()), others)


@st.composite
def homogeneous_maps(draw, basis, values=VALUES):
    """A random map of a random degree drawn from the basis degrees' differences."""
    degrees = basis.degrees
    degree = draw(st.sampled_from([d + (-e) for d in degrees for e in degrees]))
    n, field = basis.dim, basis.field
    rows = [[field.zero] * n for _ in range(n)]
    for k, i in iproduct(range(n), repeat=2):
        if degrees[k] == degrees[i] + degree and draw(st.booleans()):
            rows[k][i] = field.from_int(draw(st.sampled_from(values)))
    return make_map(basis, rows, degree)


@st.composite
def algebras_with_maps(draw):
    field_grading = draw(st.sampled_from(GRADINGS))
    a = draw(algebras(field_grading))
    even = [draw(homogeneous_maps(a.basis).filter(lambda m: m.is_even)) for _ in range(2)]
    graded = draw(homogeneous_maps(a.basis))
    other = draw(algebras(field_grading))
    return a, even + [graded], other


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras_with_maps())
def test_operator_predicates_match_the_dense_reference_on_random_algebras(case):
    a, maps, _ = case
    assert_predicates_match_reference(a, _map_pool(a, maps))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras_with_maps())
def test_constructions_match_the_dense_reference_on_random_algebras(case):
    a, maps, other = case
    assert_constructions_match_reference(a, _map_pool(a, maps), [other, a])


def test_operator_right_commutativity_witness_carries_a_graded_sign():
    # Z2 over Q: e0 even, e1 and e2 odd; e0*e2 = e1, e2*e1 = 2 e0; f = diag(1, 2, 2).
    # The defect is alpha-central, and operator-right-commutativity holds on
    # the tuples before the witness only through eps(odd, odd) = -1, so a
    # lost sign moves the witness.
    group, bichar = _z2_sign(Q)
    basis = GradedBasis(Q, group, (group.element((0,)), group.element((1,)), group.element((1,))))
    structure = [[[Q.zero] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][2][1] = Q.one
    structure[2][1][0] = Q.from_int(2)
    a = make_algebra(basis, bichar, structure, core.identity_map(basis))
    f = make_map(basis, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    verdict = checks.check_bracket_operator_conditions(a, f)
    assert verdict == ref_check_bracket_operator_conditions(a, f)
    assert verdict.witness.identity == "operator-right-commutativity"
    assert verdict.witness.indices == (2, 1, 2)


# ---------------------------------------------------------------------------
# boxed values at the boundary
#
# The kernel holds plain ints (and, over Q, Fractions for true fractions);
# every value that leaves it must be a field element again.  1 == Fraction(1)
# and 1 == Fp(1, 7), so the == oracles above cannot see a leaked int: these
# tests compare types.


def _assert_boxed(field, values, label):
    kind = Fraction if field.characteristic == 0 else Fp
    leaked = [v for v in values if type(v) is not kind]
    assert not leaked, (label, leaked[:3])


def _cells(tensor):
    return [v for plane in tensor for cell in plane for v in cell]


def _entries(matrix):
    return [v for row in matrix for v in row]


def _assert_verdict_boxed(field, verdict, label):
    w = getattr(verdict, "witness", None)
    if w is not None and w.left is not None:
        _assert_boxed(field, w.left + w.right, label)


def _assert_result_boxed(field, result, label):
    """A check's witness, or a construction's structure, alpha and form, holds field elements."""
    if isinstance(result, tuple):  # quadratic constructions return (algebra, form)
        result, form = result
        _assert_boxed(field, _entries(form.gram), label)
    if isinstance(result, ColorHomAlgebra):
        _assert_boxed(field, _cells(result.structure) + _entries(result.alpha.matrix), label)
    else:
        _assert_verdict_boxed(field, result, label)


def _operation_calls(a, maps, forms, others):
    """(name, call) for every registry operation over every combination of the given arguments."""
    xis = [_d_unit(a, 0), tuple(a.field.from_int(k + 1) for k in range(a.dim))]
    choices = {
        "map": maps, "form": forms, "with": others, "n": (0, 2), "xi": xis,
        "weight": (0, 1, Fraction(1, 2)), "side": ("left", "right", "both"),
    }
    for name, op in OPERATIONS.items():
        for args in iproduct(*(choices[arg] for arg in op.takes)):
            if op.kind == CHECK:
                yield name, lambda op=op, args=args: op.call(a, *args)
            else:
                for checked in (True, False):
                    yield name, lambda op=op, args=args, c=checked: op.call(a, *args, c)


def assert_boundary_boxed(a, maps, forms=(), others=(), search=False):
    field, n = a.field, a.dim
    x = tuple(field.from_int(k - 1) for k in range(n))
    ints = tuple(range(1, n + 1))
    for name, arity in checks.IDENTITY_ARITY.items():
        _assert_verdict_boxed(field, checks._scan(a, name), name)
        vectors = [x, ints, x][:arity]
        _assert_boxed(field, linalg.identity_residual_on_vectors(a, name, vectors), name)
        # identity_sides takes each vector homogeneous of its stated degree: ints on the rows of deg e_0 alone
        homogeneous = tuple(v if a.degrees[k] == a.degrees[0] else 0 for k, v in enumerate(ints))
        degrees, units = [a.degrees[0]] * arity, [_d_unit(a, 0), homogeneous, _d_unit(a, 0)][:arity]
        for side in linalg.identity_sides(a, name, degrees, units):
            _assert_boxed(field, side, name)
    _assert_boxed(field, core.eval_product(a, x, ints) + core.eval_product(a, ints, ints), "eval_product")
    _assert_boxed(field, _cells(linalg.commutator_tensor(a)), "commutator_tensor")
    for f in maps:
        _assert_boxed(field, core.eval_map(f, x) + core.eval_map(f, ints), "eval_map")
        _assert_boxed(field, _entries(core.compose_maps(a.alpha, f).matrix), "compose_maps")
    for name, call in _operation_calls(a, maps, forms, others):
        try:
            result = call()
        except HypothesisError as exc:
            _assert_verdict_boxed(field, exc.verdict, name)
            continue
        except StructureError:
            continue
        _assert_result_boxed(field, result, name)
    if search:
        for predicate in ("derivation", "weak_morphism", "centroid"):
            for hit in search_maps(a, predicate, budget=300):
                _assert_boxed(field, _entries(hit.matrix), predicate)


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_values_leaving_the_kernel_are_field_elements_on_the_catalog(field):
    entries = standard_entries(field)
    for entry in entries:
        a = entry.algebra
        others = [e.algebra for e in entries if e.algebra.dim <= 3][:2] + [a]
        assert_boundary_boxed(
            a, _map_pool(a, entry.maps.values()), list(entry.forms.values()), others, search=a.dim <= 3
        )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras_with_maps())
def test_values_leaving_the_kernel_are_field_elements_on_random_algebras(case):
    a, maps, other = case
    assert_boundary_boxed(a, _map_pool(a, maps), (), [other, a])


def test_formal_derivative_witnesses_keep_their_exact_repr():
    # the witnesses the by-design failure of test_criterion_03 reports
    expected = {
        ("Q", 3): "Witness(identity='left-symmetry', indices=(0, 2, 2), left=(Fraction(0, 1), "
        "Fraction(0, 1), Fraction(4, 1)), right=(Fraction(0, 1), Fraction(0, 1), Fraction(-2, 1)))",
        ("Q", 4): "Witness(identity='left-symmetry', indices=(0, 2, 3), left=(Fraction(0, 1), "
        "Fraction(0, 1), Fraction(0, 1), Fraction(6, 1)), right=(Fraction(0, 1), Fraction(0, 1), "
        "Fraction(0, 1), Fraction(-6, 1)))",
        ("Q", 5): "Witness(identity='left-symmetry', indices=(0, 2, 4), left=(Fraction(0, 1), "
        "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(8, 1)), right=(Fraction(0, 1), "
        "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(-12, 1)))",
        ("F5", 3): "Witness(identity='left-symmetry', indices=(0, 2, 2), left=(Fp(0, 5), Fp(0, 5), "
        "Fp(4, 5)), right=(Fp(0, 5), Fp(0, 5), Fp(3, 5)))",
        ("F5", 4): "Witness(identity='left-symmetry', indices=(0, 2, 3), left=(Fp(0, 5), Fp(0, 5), "
        "Fp(0, 5), Fp(1, 5)), right=(Fp(0, 5), Fp(0, 5), Fp(0, 5), Fp(4, 5)))",
    }
    got = {}
    for field in (Q, prime_field(5)):
        for n in range(2, 6):
            base = truncated_polynomial(n, field)
            verdict = checks.check_hom_novikov(
                constructions.derivation_product(base, dt_derivation(base), checked=False)
            )
            if not verdict:
                got[(str(field), n)] = repr(verdict.witness)
    assert got == expected


# ---------------------------------------------------------------------------
# lazy reduction over F_p
#
# Over F_p the kernel never reduces: sides are ints that are right mod p.
# Sides equal as ints are equal mod p; unequal ones must be reduced before
# they count as a failure.


def _skew_pair(field):
    # trivial grading: e0*e1 = 3 e0 and e1*e0 = 4 e0
    basis = core.trivial_basis(field, 2)
    structure = [[[field.zero] * 2 for _ in range(2)] for _ in range(2)]
    structure[0][1][0] = field.from_int(3)
    structure[1][0][0] = field.from_int(4)
    return make_algebra(basis, trivial_bicharacter(field, basis.group), structure, core.identity_map(basis))


def test_sides_equal_mod_p_but_not_as_ints_pass():
    # skew-symmetry at (0, 1) compares 3 with -4 as ints, which agree only mod 7
    a = _skew_pair(F7)
    assert checks._scan(a, "skew-symmetry") == dense_scan(a, "skew-symmetry") == PASS
    # over Q the same sides differ exactly
    q = _skew_pair(Q)
    verdict = checks._scan(q, "skew-symmetry")
    assert verdict == dense_scan(q, "skew-symmetry")
    assert verdict.witness.left == (Q.from_int(3), Q.zero)


def _near_p_gradings():
    out = []
    for p in (3, 5, 7):
        field = prime_field(p)
        out += [(field, _trivial), (field, _z2_sign)]
    return out + [(F7, _z3z3_cube_root)]


@st.composite
def near_p_algebras_with_maps(draw):
    """Algebras and maps over F3/F5/F7 whose constants sit just below p."""
    field, grading = draw(st.sampled_from(_near_p_gradings()))
    p = field.p
    values = (p - 1, p - 2, (p + 1) // 2, 1)
    a = draw(algebras((field, grading), values))
    maps = [draw(homogeneous_maps(a.basis, values)) for _ in range(2)]
    return a, maps, draw(algebras((field, grading), values))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_p_algebras_with_maps())
def test_near_p_constants_match_the_dense_reference(case):
    a, maps, other = case
    assert_matches_reference(a)
    assert_predicates_match_reference(a, _map_pool(a, maps))
    assert_constructions_match_reference(a, _map_pool(a, maps), [other, a])


# ---------------------------------------------------------------------------
# the stored form
#
# An algebra stores its canonical product rows; structure is built from them
# on first read.  The dense tensors below are read from the inputs (or from a
# document's triples) without colorhom.core.


def _tensor_of_document(text):
    """The dense tensor a document's triples spell out."""
    doc = json.loads(text)
    field = Q if doc["field"]["kind"] == "rationals" else prime_field(doc["field"]["p"])
    n = len(doc["basis"]["degrees"])
    tensor = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in doc["product"]["triples"]:
        tensor[i][j][k] = field.parse(v)
    return tuple(tuple(tuple(cell) for cell in plane) for plane in tensor)


def _unbuilt(a):
    return "structure" not in vars(a)


def assert_stored_form(a, tensor):
    """a.structure is the given tensor, boxed, with one shared zero cell, built once on demand."""
    assert _unbuilt(a)
    structure = a.structure
    assert structure == tensor
    assert a.structure is structure
    _assert_boxed(a.field, _cells(structure), "structure")
    zero_cells = [cell for plane in structure for cell in plane if not any(cell)]
    assert all(cell is zero_cells[0] for cell in zero_cells)
    assert all(list(cell) == sorted(cell) for row in a.product_rows for cell in row)


def assert_builds_agree(basis, bichar, tensor, alpha):
    """Dense tensor, sparse cells (keys descending) and a parsed document give one algebra."""
    dense = make_algebra(basis, bichar, tensor, alpha)
    n = basis.dim
    cells = core._algebra_from_cells(
        basis, bichar,
        [
            ((i, j), {k: c for k, c in reversed(list(enumerate(tensor[i][j]))) if c})
            for i in range(n) for j in range(n)
        ],
        alpha,
    )
    text = serialize_document(dense)
    parsed = parse_document(text).algebra
    assert dense == cells == parsed
    assert hash(dense) == hash(cells) == hash(parsed)
    assert serialize_document(cells) == serialize_document(parsed) == text
    assert _unbuilt(dense) and _unbuilt(cells) and _unbuilt(parsed)
    return dense


def test_cells_may_leave_out_empty_pairs():
    basis, bichar, alpha = _two_dim_parts(Q)
    tensor = (((1, 0), (0, 0)), ((0, 2), (3, 0)))
    a = assert_builds_agree(basis, bichar, tensor, alpha)
    cells = [((0, 0), {0: 1}), ((1, 0), {1: 2}), ((1, 1), {0: 3})]
    assert core._algebra_from_cells(basis, bichar, cells, alpha) == a
    assert core._algebra_from_cells(basis, bichar, (), alpha).product_rows == ((core._EMPTY,) * 2,) * 2


@pytest.mark.parametrize(
    "cells",
    [
        [((1, 0), {1: 1}), ((0, 1), {1: 1})],
        [((0, 1), {1: 1}), ((0, 1), {1: 1})],
        # an empty cell out of order is rejected too: it moves the row-major first uneven (i, j, k)
        [((1, 1), {}), ((0, 0), {1: 1})],
        [((0, 2), {0: 1})],
        [((2, 0), {0: 1})],
        [((0, -1), {0: 1})],
        [((-1, 1), {0: 1})],
    ],
    ids=["rows-swapped", "repeated", "empty-then-uneven", "column-past-n", "row-past-n", "negative-column", "negative-row"],
)
def test_cells_out_of_row_major_order_or_range_are_rejected(cells):
    basis, bichar, alpha = _two_dim_parts(Q)
    with pytest.raises(StructureError, match=r"out of row-major order or range"):
        core._algebra_from_cells(basis, bichar, cells, alpha)


def _perturbed(tensor, degrees, field):
    """The tensor with one admissible constant moved by one, or None if no constant is admissible."""
    n = len(degrees)
    spots = [(i, j, k) for i, j, k in iproduct(range(n), repeat=3) if degrees[k] == degrees[i] + degrees[j]]
    if not spots:
        return None
    i, j, k = spots[0]
    out = [[list(cell) for cell in plane] for plane in tensor]
    out[i][j][k] = out[i][j][k] + field.one
    return out


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebra_parts())
def test_the_stored_form_on_random_algebras(parts):
    basis, bichar, structure, alpha = parts
    tensor = tuple(tuple(tuple(cell) for cell in plane) for plane in structure)
    a = assert_builds_agree(basis, bichar, tensor, alpha)
    assert_stored_form(a, tensor)
    other = _perturbed(tensor, basis.degrees, basis.field)
    if other is not None:
        assert make_algebra(basis, bichar, other, alpha) != a


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_the_stored_form_on_the_catalog(field):
    for entry in standard_entries(field):
        a = parse_document(serialize_document(entry.algebra)).algebra
        tensor = _tensor_of_document(serialize_document(a))
        assert_builds_agree(a.basis, a.bicharacter, tensor, a.alpha)
        assert_stored_form(a, tensor)
        other = _perturbed(tensor, a.degrees, field)
        assert make_algebra(a.basis, a.bicharacter, other, a.alpha) != a


def test_repr_shows_the_dense_structure():
    basis = core.trivial_basis(Q, 1)
    a = make_algebra(basis, trivial_bicharacter(Q, basis.group), [[[Fraction(1, 2)]]], core.identity_map(basis))
    trivial = "GradeGroup(free_rank=0, torsion_orders=())"
    rational_basis = (
        f"GradedBasis(field=ScalarField(kind='rationals', p=None), group={trivial}, "
        f"degrees=(GroupElement(group={trivial}, coords=()),))"
    )
    assert repr(a) == (
        f"ColorHomAlgebra(basis={rational_basis}, bicharacter=Bicharacter(field=ScalarField("
        f"kind='rationals', p=None), group={trivial}, gen_table=()), structure=(((Fraction(1, 2),),),), "
        f"alpha=GradedLinearMap(basis={rational_basis}, matrix=((Fraction(1, 1),),), "
        f"degree=GroupElement(group={trivial}, coords=())))"
    )
    for entry in standard_entries(F7):
        b = entry.algebra
        assert repr(b) == (
            f"ColorHomAlgebra(basis={b.basis!r}, bicharacter={b.bicharacter!r}, "
            f"structure={b.structure!r}, alpha={b.alpha!r})"
        )


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_parsing_checking_constructing_and_serializing_never_build_structure(field):
    entries = standard_entries(field)
    fresh = [parse_document(serialize_document(e.algebra, maps=e.maps, forms=e.forms)) for e in entries]
    others = [doc.algebra for doc in fresh if doc.algebra.dim <= 3][:2]
    for entry, doc in zip(entries, fresh):
        a = doc.algebra
        maps = _map_pool(a, doc.maps.values())
        for name, call in _operation_calls(a, maps, list(doc.forms.values()), others + [a]):
            try:
                result = call()
            except (HypothesisError, StructureError):
                continue
            if isinstance(result, tuple):  # quadratic constructions return (algebra, form)
                result = result[0]
            if isinstance(result, ColorHomAlgebra):
                serialize_document(result)
                assert _unbuilt(result), name
        serialize_document(a, maps=doc.maps, forms=doc.forms)
        assert all(_unbuilt(b) for b in [a] + others), entry.recipe


# ---------------------------------------------------------------------------
# dense references for the quadratic clauses
#
# Pairings of dense columns against unit vectors and the dense product
# m^T g, as the quadratic module computed them before it paired sparse
# columns.  The clauses before B-symmetry are evaluated densely too: signs
# from bicharacter_eval, products from the structure tensor.


def ref_transpose_times(field, m, g):
    """rows of m^T g: result[i][j] = sum_a m[a][i] g[a][j]."""
    n = len(g)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = field.zero
            for a_ in range(n):
                v, w = m[a_][i], g[a_][j]
                if v != 0 and w != 0:
                    acc = acc + v * w
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _d_b_symmetry(a, f, m, identity):
    n = a.dim
    for i, j in iproduct(range(n), repeat=2):
        left = quad.form_value(f, m.column(i), _d_unit(a, j))
        right = quad.form_value(f, _d_unit(a, i), m.column(j))
        if left != right:
            return _fail(identity, (i, j), (left,), (right,))
    return PASS


def ref_check_quadratic_structure(a, f):
    if f.basis != a.basis:
        raise StructureError("form lives on a different basis")
    n, gram, beta = a.dim, f.gram, f.companion
    for i, j in iproduct(range(n), repeat=2):
        left = gram[i][j]
        right = _d_eps(a, a.degrees[i], a.degrees[j]) * gram[j][i]
        if left != right:
            return _fail("epsilon-symmetry", (i, j), (left,), (right,))
    if linalg.determinant(a.field, gram) == 0:
        return _fail("nondegeneracy", (), None, None)
    for k, j, i in iproduct(range(n), repeat=3):
        left = quad.form_value(f, a.structure[i][j], beta.column(k))
        right = quad.form_value(f, beta.column(i), a.structure[j][k])
        if left != right:
            return _fail("invariance", (i, j, k), (left,), (right,))
    return _d_b_symmetry(a, f, a.alpha, "twist-b-symmetry")


def ref_is_symmetric_automorphism(a, f, phi):
    if f.basis != a.basis:
        raise StructureError("form lives on a different basis")
    _d_require_even_endo(a, phi, "map")
    if linalg.matrix_rank(a.field, phi.matrix) != a.dim:
        return _fail("invertibility", (), None, None)
    v = ref_is_morphism(a, a, phi)
    if not v:
        return v
    return _d_b_symmetry(a, f, phi, "b-symmetry")


def _d_form(f, gram, companion):
    return quad.BilinearFormStructure(f.basis, gram, companion, require_even=f.require_even)


def _d_require_companion(op, f, companion, what):
    if f.companion.matrix != companion.matrix:
        raise StructureError(f"{op} expects {what}")


# the gates repeat per map and per checked flag: each reference verdict is computed once
_d_hom_novikov = functools.cache(lambda a: dense_check(a, "hom_novikov"))
_d_quadratic_structure = functools.cache(ref_check_quadratic_structure)


def ref_quadratic_yau_twist(a, f, beta, checked):
    op = "quadratic_yau_twist"
    _d_require_companion(op, f, core.identity_map(f.basis), "a form with identity companion")
    if checked:
        _d_require(op, "hom-novikov", _d_hom_novikov(a))
        _d_require(op, "quadratic-structure", _d_quadratic_structure(a, f))
        _d_require(op, "symmetric-automorphism", ref_is_symmetric_automorphism(a, f, beta))
    twisted = ref_yau_twist(a, beta, False)
    gram = ref_transpose_times(a.field, beta.matrix, f.gram)
    return twisted, _d_form(f, gram, core.identity_map(a.basis))


def ref_quadratic_commutator(a, f, checked):
    op = "quadratic_commutator"
    _d_require_companion(op, f, core.identity_map(f.basis), "a form with identity companion")
    if checked:
        _d_require(op, "hom-novikov", _d_hom_novikov(a))
        _d_require(op, "quadratic-structure", _d_quadratic_structure(a, f))
    return ref_commutator_algebra(a, False), f


def ref_regular_quadratic_commutator(a, f, checked):
    op = "regular_quadratic_commutator"
    _d_require_companion(op, f, a.alpha, "the twisting map as companion")
    if checked:
        _d_require(op, "hom-novikov", _d_hom_novikov(a))
        _d_require(op, "quadratic-structure", _d_quadratic_structure(a, f))
    try:
        linalg.invert_map(a.alpha)
    except SingularMapError:
        raise HypothesisError(op, "invertible-twist", detail="alpha is singular") from None
    gram = ref_transpose_times(a.field, a.alpha.matrix, f.gram)
    return ref_commutator_algebra(a, False), _d_form(f, gram, a.alpha)


def ref_quadratic_untwist_involutive(a, f, checked):
    op = "quadratic_untwist_involutive"
    _d_require_companion(op, f, a.alpha, "the twisting map as companion")
    if checked:
        _d_require(op, "involutive", ref_check_involutive(a))
        _d_require(op, "multiplicative", ref_is_weak_morphism(a, a, a.alpha))
        _d_require(op, "hom-novikov", _d_hom_novikov(a))
        _d_require(op, "quadratic-structure", _d_quadratic_structure(a, f))
    return ref_untwist_involutive(a, False), _d_form(f, f.gram, core.identity_map(a.basis))


REFERENCE_QUADRATIC = {
    "quadratic_yau_twist": ref_quadratic_yau_twist,
    "quadratic_commutator": ref_quadratic_commutator,
    "regular_quadratic_commutator": ref_regular_quadratic_commutator,
    "quadratic_untwist_involutive": ref_quadratic_untwist_involutive,
}


def _quadratic_outcome(fn):
    """repr of a call's verdict or (algebra, form) result, or of the error it raised."""
    result = _outcome(fn)
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], quad.BilinearFormStructure):
        b, form = result
        result = (b.structure, b.alpha.matrix, form.gram, form.companion.matrix, form.require_even)
    return repr(result)


def _quadratic_forms(a, forms=()):
    """forms, plus for each of the companions identity and alpha: ones on the even pairs,
    the zero form, the identity Gram (not required even) and, trivially graded, the pairing."""
    basis, field, n, degs = a.basis, a.field, a.dim, a.degrees
    ones = [[field.one if (degs[i] + degs[j]).is_zero else field.zero for j in range(n)] for i in range(n)]
    unit = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    out = list(forms)
    for companion in (core.identity_map(basis), a.alpha):
        out.append(quad.BilinearFormStructure(basis, ones, companion))
        out.append(quad.BilinearFormStructure(basis, [[0] * n] * n, companion))
        out.append(quad.BilinearFormStructure(basis, unit, companion, require_even=False))
        if all(d.is_zero for d in degs):
            out.append(pairing_form(a, companion))
    return out


def assert_quadratic_matches_reference(a, forms, maps):
    for f in forms:
        got = _quadratic_outcome(lambda: quad.check_quadratic_structure(a, f))
        assert got == _quadratic_outcome(lambda: ref_check_quadratic_structure(a, f))
        for m in maps:
            got = _quadratic_outcome(lambda: quad.is_symmetric_automorphism(a, f, m))
            assert got == _quadratic_outcome(lambda: ref_is_symmetric_automorphism(a, f, m))
        for name, ref in REFERENCE_QUADRATIC.items():
            fn = getattr(quad, name)
            for args in [(m,) for m in maps] if name == "quadratic_yau_twist" else [()]:
                for checked in (True, False):
                    got = _quadratic_outcome(lambda: fn(a, f, *args, checked=checked))
                    assert got == _quadratic_outcome(lambda: ref(a, f, *args, checked)), (name, checked)


def test_the_quadratic_references_cover_every_quadratic_construction():
    checks_and_forms = {"BilinearFormStructure", "form_value", "check_quadratic_structure", "is_symmetric_automorphism"}
    assert set(REFERENCE_QUADRATIC) == set(quad.__all__) - checks_and_forms


@pytest.mark.parametrize("field", [Q, prime_field(3), prime_field(5), F7], ids=str)
def test_quadratic_clauses_match_the_dense_reference_on_the_catalog(field):
    for entry in standard_entries(field):
        a = entry.algebra
        maps = _map_pool(a, entry.maps.values())
        assert_quadratic_matches_reference(a, _quadratic_forms(a, entry.forms.values()), maps)


@st.composite
def algebras_with_forms(draw):
    a, maps, _ = draw(algebras_with_maps())
    n, field, degs = a.dim, a.field, a.degrees
    gram = [[field.zero] * n for _ in range(n)]
    for i, j in iproduct(range(n), repeat=2):
        if (degs[i] + degs[j]).is_zero and draw(st.booleans()):
            gram[i][j] = field.from_int(draw(st.sampled_from(VALUES)))
    companion = draw(st.sampled_from([a.alpha, core.identity_map(a.basis), maps[0]]))
    return a, quad.BilinearFormStructure(a.basis, gram, companion), maps


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras_with_forms())
def test_quadratic_clauses_match_the_dense_reference_on_random_forms_and_maps(case):
    a, f, maps = case
    assert_quadratic_matches_reference(a, [f], [a.alpha, core.identity_map(a.basis), *maps])


def _shear(basis):
    # e_0 -> e_0, e_1 -> e_0 + e_1: invertible, not symmetric for the identity Gram
    return make_map(basis, [[1, 1], [0, 1]])


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_a_twist_that_is_not_form_symmetric_fails_twist_b_symmetry(field):
    basis = core.trivial_basis(field, 2)
    a = make_algebra(basis, trivial_bicharacter(field, basis.group), [[[0, 0]] * 2] * 2, _shear(basis))
    f = quad.BilinearFormStructure(basis, [[1, 0], [0, 1]], core.identity_map(basis))
    verdict = quad.check_quadratic_structure(a, f)
    one, zero = field.one, field.zero
    assert verdict == _fail("twist-b-symmetry", (0, 1), (zero,), (one,))
    assert repr(verdict.witness) == repr(ref_check_quadratic_structure(a, f).witness)
    assert repr(verdict.witness.left + verdict.witness.right) == repr((zero, one))


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_a_morphism_that_is_not_form_symmetric_fails_b_symmetry(field):
    basis = core.trivial_basis(field, 2)
    a = make_algebra(basis, trivial_bicharacter(field, basis.group), [[[0, 0]] * 2] * 2, core.identity_map(basis))
    f = quad.BilinearFormStructure(basis, [[1, 0], [0, 1]], core.identity_map(basis))
    phi = _shear(basis)
    verdict = quad.is_symmetric_automorphism(a, f, phi)
    assert verdict == _fail("b-symmetry", (0, 1), (field.zero,), (field.one,))
    assert repr(verdict.witness) == repr(ref_is_symmetric_automorphism(a, f, phi).witness)
    # the twisted form is the Gram of B(phi(x), y): row i holds B(phi(e_i), e_j)
    _, twisted = quad.quadratic_yau_twist(a, f, phi, checked=False)
    assert twisted.gram == ref_transpose_times(field, phi.matrix, f.gram) == ((1, 0), (1, 1))
