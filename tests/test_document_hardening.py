"""Hostile documents end in StructureError (CLI exit 2), in bounded time.

The fuzz mutates the bundled instance documents: it drops or retypes
sections and entries at any depth, pushes product indices out of range, and
plants huge integers and float scalars.  parse_document may accept the
result or raise StructureError; any other exception is a defect.
"""

import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colorhom.catalog import build_entry
from colorhom.core import GradedBasis, identity_map, make_algebra
from colorhom.errors import StructureError
from colorhom.grading import Bicharacter, GradeGroup, make_bicharacter
from colorhom.io import parse_document, serialize_document
from colorhom.scalars import prime_field, rationals

# the text of a huge integer is spliced in after json.dumps, which refuses
# to print an int past Python's digit limit
_HUGE_TEXT = "@huge@"
_HUGE_DIGITS = "9" * 5000
# 2**61 - 1 is prime: trial division up to its square root would not end
HUGE_INTEGERS = (10**30, -(10**30), 2**61 - 1, 2**31 + 11, _HUGE_TEXT)

INSTANCES = sorted(
    (p.name, p.read_text(encoding="utf-8"))
    for p in (resources.files("colorhom") / "suites" / "instances").iterdir()
    if p.name.endswith(".json")
)

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.sampled_from(HUGE_INTEGERS),
    st.sampled_from((0.5, -1.0, 1e300)),
    st.text("01/-ab", max_size=4),
    st.lists(st.integers(-2, 9), max_size=4),
    st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=3),
    # fresh objects each draw: later mutations may change them in place
    st.builds(dict),
    st.builds(lambda: {"matrix": [[1]]}),
)


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and list indices."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _parent(doc, path):
    node = doc
    for key in path[:-1]:
        node = node[key]
    return node


@st.composite
def hostile_documents(draw):
    name, text = draw(st.sampled_from(INSTANCES))
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if p]
        kind = draw(st.sampled_from(("drop", "retype", "index", "huge", "float")))
        triples = doc.get("product", {}).get("triples") if isinstance(doc.get("product"), dict) else None
        if kind == "index" and isinstance(triples, list) and triples and isinstance(triples[0], list):
            entry = draw(st.sampled_from([t for t in triples if isinstance(t, list)]))
            if entry:
                slot = draw(st.integers(0, min(2, len(entry) - 1)))
                entry[slot] = draw(st.sampled_from((-1, 8, 9, 10**6)))
            continue
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _parent(doc, path)
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "retype":
            parent[path[-1]] = draw(junk)
        elif kind == "huge":
            parent[path[-1]] = draw(st.sampled_from(HUGE_INTEGERS))
        else:
            parent[path[-1]] = draw(st.sampled_from((0.5, 2.0, -0.25)))
    return json.dumps(doc).replace(json.dumps(_HUGE_TEXT), _HUGE_DIGITS)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hostile_documents())
def test_parse_document_raises_only_structure_error(text):
    start = time.perf_counter()
    try:
        parse_document(text)
    except StructureError:
        pass
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("name,text", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_bundled_instances_still_parse(name, text):
    parse_document(text)


def _superline(**changes):
    doc = json.loads(dict(INSTANCES)["superline.json"])
    for section, value in changes.items():
        doc[section] = value
    return json.dumps(doc)


def test_a_huge_prime_modulus_is_rejected_without_a_primality_scan():
    text = _superline(field={"kind": "prime-field", "p": 2**61 - 1})
    start = time.perf_counter()
    with pytest.raises(StructureError, match="too large"):
        parse_document(text)
    assert time.perf_counter() - start < 5


def test_a_huge_torsion_order_with_a_rational_generator_value_is_rejected_quickly():
    # E[0][1] = 2 is no root of unity in Q, whatever the order; 2**(10**30) is never formed
    g = GradeGroup(0, (10**30, 2))
    start = time.perf_counter()
    with pytest.raises(StructureError, match="torsion"):
        make_bicharacter(rationals(), g, ((1, 2), (Fraction(1, 2), 1)))
    assert time.perf_counter() - start < 5
    # +-1 and prime-field values are still checked exactly
    make_bicharacter(rationals(), g, ((1, -1), (-1, 1)))
    with pytest.raises(StructureError, match="torsion"):
        make_bicharacter(prime_field(7), GradeGroup(0, (10**30 + 1, 2)), ((1, 6), (6, 1)))


def test_a_scalar_literal_with_a_huge_exponent_is_rejected_quickly():
    start = time.perf_counter()
    with pytest.raises(StructureError):
        rationals().parse("1e999999999")
    assert time.perf_counter() - start < 5
    assert rationals().parse("1.5e3") == 1500


def test_nesting_too_deep_for_the_json_decoder_is_a_structure_error():
    with pytest.raises(StructureError, match="syntax"):
        parse_document("[" * 100000 + "]" * 100000)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "colorhom", *args],
        capture_output=True, text=True, timeout=60,
    )


def test_cli_check_on_an_integer_past_the_digit_limit_exits_2(tmp_path):
    doc = json.loads(dict(INSTANCES)["poly2.json"])
    doc["basis"]["degrees"] = [[_HUGE_TEXT], [0]]
    doc["group"] = {"free_rank": 1, "torsion_orders": []}
    doc["bicharacter"] = {"gen_table": [[1]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace(json.dumps(_HUGE_TEXT), _HUGE_DIGITS), encoding="utf-8")
    proc = _run_cli("check", str(path), "hom_novikov")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr


@pytest.mark.parametrize(
    "name, section, value, message",
    [
        ("poly2.json", "forms", {"pairing": {"gram": [[0, 1], [1, 0]], "require_even": "no"}}, "require_even"),
        ("poly2.json", "forms", {"pairing": {"gram": [[0, 1], [1, 0]], "require_even": 0}}, "require_even"),
        ("poly2.json", "group", {"free_rank": True, "torsion_orders": []}, "free rank"),
    ],
    ids=["require-even-string", "require-even-int", "free-rank-bool"],
)
def test_cli_check_on_a_wrongly_typed_field_exits_2(tmp_path, name, section, value, message):
    doc = json.loads(dict(INSTANCES)[name])
    doc[section] = value
    if section == "group":  # a consistent Z-graded document, but for the type of free_rank
        doc["basis"]["degrees"] = [[0], [0]]
        doc["bicharacter"] = {"gen_table": [[1]]}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _run_cli("check", str(path), "hom_novikov")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and message in proc.stderr


def test_cli_check_on_a_document_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(dict(INSTANCES)["poly2.json"].encode("utf-8") + b"\xff\xfe")
    proc = _run_cli("check", str(path), "hom_novikov")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr


@pytest.mark.parametrize(
    "payload",
    [b'{"rows": [], "n": ' + b"9" * 5000 + b"}", b"\xff\xfe{}", b"[" * 100000],
    ids=["integer-past-digit-limit", "not-utf8", "nesting-too-deep"],
)
def test_cli_suite_on_a_hostile_manifest_exits_2(tmp_path, payload):
    path = tmp_path / "manifest.json"
    path.write_bytes(payload)
    proc = _run_cli("suite", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr


def test_make_bicharacter_and_make_algebra_raise_one_message_for_a_bad_table():
    # E[0][1] = 2 is no square root of unity, so the torsion axiom fails
    g = GradeGroup(0, (2, 2))
    table = ((1, 2), (Fraction(1, 2), 1))
    message = "bicharacter axiom 'torsion' fails at generator pair (0, 1): E[0][1] has no order dividing 2"
    with pytest.raises(StructureError) as direct:
        make_bicharacter(rationals(), g, table)
    basis = GradedBasis(rationals(), g, (g.zero(),))
    with pytest.raises(StructureError) as assembled:
        make_algebra(basis, Bicharacter(rationals(), g, table), [[[0]]], identity_map(basis))
    assert str(direct.value) == str(assembled.value) == message


def _product_free_document(n):
    """Dimension n, trivial grading, empty product, identity alpha: about n*n*3 bytes."""
    alpha = [[1 if k == i else 0 for i in range(n)] for k in range(n)]
    return json.dumps({
        "field": {"kind": "rationals"},
        "group": {"free_rank": 0, "torsion_orders": []},
        "bicharacter": {"gen_table": []},
        "basis": {"degrees": [[]] * n},
        "product": {"triples": []},
        "alpha": {"matrix": alpha},
    })


def _limit_address_space():
    # a dense n^3 load fails fast here instead of taking the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_cli_check_on_a_product_free_dim_600_document_is_fast_and_small(tmp_path):
    path = tmp_path / "dim600.json"
    path.write_text(_product_free_document(600), encoding="utf-8")
    assert path.stat().st_size > 10**6
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "colorhom", "check", str(path), "epsilon_commutative"],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30
    assert peak_mb < 300


def _many_degree_document(group, table, degrees):
    """Product-free, identity alpha, one basis vector per degree: about 1 MB at 600 degrees."""
    n = len(degrees)
    return json.dumps({
        "field": {"kind": "rationals"},
        "group": group,
        "bicharacter": {"gen_table": table},
        "basis": {"degrees": degrees},
        "product": {"triples": []},
        "alpha": {"matrix": [[1 if k == i else 0 for i in range(n)] for k in range(n)]},
    })


@pytest.mark.parametrize(
    "group, table, degrees, bound",
    [
        # eps = (-1)^(de): 4.0 s before eps was taken per pair of classes from the generator values, 0.5 s after (2 cores)
        ({"free_rank": 1, "torsion_orders": []}, [[-1]], [[k] for k in range(600)], 2),
        # eps = 2^(d0 e1 - d1 e0), up to 552 bits: 10.8 s before, 1.3 s after (2 cores)
        ({"free_rank": 2, "torsion_orders": []}, [[1, 2], ["1/2", 1]], [[k % 25, k // 25] for k in range(600)], 6),
    ],
    ids=["Z-signs", "Z2-rationals"],
)
def test_cli_check_on_a_product_free_600_degree_document_is_fast_and_small(tmp_path, group, table, degrees, bound):
    path = tmp_path / "degrees600.json"
    path.write_text(_many_degree_document(group, table, degrees), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "colorhom", "check", str(path), "epsilon_commutative"],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert elapsed < bound
    assert peak_mb < 300


def _catalog_document(recipe, n):
    entry = build_entry(recipe, rationals(), n=n)
    return serialize_document(entry.algebra, maps=entry.maps, forms=entry.forms)


@pytest.mark.parametrize(
    "first, second",
    [
        # 74 and 152 KB; the unbounded build took 12 s and 1.2 GB, then failed writing its output
        (lambda: _catalog_document("euler_novikov", 64), lambda: _catalog_document("truncated_polynomial", 64)),
        # 1.3e11 row slots if built
        (lambda: _product_free_document(600), lambda: _product_free_document(600)),
    ],
    ids=["euler64-tensor-poly64", "product-free-600-tensor-600"],
)
def test_cli_construct_of_a_tensor_product_past_its_bounds_exits_2_quickly(tmp_path, first, second):
    paths = tmp_path / "first.json", tmp_path / "second.json"
    for path, text in zip(paths, (first(), second())):
        path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "colorhom", "construct", str(paths[0]), "tensor_product", "--with", str(paths[1])],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: tensor product too large"), proc.stderr
    assert proc.stdout == ""


def _two_dim_parts(field):
    # Z2: e0 even, e1 odd
    g = GradeGroup(0, (2,))
    basis = GradedBasis(field, g, (g.element([0]), g.element([1])))
    return basis, make_bicharacter(field, g, ((field.from_int(-1),),)), identity_map(basis)


def _tensor(**entries):
    """A 2x2x2 tensor of ints with the named entries, e.g. c011=1."""
    t = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    for name, v in entries.items():
        i, j, k = map(int, name[1:])
        t[i][j][k] = v
    return t


UNEVEN_001 = "product not even: c[0][0][1] != 0 but deg(e_1) != deg(e_0) + deg(e_0)"


@pytest.mark.parametrize(
    "tensor, message",
    [
        (_tensor()[:1], "product tensor must be 2x2x2"),
        ([_tensor()[0], _tensor()[1][:1]], "product tensor must be 2x2x2"),
        ([_tensor()[0], [[0, 0], [0]]], "product tensor must be 2x2x2"),
        (_tensor(c001=1), UNEVEN_001),
        (_tensor(c011=1, c110=3, c010=2), "product not even: c[0][1][0] != 0 but deg(e_0) != deg(e_0) + deg(e_1)"),
        # the first defect in cell order is reported
        ([[[0, 1], [0, 0]], [[0, 0], [0]]], UNEVEN_001),
        ([[[0, 0], [0, 0, 0]], [[0, 1], [0, 0]]], "product tensor must be 2x2x2"),
        ([[[Fraction(1, 2), 0.5], [0, 0]], [[0, 0], [0, 0]]], "not a scalar over Q: 0.5"),
    ],
    ids=["planes", "rows", "cell", "uneven", "uneven-later-k", "uneven-before-shape", "shape-before-uneven", "float"],
)
def test_make_algebra_reports_shape_coercion_and_evenness_errors(tensor, message):
    basis, bichar, alpha = _two_dim_parts(rationals())
    with pytest.raises(StructureError) as info:
        make_algebra(basis, bichar, tensor, alpha)
    assert str(info.value) == message


def test_a_parsed_uneven_triple_names_the_same_constant():
    basis, bichar, alpha = _two_dim_parts(rationals())
    with pytest.raises(StructureError) as dense:
        make_algebra(basis, bichar, _tensor(c011=1, c001=2), alpha)
    doc = json.loads(dict(INSTANCES)["superline.json"])
    doc["product"]["triples"] = [[0, 1, 1, 1], [0, 0, 1, 2]]
    with pytest.raises(StructureError) as parsed:
        parse_document(json.dumps(doc))
    assert str(parsed.value) == str(dense.value) == UNEVEN_001
    assert parsed.value.indices == dense.value.indices == (0, 0, 1)
