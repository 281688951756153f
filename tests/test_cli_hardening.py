"""Hostile manifests, rows and documents end in exit 2 with an error line, never a traceback.

The directed cases give a suite manifest one wrongly typed value each, and
check that suite rows decode recipe parameters and scalars like the catalog
flags and like document scalars (a bool is neither an integer nor a
scalar).  The fuzz runs cli.main in-process on the check, construct, suite
and catalog verbs, with bundled instance documents and builtin:theorems
rows mutated by the document fuzz's mutations: every run must return 0, 1
or 2, exit 1 only with a failure report, and exit 2 only with an error line.
"""

import contextlib
import copy
import io
import json
import signal
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_document_hardening import INSTANCES, _parent, _paths, hostile_documents, junk

from colorhom import catalog as cat
from colorhom import cli
from colorhom.errors import StructureError
from colorhom.io import serialize_document
from colorhom.scalars import prime_field, rationals

SUITES = Path(str(resources.files("colorhom") / "suites"))
THEOREMS = json.loads((SUITES / "theorems.json").read_text(encoding="utf-8"))


_SECONDS_PER_RUN = 10


def _alarm(signum, frame):
    raise TimeoutError(f"a CLI run took over {_SECONDS_PER_RUN} s")


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run, stopped after _SECONDS_PER_RUN."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(_SECONDS_PER_RUN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def run_rows(tmp_path, *rows, manifest=None):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"rows": list(rows)} if manifest is None else manifest), encoding="utf-8")
    return run(["suite", str(path)])


def assert_structural_error(result):
    code, out, err = result
    assert code == 2, (code, out, err)
    assert err.startswith("error: "), err


def recipe_row(**changes):
    row = {
        "name": "r",
        "algebra": {"recipe": "truncated_polynomial", "field": "Q", "params": {"n": 2}},
        "hypothesis_checks": ["hom_novikov", {"check": "derivation", "map": "euler"}],
        "construction": {"name": "commutator_algebra"},
        "conclusion_checks": ["hom_lie"],
    }
    row.update(changes)
    return row


def test_the_well_typed_row_passes(tmp_path):
    assert run_rows(tmp_path, recipe_row())[0] == 0


# ---------------------------------------------------------------------------
# one wrongly typed manifest value each


def test_rows_that_is_not_a_list_exits_2(tmp_path):
    assert_structural_error(run_rows(tmp_path, manifest={"rows": 5}))


def test_a_row_that_is_not_an_object_exits_2(tmp_path):
    assert_structural_error(run_rows(tmp_path, 3))


def test_a_construction_that_is_not_an_object_exits_2(tmp_path):
    assert_structural_error(run_rows(tmp_path, recipe_row(construction="commutator_algebra")))


def test_recipe_params_that_are_not_an_object_exit_2(tmp_path):
    row = recipe_row(algebra={"recipe": "truncated_polynomial", "params": [2]})
    assert_structural_error(run_rows(tmp_path, row))


@pytest.mark.parametrize("stage", ["hypothesis_checks", "conclusion_checks"])
def test_check_lists_that_are_not_lists_exit_2(tmp_path, stage):
    assert_structural_error(run_rows(tmp_path, recipe_row(**{stage: 7})))


def test_a_check_name_that_is_not_a_string_exits_2(tmp_path):
    assert_structural_error(run_rows(tmp_path, recipe_row(hypothesis_checks=[{"check": ["hom_novikov"]}])))


@pytest.mark.parametrize(
    "row",
    [
        recipe_row(construction={"name": ["commutator_algebra"]}),
        recipe_row(hypothesis_checks=[{"check": "derivation", "map": ["euler"]}]),
        recipe_row(hypothesis_checks=[{"check": "quadratic_structure", "form": ["pairing"]}]),
        recipe_row(algebra={"recipe": ["truncated_polynomial"]}),
    ],
    ids=["construction name", "map name", "form name", "recipe name"],
)
def test_other_names_that_are_not_strings_exit_2(tmp_path, row):
    assert_structural_error(run_rows(tmp_path, row))


def test_a_tensor_product_row_past_its_bounds_exits_2(tmp_path):
    entry = cat.build_entry("truncated_polynomial", rationals(), n=64)
    (tmp_path / "tp64.json").write_text(serialize_document(entry.algebra, maps=entry.maps), encoding="utf-8")
    row = {
        "name": "too large",
        "algebra": {"recipe": "euler_novikov", "params": {"n": 64}},
        "construction": {"name": "tensor_product", "with": "tp64.json"},
        "conclusion_checks": ["hom_novikov"],
    }
    start = time.perf_counter()
    code, out, err = run_rows(tmp_path, row)
    assert time.perf_counter() - start < 5
    assert_structural_error((code, out, err))
    assert err.startswith("error: tensor product too large: dimension 4096"), err


# ---------------------------------------------------------------------------
# suite values decode like catalog flags and document scalars


def test_a_scalar_recipe_parameter_parses_like_the_catalog_flag(tmp_path):
    algebra = {"recipe": "scaled_polynomial", "params": {"n": 3, "c": "1/2"}}
    assert run_rows(tmp_path, {"name": "half", "algebra": algebra, "conclusion_checks": ["hom_novikov"]})[0] == 0
    doc = cli._row_document({"algebra": algebra}, tmp_path)
    code, flags_out, _ = run(["catalog", "scaled_polynomial", "--n", "3", "--c", "1/2"])
    assert code == 0
    assert serialize_document(doc.algebra, maps=doc.maps, forms=doc.forms) == flags_out


def _recipe(name, **params):
    return {"name": "r", "algebra": {"recipe": name, "params": params}, "conclusion_checks": ["hom_novikov"]}


def _rota_baxter(weight):
    # the identity is a Rota-Baxter operator of weight -1 on any product
    check = {"check": "rota_baxter", "map": "alpha", "weight": weight}
    return {"name": "r", "algebra": {"recipe": "truncated_polynomial", "params": {"n": 2}}, "hypothesis_checks": [check]}


def _construction(**spec):
    return {"name": "r", "algebra": {"recipe": "truncated_polynomial", "params": {"n": 2}}, "construction": spec}


# a row with a wrongly typed value, and the same row with a well-typed one
WRONG_AND_RIGHT = {
    "n true": (_recipe("truncated_polynomial", n=True), _recipe("truncated_polynomial", n=1)),
    "n string": (_recipe("truncated_polynomial", n="3"), _recipe("truncated_polynomial", n=3)),
    "dim string": (_recipe("zero_algebra", dim="3"), _recipe("zero_algebra", dim=3)),
    "c true": (_recipe("scaled_polynomial", n=3, c=True), _recipe("scaled_polynomial", n=3, c=1)),
    "weight true": (_rota_baxter(True), _rota_baxter(-1)),
    "xi booleans": (_construction(name="xi_square_twist", xi=[True, False]),
                    _construction(name="xi_square_twist", xi=[1, 0])),
    "power n true": (_construction(name="power_twist", n=True), _construction(name="power_twist", n=1)),
}


@pytest.mark.parametrize("case", WRONG_AND_RIGHT, ids=list(WRONG_AND_RIGHT))
def test_booleans_and_strings_for_integers_exit_2(tmp_path, case):
    wrong, right = WRONG_AND_RIGHT[case]
    assert_structural_error(run_rows(tmp_path, wrong))
    assert run_rows(tmp_path, right)[0] == 0


def test_parse_refuses_a_bool():
    with pytest.raises(StructureError):
        cat.rationals().parse(True)


def test_an_option_given_as_a_double_dash_exits_2(tmp_path):
    # argparse reads "--xi=--" as an empty list
    path = tmp_path / "poly3.json"
    path.write_text(dict(INSTANCES)["poly3.json"], encoding="utf-8")
    assert_structural_error(run(["construct", str(path), "xi_square_twist", "--xi=--"]))
    assert_structural_error(run(["catalog", "truncated_polynomial", "--out=--"]))


@pytest.mark.parametrize("label", ["F\u00b2", "F" + "7" * 5000, "F7a", 7], ids=["superscript", "5000 digits", "F7a", "int"])
def test_a_field_label_that_is_no_prime_field_literal_exits_2(tmp_path, label):
    row = recipe_row(algebra={"recipe": "truncated_polynomial", "field": label, "params": {"n": 2}})
    assert_structural_error(run_rows(tmp_path, row))
    if isinstance(label, str):
        assert_structural_error(run(["catalog", "truncated_polynomial", f"--field={label}"]))


@pytest.mark.parametrize("scalar", ["1/7", "1/14", "-3/49", "-2/21"])
def test_a_scalar_whose_denominator_p_divides_exits_2(tmp_path, scalar):
    # n/d has no value over F_p when p divides d: the document is malformed, not a traceback
    entry = cat.build_entry("truncated_polynomial", prime_field(7), n=2)
    doc = json.loads(serialize_document(entry.algebra))
    doc["alpha"]["matrix"][0][0] = scalar
    path = tmp_path / "f7.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(["check", str(path), "hom_novikov"])
    assert_structural_error((code, out, err))
    assert "multiple of 7" in err and "Traceback" not in out + err
    with pytest.raises(StructureError, match="multiple of 7"):
        prime_field(7).parse(scalar)


def test_power_twist_of_a_huge_power_is_a_structural_error(tmp_path):
    # alpha = diag(1, 2, 4): its 10**30-th power has entries of about 2 * 10**30 bits
    row = {"name": "huge power", "algebra": "instances/scaledpoly3_2.json",
           "construction": {"name": "power_twist", "n": 10**30}}
    (tmp_path / "instances").mkdir()
    (tmp_path / "instances" / "scaledpoly3_2.json").write_text(dict(INSTANCES)["scaledpoly3_2.json"])
    assert_structural_error(run_rows(tmp_path, row))


def test_a_recipe_scalar_too_long_to_write_is_a_structural_error(tmp_path):
    # the entries c^i reach 10^4900, past the 4300 digits int-to-text allows
    assert_structural_error(run(["catalog", "scaled_polynomial", "--n", "50", "--c", "1e100"]))
    out = tmp_path / "big.json"
    assert_structural_error(run(["catalog", "scaled_polynomial", "--n", "50", "--c", "1e-100", f"--out={out}"]))
    assert not out.exists()
    with pytest.raises(StructureError, match="decimal digits"):
        serialize_document(cat.build_entry("scaled_polynomial", rationals(), n=50, c="1e100").algebra)


# ---------------------------------------------------------------------------
# end-to-end fuzz

def assert_clean_run(argv, machine):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert (json.loads(out)["passes"] is False) if machine else "FAIL" in out, (argv, out, err)
    if code == 2:
        assert err.startswith("error: "), (argv, err)


def _mutate(draw, tree):
    """Drop or retype 1-3 positions of a JSON tree, as the document fuzz does."""
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(tree) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = _parent(tree, path)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(junk)
    return tree


@st.composite
def hostile_manifests(draw):
    rows = draw(st.lists(st.sampled_from(range(len(THEOREMS["rows"]))), min_size=1, max_size=3))
    manifest = {"name": "fuzz", "rows": [copy.deepcopy(THEOREMS["rows"][i]) for i in rows]}
    return json.dumps(_mutate(draw, manifest))


_fuzz = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                         HealthCheck.function_scoped_fixture])
FORMATS = st.sampled_from(["text", "machine"])
OPERATIONS = sorted(cat.OPERATIONS)


# a pristine document too, so that checks and constructions run on odd arguments
DOCUMENTS = hostile_documents() | st.sampled_from([text for _, text in INSTANCES])


@_fuzz
@given(DOCUMENTS, st.sampled_from(OPERATIONS), st.data())
def test_fuzz_check_and_construct_on_hostile_documents(tmp_path, text, name, data):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    takes = cat.OPERATIONS[name].takes
    names = data.draw(st.lists(st.sampled_from(["alpha", "dt", "euler", "scale2", "sign", "rb_proj", "x"]),
                               min_size=takes.count("map"), max_size=takes.count("map")))
    options = []
    if "form" in takes:
        options.append("--form=" + data.draw(st.sampled_from(["pairing", "x"])))
    if "weight" in takes:
        options.append("--weight=" + data.draw(st.text("01/-ab", max_size=4)))
    if "side" in takes:
        options.append("--side=" + data.draw(st.sampled_from(["left", "right", "both"])))
    if "n" in takes:
        options.append(f"--n={data.draw(st.integers(-1, 3))}")
    if "xi" in takes:
        options.append("--xi=" + data.draw(st.text("01/-,a", max_size=8)))
    if "with" in takes:
        other = tmp_path / "other.json"
        other.write_text(data.draw(DOCUMENTS), encoding="utf-8")
        options.append(f"--with={other}")
    fmt = data.draw(FORMATS)
    if cat.OPERATIONS[name].kind == cat.CHECK:
        argv = ["check", str(path), name, *names, *options, f"--format={fmt}"]
    else:
        extra = data.draw(st.sampled_from([[], ["--unchecked"], [f"--out={tmp_path / 'out.json'}"]]))
        argv = ["construct", str(path), name, *names, *options, *extra, f"--format={fmt}"]
    assert_clean_run(argv, fmt == "machine")


@_fuzz
@given(hostile_manifests(), FORMATS, st.booleans())
def test_fuzz_suite_on_hostile_theorem_rows(tmp_path, text, fmt, unchecked):
    # rows name their documents relative to the manifest: write it next to a copy of them
    target = tmp_path / "instances"
    if not target.exists():
        target.mkdir()
        for name, document in INSTANCES:
            (target / name).write_text(document, encoding="utf-8")
    path = tmp_path / "manifest.json"
    path.write_text(text, encoding="utf-8")
    argv = ["suite", str(path), f"--format={fmt}"] + (["--unchecked"] if unchecked else [])
    assert_clean_run(argv, fmt == "machine")


@_fuzz
@given(
    st.sampled_from(sorted(cat.RECIPES) + ["x"]),
    st.sampled_from(["Q", "F3", "F5", "F7", "F4", "F", "G", "F2"]) | st.text("F0137ab", max_size=4),
    st.lists(st.sampled_from(["n", "dim", "c"]), unique=True),
    st.data(),
)
def test_fuzz_catalog_flags(recipe, field, flags, data):
    # sizes stay small: a recipe's work grows with its size, which no cap bounds
    values = {"n": st.integers(-1, 4).map(str), "dim": st.integers(-1, 3).map(str),
              "c": st.text("01/-ab", max_size=4)}
    options = [f"--{flag}={data.draw(values[flag])}" for flag in flags]
    fmt = data.draw(FORMATS)
    assert_clean_run(["catalog", recipe, f"--field={field}", *options, f"--format={fmt}"], fmt == "machine")


# ---------------------------------------------------------------------------
# recipe sizes are capped

SIZED = [(name, key) for name, (_, spec) in cat.RECIPES.items() for key, kind in spec.items() if kind is int]


@pytest.mark.parametrize("name, key", SIZED)
def test_a_recipe_size_past_the_cap_exits_2_quickly(tmp_path, name, key):
    start = time.perf_counter()
    for size in (cat.MAX_RECIPE_SIZE + 1, 10**30):
        assert_structural_error(run(["catalog", name, f"--{key}", str(size)]))
        algebra = {"recipe": name, "field": "Q", "params": {key: size}}
        assert_structural_error(run_rows(tmp_path, recipe_row(algebra=algebra)))
        with pytest.raises(StructureError, match="size cap"):
            cat.build_entry(name, rationals(), **{key: size})
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("name, key", SIZED)
def test_every_sized_recipe_builds_at_the_cap(name, key):
    # the involutive recipe takes odd sizes only
    size = cat.MAX_RECIPE_SIZE - (name == "involutive_quadratic_polynomial")
    code, out, err = run(["catalog", name, f"--{key}", str(size)])  # stopped after 10 s
    assert code == 0, err
    assert len(json.loads(out)["basis"]["degrees"]) == size
