"""A CLI process imports what its verb runs, and the package exports resolve lazily.

Each verb runs in a fresh interpreter through cli.main, which then reports
the colorhom modules in sys.modules and the functions they define.  A check
on a form-free document loads no catalog, construction or quadratic module;
a document with forms loads quadratic, and no verb but suite and catalog
loads the catalog, which loads quadratic only for a recipe with a form.
No verb loads the search, which only a call of search_maps needs.  Each
verb defines its own command and cli's check verb alone: construct lives
in colorhom.construct, suite in colorhom.suite and catalog in
colorhom.catalog, and none of them loads another's.  Only check_regular
among the checks loads colorhom.linalg, core's exact linear algebra, and a
check of a malformed document loads no checks module.  A bare import
colorhom loads no submodule but the operation table and errors.
No verb loads dataclasses or inspect (with their ast, dis and tokenize):
the value classes are written out, and no module of the package imports
either one.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import colorhom
from colorhom.catalog import build_entry
from colorhom.io import serialize_document
from colorhom.operations import CHECK, CONSTRUCTION, OPERATIONS
from colorhom.scalars import rationals

SRC = Path(colorhom.__file__).resolve().parents[1]
ENV = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
# standard modules no process of the package loads
UNLOADED = ("dataclasses", "inspect")

# the exports of colorhom before they resolved lazily
EXPORTS = {
    "Verdict", "Witness", "check_bracket_operator_conditions", "check_cyclic_commutator_products",
    "check_epsilon_commutative", "check_hom_associative", "check_hom_lie", "check_hom_novikov",
    "check_involutive", "check_left_symmetric", "check_lie_admissible", "check_multiplicative",
    "check_regular", "check_right_commutative", "commutes_with_twist",
    "identity_residual_on_vectors", "in_alpha_center", "is_averaging", "is_centroid",
    "is_derivation", "is_morphism", "is_rota_baxter", "is_weak_morphism",
    "averaging_product", "bracket_operator_product", "centroid_twist", "commutator_algebra",
    "composed_derivation_product", "derivation_product", "direct_sum", "power_twist",
    "regular_lie_untwist", "tensor_product", "untwist_involutive", "xi_square_twist", "yau_twist",
    "ColorHomAlgebra", "GradedBasis", "GradedLinearMap", "commutator_tensor", "compose_maps",
    "determinant", "eval_map", "eval_product", "identity_map", "invert_map", "make_algebra",
    "make_map", "map_power", "matrix_rank", "scalar_map", "trivial_basis", "unit_vector",
    "zero_vector",
    "HypothesisError", "SingularMapError", "StructureError",
    "Bicharacter", "GradeGroup", "GroupElement", "bicharacter_eval", "make_bicharacter",
    "trivial_bicharacter", "validate_bicharacter",
    "ParsedDocument", "document_digest", "parse_document", "serialize_document",
    "BilinearFormStructure", "check_quadratic_structure", "form_value",
    "is_symmetric_automorphism", "quadratic_commutator", "quadratic_untwist_involutive",
    "quadratic_yau_twist", "regular_quadratic_commutator",
    "Fp", "ScalarField", "prime_field", "rationals",
}

PROBE = """
import contextlib, io, json, sys, types
from colorhom.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
modules = sorted(m for m in sys.modules if m.startswith("colorhom.") or m in %r)
defined = sorted(
    f"{m}.{name}" for m in modules if m.startswith("colorhom.") for name, value in vars(sys.modules[m]).items()
    if type(value) is types.FunctionType and value.__module__ == m
)
print(json.dumps([code, modules, defined]))
""" % (UNLOADED,)

# the verbs' commands, and the names of colorhom.linalg, as cli.main reaches them
COMMANDS = {"cmd_check", "cmd_construct", "cmd_suite", "cmd_catalog"}
VERB_MODULES = {"check": "colorhom.cli", "construct": "colorhom.construct", "suite": "colorhom.suite",
                "catalog": "colorhom.catalog"}
LINALG = {"_row_reduce", "matrix_rank", "determinant", "invert_map", "map_power", "unit_vector", "zero_vector",
          "commutator_tensor", "homogeneous_components", "_basis_of_classes", "_algebra_of_rows"}


def run_probe(*argv, cwd):
    """The verb's exit code, the colorhom modules it loaded and the functions they define, as "module.function".

    Asserts it loaded none of UNLOADED, nor the search.
    """
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, argv)], cwd=cwd, capture_output=True, text=True,
        env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules, defined = json.loads(proc.stdout)
    assert not set(modules) & set(UNLOADED), modules
    assert "colorhom.search" not in modules, argv
    return code, set(modules), set(defined)


def named(defined, names) -> set:
    """The definitions "module.function" whose function is one of names."""
    return {d for d in defined if d.rpartition(".")[2] in names}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A form-free document with a map "half", and one with maps and a form "pairing"."""
    directory = tmp_path_factory.mktemp("documents")
    for filename, name, n in (("plain.json", "euler_novikov", 3), ("forms.json", "truncated_polynomial", 3)):
        entry = build_entry(name, rationals(), n=n)
        text = serialize_document(entry.algebra, entry.maps, entry.forms)
        (directory / filename).write_text(text, encoding="utf-8")
    # a product index out of range: a structural error, exit 2
    malformed = (directory / "plain.json").read_text(encoding="utf-8").replace("[0, 1, 1, 1]", "[0, 1, 3, 1]", 1)
    assert malformed.count("[0, 1, 3, 1]") == 1
    (directory / "malformed.json").write_text(malformed, encoding="utf-8")
    rows = [{"name": "p", "algebra": "plain.json", "conclusion_checks": ["hom_novikov"]}]
    (directory / "paths.json").write_text(json.dumps({"rows": rows}), encoding="utf-8")
    return directory


def arguments(op, map_name):
    maps = [map_name] * op.takes.count("map")
    options = {"form": ["--form", "pairing"], "n": ["--n", "2"], "xi": ["--xi", "1,0,0"],
               "with": ["--with", "forms.json"]}
    return maps + [word for arg in op.takes for word in options.get(arg, [])]


FORM_FREE_CHECKS = sorted(
    name for name, op in OPERATIONS.items() if op.kind == CHECK and "form" not in op.takes
)


@pytest.mark.parametrize("name", FORM_FREE_CHECKS)
def test_a_check_on_a_form_free_document_loads_no_catalog_construction_or_form(documents, name):
    op = OPERATIONS[name]
    code, modules, defined = run_probe("check", "plain.json", name, *arguments(op, "half"), cwd=documents)
    assert code in (0, 1)
    assert f"colorhom.{op.module}" in modules
    assert not modules & {"colorhom.catalog", "colorhom.constructions", "colorhom.quadratic"}
    assert named(defined, COMMANDS) == {"colorhom.cli.cmd_check"}
    assert not modules & {"colorhom.construct", "colorhom.suite"}
    # check_regular alone reads the exact elimination
    assert ("colorhom.linalg" in modules) == bool(named(defined, LINALG)) == (name == "regular")


def test_a_check_of_a_malformed_document_loads_no_checks(documents):
    code, modules, defined = run_probe("check", "malformed.json", "hom_novikov", cwd=documents)
    assert code == 2
    assert not modules & {"colorhom.checks", "colorhom.linalg"}
    assert named(defined, COMMANDS) == {"colorhom.cli.cmd_check"} and not named(defined, LINALG)


@pytest.mark.parametrize("argv", [
    ("check", "plain.json", "hom_novikov"),
    ("construct", "plain.json", "commutator_algebra"),
    ("suite", "paths.json"),
    ("catalog", "euler_novikov", "--n", "3"),
], ids=lambda argv: argv[0])
def test_each_verb_loads_its_own_module_alone(documents, argv):
    code, modules, defined = run_probe(*argv, cwd=documents)
    assert code == 0
    own = VERB_MODULES[argv[0]]
    assert modules & set(VERB_MODULES.values()) == {"colorhom.cli", own}
    assert named(defined, COMMANDS) == {"colorhom.cli.cmd_check", f"{own}.cmd_{argv[0]}"}


@pytest.mark.parametrize("name", ["hom_novikov", "quadratic_structure", "symmetric_automorphism"])
def test_a_check_on_a_document_with_forms_loads_no_catalog(documents, name):
    code, modules, _ = run_probe("check", "forms.json", name, *arguments(OPERATIONS[name], "sign"), cwd=documents)
    assert code in (0, 1)
    assert "colorhom.quadratic" in modules
    assert not modules & {"colorhom.catalog", "colorhom.constructions"}


@pytest.mark.parametrize("name", sorted(n for n, op in OPERATIONS.items() if op.kind == CONSTRUCTION))
def test_a_construction_loads_no_catalog(documents, name):
    op = OPERATIONS[name]
    code, modules, _ = run_probe("construct", "forms.json", name, *arguments(op, "scale2"), cwd=documents)
    assert code in (0, 1, 2)
    assert f"colorhom.{op.module}" in modules
    assert "colorhom.catalog" not in modules


def test_the_catalog_verb_and_suite_recipes_load_the_catalog(documents):
    _, modules, _ = run_probe("catalog", "zero_algebra", cwd=documents)
    assert "colorhom.catalog" in modules
    code, modules, _ = run_probe("catalog", "euler_novikov", "--n", "3", cwd=documents)
    assert code == 0 and "colorhom.catalog" in modules and "colorhom.quadratic" not in modules
    manifest = documents / "recipe.json"
    manifest.write_text(json.dumps({"rows": [{"name": "r", "algebra": {"recipe": "zero_algebra"}}]}))
    code, modules, _ = run_probe("suite", "recipe.json", cwd=documents)
    assert code == 0 and "colorhom.catalog" in modules
    code, modules, _ = run_probe("suite", "builtin:theorems", cwd=documents)
    assert code == 0


def test_a_bare_import_loads_only_the_table_and_errors(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import colorhom, json, sys; print(json.dumps(sorted(sys.modules)))"],
        cwd=tmp_path, capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    loaded = {m for m in modules if m.startswith("colorhom.")}
    assert loaded <= {"colorhom.operations", "colorhom.errors"}
    assert not modules & set(UNLOADED)


def test_no_module_of_the_package_imports_dataclasses_or_inspect():
    for path in sorted((SRC / "colorhom").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not {name.partition(".")[0] for name in names} & set(UNLOADED), (path.name, node.lineno)


def test_every_export_is_the_object_its_module_defines():
    assert set(colorhom.__all__) == EXPORTS and len(colorhom.__all__) == len(EXPORTS)
    for name in colorhom.__all__:
        value = getattr(colorhom, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(colorhom.__all__) <= set(dir(colorhom))
    namespace = {}
    exec("from colorhom import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    with pytest.raises(AttributeError):
        colorhom.no_such_export
