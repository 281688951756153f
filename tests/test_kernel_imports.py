"""Checks, constructions and document parsing stay on the sparse kernel.

The dense-tuple helpers of core (eval_product, eval_map, unit_vector and the
vec_* family) are boundary functions for callers holding coordinate tuples.
Inside these modules every product and map image goes through
sparse_product / sparse_apply, so a dense round-trip per call cannot creep
back in unnoticed.

An algebra's dense structure tensor is built on demand, at n^3 cost, so no
module but core reads it: every internal path works on product_rows.
"""

import ast
from pathlib import Path

import pytest

import colorhom

PACKAGE = Path(colorhom.__file__).parent
SPARSE_ONLY = ("checks.py", "constructions.py", "io.py")
DENSE_HELPERS = {"eval_product", "eval_map", "unit_vector"}


def _dense_helper(name: str) -> bool:
    return name in DENSE_HELPERS or name.startswith("vec_")


def _uses(tree):
    """Every name a module imports, reads, or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("module", SPARSE_ONLY)
def test_module_uses_no_dense_kernel_helper(module):
    source = Path(colorhom.__file__).with_name(module).read_text(encoding="utf-8")
    used = sorted({name for name in _uses(ast.parse(source)) if _dense_helper(name)})
    assert used == [], f"{module} uses dense helpers {used}"


def test_the_guard_sees_an_import_and_an_attribute():
    tree = ast.parse("from .core import eval_map, vec_add\nimport x\nx.unit_vector(1)\n")
    assert {name for name in _uses(tree) if _dense_helper(name)} == {"eval_map", "vec_add", "unit_vector"}


def _reads_structure(tree) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "structure" for node in ast.walk(tree))


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "core.py")
)
def test_no_module_but_core_reads_the_dense_structure(module):
    assert not _reads_structure(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))), module


def test_the_structure_guard_sees_a_read():
    assert _reads_structure(ast.parse("t = algebra.structure[0][1]\n"))
    assert _reads_structure(ast.parse("make_algebra(a.basis, a.bicharacter, a.structure, m)\n"))
    assert not _reads_structure(ast.parse("structure = a.product_rows\nb.structure_constants\n"))
