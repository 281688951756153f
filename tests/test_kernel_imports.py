"""Every module but core stays on the sparse kernel.

The dense-tuple helpers of core (eval_product, eval_map, unit_vector,
zero_vector and the vec_* family) and a map's dense .column(i) are
boundary functions for callers holding coordinate tuples.  Inside the
package every product and map image goes through sparse_product /
sparse_apply, so a dense round-trip per call cannot creep back in
unnoticed.

An algebra is built from sparse cells through core._algebra_from_cells,
which reads them as data, ((i, j), e_i * e_j) in row-major order over the
pairs that can be nonzero, so no module passes it a cell function (a
lambda); only core takes a dense tensor (make_algebra, ColorHomAlgebra(...)), and an
algebra's dense structure tensor is built on demand, at n^3 cost, so no
module but core reads it either, save the one boundary export that returns
it, linalg.commutator_tensor.  A map's dense matrix is built on demand
too; outside core only one boundary read takes it: the rank test of
is_symmetric_automorphism.  __init__.py only re-exports.
"""

import ast
from pathlib import Path

import pytest

import colorhom

PACKAGE = Path(colorhom.__file__).parent
GUARDED = sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ("core.py", "__init__.py"))
DENSE_HELPERS = {"eval_product", "eval_map", "unit_vector", "zero_vector"}
DENSE_BUILDERS = {"make_algebra", "ColorHomAlgebra"}


def _tree(module):
    return ast.parse((PACKAGE / module).read_text(encoding="utf-8"))


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


def _called(tree):
    """The name of every called function, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def test_the_guard_covers_every_module_but_core_and_the_exports():
    assert "catalog.py" in GUARDED and "quadratic.py" in GUARDED and "cli.py" in GUARDED
    assert "core.py" not in GUARDED and "__init__.py" not in GUARDED


@pytest.mark.parametrize("module", GUARDED)
def test_module_uses_no_dense_kernel_helper(module):
    used = sorted({name for name in _uses(_tree(module)) if _dense_helper(name)})
    assert used == [], f"{module} uses dense helpers {used}"


def test_the_guard_sees_an_import_and_an_attribute():
    tree = ast.parse("from .core import eval_map, vec_add\nimport x\nx.unit_vector(1)\nzero_vector(f, 2)\n")
    assert {name for name in _uses(tree) if _dense_helper(name)} == {
        "eval_map", "vec_add", "unit_vector", "zero_vector",
    }


@pytest.mark.parametrize("module", GUARDED)
def test_module_reads_no_dense_map_column(module):
    assert "column" not in set(_called(_tree(module))), module


def test_the_column_guard_sees_a_call_and_not_the_sparse_columns():
    assert "column" in set(_called(ast.parse("v = a.alpha.column(i)\n")))
    assert "column" not in set(_called(ast.parse("v = m.sparse_columns[i]\ncolumn = 1\n")))


@pytest.mark.parametrize("module", GUARDED)
def test_module_builds_no_algebra_from_a_dense_tensor(module):
    built = sorted(DENSE_BUILDERS & set(_called(_tree(module))))
    assert built == [], f"{module} calls {built}"


def test_the_builder_guard_sees_a_call_and_not_an_annotation():
    tree = ast.parse("a = make_algebra(b, e, t, m)\nc = core.ColorHomAlgebra(b, e, t, m)\n")
    assert DENSE_BUILDERS <= set(_called(tree))
    tree = ast.parse("def f(a: ColorHomAlgebra) -> ColorHomAlgebra:\n    return _algebra_from_cells(b, e, c, m)\n")
    assert not DENSE_BUILDERS & set(_called(tree))


def _lambda_cells(tree):
    """The line of every call of _algebra_from_cells whose cells, third or by keyword, is a lambda."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_algebra_from_cells":
            cells = node.args[2:3] + [kw.value for kw in node.keywords if kw.arg == "cells"]
            if any(isinstance(arg, ast.Lambda) for arg in cells):
                yield node.lineno


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_passes_a_lambda_as_the_cells(module):
    assert list(_lambda_cells(_tree(module))) == [], module


def test_the_cells_guard_sees_a_lambda_bare_by_attribute_and_by_keyword():
    tree = ast.parse(
        "_algebra_from_cells(b, e, lambda i, j: {}, m)\n"
        "core._algebra_from_cells(b, e, lambda i, j: rows[i][j], m)\n"
        "_algebra_from_cells(b, e, alpha=m, cells=lambda i, j: {})\n"
    )
    assert list(_lambda_cells(tree)) == [1, 2, 3]
    tree = ast.parse(
        "_algebra_from_cells(b, e, ((ij, c) for ij, c in _cells(a)), m)\n"
        "_algebra_from_cells(b, e, cells.items(), m)\n"
        "make_algebra(b, e, lambda i, j: {}, m)\n"
    )
    assert list(_lambda_cells(tree)) == []


def _reads_structure(tree) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "structure" for node in ast.walk(tree))


# (module, top-level definition) of every read of an algebra's dense .structure outside core:
# the boundary export that returns the dense commutator tensor
STRUCTURE_READS = {("linalg.py", "commutator_tensor")}


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "core.py")
)
def test_no_module_but_core_reads_the_dense_structure(module):
    reads = {(module, getattr(top, "name", "<module>")) for top in _tree(module).body if _reads_structure(top)}
    assert reads <= STRUCTURE_READS, module


def test_the_structure_guard_sees_a_read():
    assert _reads_structure(ast.parse("t = algebra.structure[0][1]\n"))
    assert _reads_structure(ast.parse("make_algebra(a.basis, a.bicharacter, a.structure, m)\n"))
    assert not _reads_structure(ast.parse("structure = a.product_rows\nb.structure_constants\n"))


# (module, top-level function) of every read of a map's dense .matrix outside core: none
MATRIX_READS = set()


def _matrix_reads(module, tree):
    """(module, top-level definition) for every .matrix attribute; "<module>" outside any."""
    for top in tree.body:
        if any(isinstance(node, ast.Attribute) and node.attr == "matrix" for node in ast.walk(top)):
            yield module, getattr(top, "name", "<module>")


def test_only_the_boundary_reads_a_dense_map_matrix():
    reads = {read for module in GUARDED for read in _matrix_reads(module, _tree(module))}
    assert reads == MATRIX_READS


def test_the_matrix_guard_sees_a_read():
    tree = ast.parse("def f(m):\n    return m.matrix[0]\nrows = a.alpha.matrix\n")
    assert set(_matrix_reads("x.py", tree)) == {("x.py", "f"), ("x.py", "<module>")}
    tree = ast.parse("def f(doc):\n    matrix = doc['matrix']\n    return m.sparse_columns, matrix\n")
    assert not set(_matrix_reads("x.py", tree))


# The twisted products x*alpha(y) and alpha(x)*y are the declared products
# times-image and image-times on (a, alpha): checks builds their index with the
# one index builder core has, so core holds nothing named after them, and
# core._product_index has one caller there and one in checks.
PRODUCT_INDEX_CALLERS = {("core.py", "ColorHomAlgebra.product_index"), ("checks.py", "_twisted")}


def _defined(tree):
    """Every name a module defines: classes, functions, methods and assigned names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def _twisted_names(tree):
    return sorted({name for name in _defined(tree) if "twist" in name.lower()})


def _callers(module, tree, callee):
    """(module, dotted name of the enclosing definitions) of every call of callee, bare or as an attribute."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == callee:
                yield module, ".".join(scope) or "<module>"
            yield from visit(child, scope)

    return visit(tree, [])


def test_core_defines_nothing_named_after_the_twisted_products():
    assert _twisted_names(_tree("core.py")) == []


def test_only_the_product_index_and_the_twisted_builder_call_the_index_builder():
    calls = [call for p in PACKAGE.glob("*.py") for call in _callers(p.name, _tree(p.name), "_product_index")]
    assert sorted(calls) == sorted(PRODUCT_INDEX_CALLERS)


def test_the_twisted_guards_see_definitions_and_callers():
    tree = ast.parse(
        "class TwistedIndex: pass\n"
        "def _twisted_index(i): return core._product_index(i)\n"
        "class A:\n    @property\n    def twisted_index(self): return _product_index(self.rows)\n"
        "_xa_twist = 1\n"
        "_product_index(rows)\n"
    )
    assert _twisted_names(tree) == ["TwistedIndex", "_twisted_index", "_xa_twist", "twisted_index"]
    assert sorted(_callers("x.py", tree, "_product_index")) == [
        ("x.py", "<module>"), ("x.py", "A.twisted_index"), ("x.py", "_twisted_index"),
    ]
    tree = ast.parse("def product_index(a): return a._product_index\nalpha = _row_reduce(f, rows)\n")
    assert _twisted_names(tree) == []
    assert list(_callers("x.py", tree, "_product_index")) == []


# A declared product is built in one pass over its slices, by one builder that
# _product_algebra and _twisted share: checks defines no cell generator between
# the slices and the rows (_cells_of), and core no second way to assemble an
# algebra on a parent's parts (_algebra_like).
GONE = (("checks.py", "_cells_of"), ("core.py", "_algebra_like"))


def _local_callees(tree, name):
    """The functions defined at the top of a module that its top-level function name calls."""
    tops = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    return set(_called(tops[name])) & set(tops)


@pytest.mark.parametrize("module, name", GONE)
def test_the_replaced_product_passes_are_gone(module, name):
    assert name not in set(_defined(_tree(module)))


def test_the_declared_products_and_the_twisted_tables_share_one_builder():
    tree = _tree("checks.py")
    shared = _local_callees(tree, "_product_algebra") & _local_callees(tree, "_twisted")
    assert len(shared) == 1
    assert "_slice" in _local_callees(tree, *shared)


def test_the_builder_guards_see_definitions_and_shared_callees():
    tree = ast.parse(
        "def _cells_of(s, n): pass\n"
        "def _slice(k): pass\n"
        "def _table(a): return _slice(a)\n"
        "def _product_algebra(a): return _table(a), len(a)\n"
        "def _twisted(a): return x._table(a)\n"
    )
    assert "_cells_of" in set(_defined(tree))
    assert _local_callees(tree, "_product_algebra") & _local_callees(tree, "_twisted") == {"_table"}
    assert _local_callees(tree, "_table") == {"_slice"}
    tree = ast.parse("def _rows(a): pass\ndef _product_algebra(a): return _rows(a)\ndef _twisted(a): return _cells(a)\n")
    assert _local_callees(tree, "_product_algebra") & _local_callees(tree, "_twisted") == set()


# search_maps keeps kernel scalars from its values to its hits: neither it, its
# state object's methods nor its linear solve boxes a scalar into a field element
# (coerce) or keys one by field.sort_key, in its own body, a nested function, a
# method or a lambda.
SCALAR_SEARCH = {"search_maps", "_Search", "_solve_linear_part"}
BOXING = ("coerce", "sort_key")


def _boxing_calls(module, tree):
    """(callee, enclosing top-level definition) of each call of coerce or sort_key inside SCALAR_SEARCH."""
    calls = ((callee, scope.split(".")[0]) for callee in BOXING for _, scope in _callers(module, tree, callee))
    return sorted(call for call in calls if call[1] in SCALAR_SEARCH)


def test_the_search_boxes_no_scalar():
    tree = _tree("search.py")
    assert SCALAR_SEARCH <= {top.name for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
    assert _boxing_calls("search.py", tree) == []


def test_the_boxing_guard_sees_nested_and_lambda_calls():
    tree = ast.parse(
        "def search_maps(a, field):\n"
        "    inverse = cache(lambda c: field.one / field.coerce(c))\n"
        "    def descend(i):\n"
        "        return field.sort_key(i)\n"
        "def _solve_linear_part(a):\n"
        "    return coerce(1)\n"
        "class _Search:\n"
        "    def visit(self, field):\n"
        "        return field.coerce(2)\n"
        "def build_entry(field):\n"
        "    return field.coerce(1), field.sort_key(2)\n"
    )
    assert _boxing_calls("x.py", tree) == [
        ("coerce", "_Search"), ("coerce", "_solve_linear_part"), ("coerce", "search_maps"),
        ("sort_key", "search_maps"),
    ]
    tree = ast.parse("def search_maps(a, field):\n    return field.kernel_scalar(1), sort_keys\n")
    assert _boxing_calls("x.py", tree) == []
