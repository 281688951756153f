"""The flat entry lists and the twisted products a slice reads, and the two-loop nests.

core.ProductIndex lists each product e_i * e_j as flat entries by row and by
column, and checks._twisted gives the index of the declared products
times-image and image-times with f = alpha, e_i * alpha(e_j) and
alpha(e_i) * e_j, each summed as the kernel sums (unreduced over F_p) with
its zero sums dropped.  The tests compare them with the kernel on basis
vectors, pin which twisted product each declaration's slices build, and
check that every identity term compiles to a nest of at most two loops.
"""

import ast
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from test_support_scans import ALPHA, COMPOSITES, DIRECTED, FIELDS, _algebra, sparse_algebras

from colorhom import catalog, checks, core, linalg
from colorhom.catalog import standard_entries


def unit(i):
    return {i: 1}


def nonzeros(a, x):
    """A kernel value with its keys ascending, as the tables keep it."""
    return dict(sorted(x.items()))


def entries(products, n):
    """The (j, m, c) of each row and the (i, m, c) of each column of products[i][j] = {m: c}."""
    by_row = tuple([(j, m, c) for j in range(n) for m, c in products[i][j].items()] for i in range(n))
    by_col = tuple([(i, m, c) for i in range(n) for m, c in products[i][j].items()] for j in range(n))
    return by_row, by_col


def assert_entries_list_the_nonzeros(a):
    n, alpha = a.dim, a.alpha
    x, xa, ax = a.product_index, checks._twisted(a, "times-image"), checks._twisted(a, "image-times")
    plain = [[nonzeros(a, core.sparse_product(a, unit(i), unit(j))) for j in range(n)] for i in range(n)]
    assert (x.row_entries, x.col_entries) == entries(plain, n)
    right = [[nonzeros(a, core.sparse_product(a, unit(i), core.sparse_apply(alpha, unit(j)))) for j in range(n)]
             for i in range(n)]
    assert (xa.row_entries, xa.col_entries) == entries(right, n)
    left = [[nonzeros(a, core.sparse_product(a, core.sparse_apply(alpha, unit(i)), unit(j))) for j in range(n)]
            for i in range(n)]
    assert (ax.row_entries, ax.col_entries) == entries(left, n)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_entry_lists_and_twisted_tables_list_every_nonzero_on_the_catalog(field):
    for entry in standard_entries(field):
        assert_entries_list_the_nonzeros(entry.algebra)


@pytest.mark.parametrize("case", ALPHA)
def test_the_twisted_tables_list_every_nonzero_through_alpha(case):
    assert_entries_list_the_nonzeros(_algebra(DIRECTED[case][0], ALPHA[case]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras().filter(lambda a: a.alpha != core.identity_map(a.basis)))
def test_the_entry_lists_and_twisted_tables_list_every_nonzero_on_random_algebras(a):
    assert_entries_list_the_nonzeros(a)


# ---------------------------------------------------------------------------
# the twisted tables are built only by the slices that read them

TWISTED = ("times-image", "image-times")  # x*alpha(y) and alpha(x)*y

# the twisted products each declaration's slices read; every other declaration reads none
BUILDS = {
    "right-commutativity": {"times-image"},
    "cyclic-right-products": {"times-image"},
    "defect-centrality": {"times-image"},
    "operator-right-commutativity": {"times-image"},
    "alpha-center": {"times-image"},
    "hom-jacobi": {"image-times"},
    "cyclic-left-products": {"image-times"},
    "hom-associativity": {"times-image", "image-times"},
    "left-symmetry": {"times-image", "image-times"},
}


def fresh(a):
    """An algebra equal to a with no list built yet: the declared product identity(x*y)."""
    return checks._product_algebra("mapped", a, core.identity_map(a.basis))


def built(b):
    """The twisted products built on b."""
    return {name for name in TWISTED if name in vars(b)}


def scaled():
    """A Hom-Novikov algebra with alpha not the identity, on which every identity check passes."""
    return catalog.build_entry("scaled_polynomial", FIELDS[0], n=3, c=2).algebra


@pytest.mark.parametrize("name", [*checks._IDENTITIES, *checks._CONDITIONS, *checks._PRODUCTS])
def test_each_declaration_builds_exactly_the_twisted_products_it_reads(name):
    b = fresh(scaled())
    assert b.alpha != core.identity_map(b.basis)
    form = SimpleNamespace(gram_rows=({},) * b.dim)
    checks._slice(name)(b, b, b.alpha, {}, 0, form)
    assert built(b) == BUILDS.get(name, set())


def test_each_check_builds_exactly_the_twisted_products_of_its_identities():
    a = scaled()
    x = linalg.unit_vector(a.field, a.dim, 1)
    for run, expected in (
        (checks.check_epsilon_commutative, set()),
        (checks.check_right_commutative, {"times-image"}),
        (checks.check_hom_associative, set(TWISTED)),
        (checks.check_left_symmetric, set(TWISTED)),
        (checks.check_hom_novikov, set(TWISTED)),
        (checks.check_cyclic_commutator_products, set(TWISTED)),
        (checks.check_lie_admissible, set()),  # the bracket algebra builds its own
        (lambda b: checks.in_alpha_center(b, x), {"times-image"}),
        (lambda b: checks.check_bracket_operator_conditions(b, core.identity_map(b.basis)), {"times-image"}),
    ):
        b = fresh(a)
        run(b)
        assert built(b) == expected, run
    bracket = fresh(checks._product_algebra("bracket", a))
    assert checks.check_hom_lie(bracket)
    assert built(bracket) == {"image-times"}


def test_operator_predicates_and_derivation_searches_leave_the_twisted_tables_unbuilt():
    a = catalog.build_entry("euler_novikov", FIELDS[0], n=5).algebra
    for run in (
        lambda b: checks.is_weak_morphism(b, b, b.alpha),
        lambda b: checks.is_derivation(b, core.scalar_map(b.basis, 2)),
        lambda b: catalog.search_maps(b, "derivation"),
    ):
        b = fresh(a)
        run(b)
        assert built(b) == set()
    b = fresh(a)
    checks.check_hom_novikov(b)
    assert built(b) == set(TWISTED)
    assert b.alpha == core.identity_map(b.basis)  # so both are the product's own index
    assert all(checks._twisted(b, name) is b.product_index for name in TWISTED)


IDENTITY_CHECKS = [*COMPOSITES.values(), checks.check_right_commutative, checks.check_lie_admissible]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_identity_checks_give_one_verdict_on_fresh_and_cached_tables(field):
    for entry in standard_entries(field):
        warm = entry.algebra
        for name in TWISTED:
            checks._twisted(warm, name)
        for check in IDENTITY_CHECKS:
            assert repr(check(fresh(warm))) == repr(check(warm)), (entry.recipe, check.__name__)


# ---------------------------------------------------------------------------
# the shape of the compiled nests


def loop_depth(node) -> int:
    """The deepest nesting of for loops under node."""
    below = max((loop_depth(child) for child in ast.iter_child_nodes(node)), default=0)
    return below + isinstance(node, ast.For)


@pytest.mark.parametrize("name", checks.IDENTITY_ARITY)
def test_every_identity_term_is_a_nest_of_at_most_two_loops(name):
    scan_slice = next(
        node for node in ast.walk(ast.parse(checks._slice_source(name)))
        if isinstance(node, ast.FunctionDef) and node.name == "scan_slice"
    )
    loops = [node for node in scan_slice.body if isinstance(node, ast.For)]
    _, left, right = checks._IDENTITIES[name]
    assert len(loops) == len(left + right)
    assert max(map(loop_depth, loops)) <= 2
