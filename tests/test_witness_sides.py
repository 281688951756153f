"""A witness's sides, compiled per tuple, against the kernel's sums: equal dicts at every tuple.

checks._compiled(name) gives a declaration's (left, right) at a basis
tuple, each side's terms accumulated into a new dict with its exact zeros
dropped (checks._tuple_source).  tests/sides_oracle.py evaluates the same
declarations by kernel calls.  The two must give equal dicts at every tuple
of every declaration in checks._IDENTITIES and checks._CONDITIONS: on the
catalog over Q, F3, F5 and F7, with twisting maps other than the identity,
the entries' maps and forms, maps of odd degree (the F0 factor) and
Rota-Baxter weights 0 and -1, and on Hypothesis algebras with maps of any
degree and random forms.
"""

from itertools import product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_condition_slices import catalog_forms, catalog_maps, homogeneous_maps, symmetric_forms
from test_support_scans import FIELDS, sparse_algebras

import sides_oracle
from colorhom import checks
from colorhom.catalog import standard_entries
from colorhom.core import GradedLinearMap, identity_map

DECLARATIONS = [*checks._IDENTITIES, *checks._CONDITIONS]


def _reads(node, kind) -> bool:
    return type(node) is kind or type(node) is not int and any(_reads(x, kind) for x in node)


def scopes(a, name, maps, forms, weights):
    """The scopes a declaration's sides are compared on: f, weight and form only where its terms read them."""
    _, left, right = checks._IDENTITIES.get(name) or checks._CONDITIONS[name]
    nodes = [node for _, _, node in left + right]
    fs = maps if any(_reads(node, checks.F) for node in nodes) else [None]
    ws = weights if any(checks.WEIGHT in factors for _, factors, _ in left + right) else [0]
    gs = forms if any(_reads(node, checks.B) for node in nodes) else [None]
    return [(a, a, f, {}, w, g) for f in fs for w in ws for g in gs]


def assert_witness_sides_match(a, maps, forms=()):
    """Every declaration's compiled sides equal the oracle's at every tuple; the number of tuples compared."""
    weights, compared = [a.field.kernel_scalar(w) for w in (0, -1)], 0
    for name in DECLARATIONS:
        arity = (checks._IDENTITIES.get(name) or checks._CONDITIONS[name])[0]
        for scope in scopes(a, name, maps, forms, weights):
            compiled, expected = checks._compiled(name)(*scope), sides_oracle.sides(name)(*scope[:3], {}, *scope[4:])
            for idx in iproduct(range(a.dim), repeat=arity):
                assert compiled(*idx) == expected(*idx), (name, idx, scope[2:])
                compared += 1
    return compared


def odd_maps(a):
    """For each nonzero difference g of two basis degrees, the map e_i -> the sum of (k + 1) e_k over deg e_k = deg e_i + g."""
    n, out = a.dim, []
    for g in dict.fromkeys(e + -d for d in a.degrees for e in a.degrees):
        if not g.is_zero:
            rows = [[a.field.coerce(k + 1) if a.degrees[k] == a.degrees[i] + g else 0 for i in range(n)] for k in range(n)]
            out.append(GradedLinearMap(a.basis, rows, g))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_the_witness_sides_are_the_kernel_sums_on_the_catalog(field):
    twisted = odd = 0
    for entry in standard_entries(field):
        a = entry.algebra
        twisted += a.alpha != identity_map(a.basis)
        odd += len(maps := odd_maps(a))
        assert assert_witness_sides_match(a, catalog_maps(entry) + maps, catalog_forms(entry))
    assert twisted and odd  # alpha other than the identity, and maps of odd degree, are reached


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_algebras(), st.data())
def test_the_witness_sides_are_the_kernel_sums_on_random_algebras(a, data):
    maps = [data.draw(homogeneous_maps(a)) for _ in range(3)] + [a.alpha, identity_map(a.basis)]
    even = [m for m in maps if m.is_even]
    forms = [data.draw(symmetric_forms(a, data.draw(st.sampled_from(even)))) for _ in range(2)]
    assert assert_witness_sides_match(a, maps, forms)
