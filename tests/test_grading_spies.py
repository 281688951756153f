"""No group arithmetic per pair of basis vectors.

A basis compiles its grading once: class ids, a class-sum table summed on
coordinates and eps per pair of classes from the generator values.
tensor_product sums one pair of degrees per pair of its factors' classes
and direct_sum none; neither, nor the load of a document, calls
bicharacter_eval.  Spies on GroupElement.__add__ and on every module's
bicharacter_eval count the calls and hold them to the factors' class
pairs, well below the output's basis pairs.
"""

import json

import pytest

import colorhom
from colorhom import constructions, core, grading
from colorhom.catalog import build_entry
from colorhom.io import parse_document
from colorhom.scalars import prime_field

F7 = prime_field(7)


def twisted_group_algebra(z3):
    """e_a * e_b = w^(a1 b2) e_(a+b) over Z3 x Z3, w the cube root in z3's bicharacter: eps-commutative, associative."""
    group, omega = z3.group, z3.bicharacter.gen_table[0][1]
    elems = [group.element((a1, a2)) for a1 in range(3) for a2 in range(3)]
    cells = (((i, j), {elems.index(x + y): omega ** (x.coords[0] * y.coords[1])}) for i, x in enumerate(elems)
             for j, y in enumerate(elems))
    basis = core.GradedBasis(F7, group, tuple(elems))
    return core._algebra_from_cells(basis, z3.bicharacter, cells, core.identity_map(basis))


def polynomial(z3, m):
    """K[t]/(t^m) in degree 0 of z3's group (U(m=2) of the graded workload: t -> t/(1-t) is the identity there)."""
    basis = core.GradedBasis(F7, z3.group, (z3.group.zero(),) * m)
    cells = (((i, j), {i + j: 1}) for i in range(m) for j in range(m) if i + j < m)
    return core._algebra_from_cells(basis, z3.bicharacter, cells, core.identity_map(basis))


@pytest.fixture
def calls(monkeypatch):
    """Counts of GroupElement.__add__ ("add") and bicharacter_eval ("eval") calls from here on."""
    counts = {"add": 0, "eval": 0}
    add, evaluate = grading.GroupElement.__add__, grading.bicharacter_eval

    def counted_add(*args):
        counts["add"] += 1
        return add(*args)

    def counted_eval(*args):
        counts["eval"] += 1
        return evaluate(*args)

    monkeypatch.setattr(grading.GroupElement, "__add__", counted_add)
    for module in (grading, core, colorhom):
        if "bicharacter_eval" in vars(module):
            monkeypatch.setattr(module, "bicharacter_eval", counted_eval)
    return counts


def test_tensor_product_sums_a_pair_of_degrees_per_pair_of_classes(calls):
    z3 = build_entry("z3_graded_nilpotent", F7).algebra
    tg, u2 = twisted_group_algebra(z3), polynomial(z3, 2)
    calls.update(add=0, eval=0)
    out = constructions.tensor_product(u2, tg)
    assert out.dim == 18
    assert calls["eval"] == 0
    class_pairs = len(u2.basis.degree_classes[0]) * len(tg.basis.degree_classes[0])
    assert calls["add"] <= class_pairs == 9 < out.dim**2


def test_direct_sum_adds_no_degrees(calls):
    z3 = build_entry("z3_graded_nilpotent", F7).algebra
    u3 = polynomial(z3, 3)
    calls.update(add=0, eval=0)
    constructions.direct_sum(z3, u3)
    assert calls == {"add": 0, "eval": 0}


def test_loading_a_many_degree_document_evaluates_no_eps_per_pair(calls):
    n = 120
    text = json.dumps({
        "field": {"kind": "rationals"},
        "group": {"free_rank": 2, "torsion_orders": []},
        "bicharacter": {"gen_table": [[1, 2], ["1/2", 1]]},
        "basis": {"degrees": [[k % 25, k // 25] for k in range(n)]},
        "product": {"triples": []},
        "alpha": {"matrix": [[int(k == i) for i in range(n)] for k in range(n)]},
    })
    a = parse_document(text).algebra
    assert len(a.basis.degree_classes[0]) == n
    assert calls == {"add": 0, "eval": 0}
