"""End-to-end battery: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything is exact arithmetic; a criterion either holds identically or the
failing witness is printed.  The d/dt criterion is expected to fail wherever
the characteristic does not divide the truncation order: the operator is not
a derivation of the quotient there, and the battery records that honestly
instead of silencing it.
"""

import json
import random
import shutil
from fractions import Fraction
from importlib import resources
from itertools import product as iproduct
from pathlib import Path

from colorhom import (
    BilinearFormStructure,
    GradeGroup,
    HypothesisError,
    bicharacter_eval,
    centroid_twist,
    check_cyclic_commutator_products,
    check_epsilon_commutative,
    check_hom_associative,
    check_hom_lie,
    check_hom_novikov,
    check_lie_admissible,
    check_multiplicative,
    check_quadratic_structure,
    commutator_algebra,
    compose_maps,
    derivation_product,
    determinant,
    direct_sum,
    eval_product,
    form_value,
    identity_map,
    is_morphism,
    make_algebra,
    make_bicharacter,
    parse_document,
    quadratic_commutator,
    quadratic_untwist_involutive,
    quadratic_yau_twist,
    scalar_map,
    serialize_document,
    tensor_product,
    unit_vector,
    validate_bicharacter,
    xi_square_twist,
    yau_twist,
)
from colorhom.catalog import (
    build_entry,
    dt_derivation,
    pairing_form,
    search_maps,
    standard_entries,
    super_commutative_line,
    truncated_polynomial,
)
from colorhom.checks import IDENTITY_ARITY
from colorhom.cli import main
from colorhom.linalg import identity_residual_on_vectors, identity_sides
from colorhom.scalars import prime_field, rationals

Q = rationals()
F5 = prime_field(5)
F7 = prime_field(7)


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d} [{status}] {label}")
    assert not failures, "; ".join(failures)


def _bicharacter_violations(field, b, grid):
    bad = []
    for g, h in iproduct(grid, repeat=2):
        e = bicharacter_eval(b, g, h)
        if e == field.zero:
            bad.append(f"zero value at ({g}, {h})")
        if e * bicharacter_eval(b, h, g) != field.one:
            bad.append(f"skew product != 1 at ({g}, {h})")
    for g, h, k in iproduct(grid, repeat=3):
        if bicharacter_eval(b, g + h, k) != bicharacter_eval(b, g, k) * bicharacter_eval(b, h, k):
            bad.append(f"not additive in the first slot at ({g}, {h}, {k})")
        if bicharacter_eval(b, g, h + k) != bicharacter_eval(b, g, h) * bicharacter_eval(b, g, k):
            bad.append(f"not additive in the second slot at ({g}, {h}, {k})")
    return bad


def test_criterion_01_bicharacter_axioms_hold_on_exhaustive_grids():
    failures = []

    sign_group = GradeGroup(0, (2,))
    sign = make_bicharacter(Q, sign_group, ((Q.from_int(-1),),))
    validate_bicharacter(sign)
    sign_grid = [sign_group.element((r,)) for r in range(2)]
    failures += [f"sign: {msg}" for msg in _bicharacter_violations(Q, sign, sign_grid)]

    mixed_group = GradeGroup(1, (3,))
    table = ((F7.from_int(-1), F7.from_int(2)), (F7.from_int(4), F7.one))
    mixed = make_bicharacter(F7, mixed_group, table)
    validate_bicharacter(mixed)
    # free coordinate swept through negatives, torsion coordinate exhausted
    mixed_grid = [mixed_group.element((a, t)) for a in range(-3, 4) for t in range(3)]
    failures += [f"mixed: {msg}" for msg in _bicharacter_violations(F7, mixed, mixed_grid)]

    _report(1, "bicharacter axioms on sign and mixed gradings", failures)


def test_criterion_02_polynomial_quotients_satisfy_the_three_core_identities():
    failures = []
    algebras = [(f"truncated n={n}", truncated_polynomial(n, Q)) for n in range(1, 6)]
    algebras.append(("super line", super_commutative_line(Q)))
    for name, a in algebras:
        for check in (check_epsilon_commutative, check_hom_associative, check_hom_novikov):
            verdict = check(a)
            if not verdict.passes:
                failures.append(f"{name} {check.__name__}: {verdict.witness}")
    _report(2, "commutative quotients are eps-commutative, hom-associative, hom-Novikov", failures)


def test_criterion_03_formal_derivative_products_are_hom_novikov():
    # x*y = x . d/dt(y) on K[t]/(t^n).  d/dt only satisfies the Leibniz rule
    # on the quotient when the characteristic divides n, so the construction
    # is run unchecked and the conclusion is measured directly.  The n=3
    # product table itself is still pinned: e1*e2 = 2 e2.
    failures = []
    base3 = truncated_polynomial(3, Q)
    prod3 = derivation_product(base3, dt_derivation(base3), checked=False)
    got = eval_product(prod3, unit_vector(Q, 3, 1), unit_vector(Q, 3, 2))
    expected = (Q.zero, Q.zero, Q.from_int(2))
    if tuple(got) != expected:
        failures.append(f"n=3 product table: e1*e2 = {got}, expected {expected}")
    for field, label in ((Q, "Q"), (F5, "F5")):
        for n in range(2, 6):
            base = truncated_polynomial(n, field)
            prod = derivation_product(base, dt_derivation(base), checked=False)
            verdict = check_hom_novikov(prod)
            if not verdict.passes:
                failures.append(f"{label} n={n}: {verdict.witness}")
    _report(3, "d/dt products on truncated quotients are hom-Novikov", failures)


def test_criterion_04_novikov_instances_yield_hom_lie_brackets():
    failures = []
    for field, label in ((Q, "Q"), (F7, "F7")):
        for entry in standard_entries(field):
            if "hom_novikov" not in entry.recipe.claims:
                continue
            name = f"{entry.recipe.name}{dict(entry.recipe.params)} over {label}"
            a = entry.algebra
            for tag, verdict in (
                ("cyclic", check_cyclic_commutator_products(a)),
                ("bracket hom-Lie", check_hom_lie(commutator_algebra(a))),
                ("Lie admissible", check_lie_admissible(a)),
            ):
                if not verdict.passes:
                    failures.append(f"{name} {tag}: {verdict.witness}")
    _report(4, "every Novikov instance: cyclic products, hom-Lie commutator, Lie admissible", failures)


def test_criterion_05_yau_twists_along_found_weak_morphisms_stay_novikov():
    failures = []
    pairs = 0
    for entry in standard_entries(Q):
        a = entry.algebra
        if "hom_novikov" not in entry.recipe.claims or a.dim > 3:
            continue
        name = f"{entry.recipe.name}{dict(entry.recipe.params)}"
        for m in search_maps(a, "weak_morphism", budget=10**4):
            pairs += 1
            verdict = check_hom_novikov(yau_twist(a, m))
            if not verdict.passes:
                failures.append(f"{name} twist by {m.matrix}: {verdict.witness}")
            if is_morphism(a, a, m) and "multiplicative" in entry.recipe.claims:
                verdict = check_multiplicative(yau_twist(a, m))
                if not verdict.passes:
                    failures.append(f"{name} morphism twist not multiplicative: {verdict.witness}")
    if pairs == 0:
        failures.append("search produced no (instance, weak morphism) pairs at all")

    # negative control: one corrupted structure constant must be caught,
    # with a witness naming it
    tp3 = truncated_polynomial(3, Q)
    rows = [[list(c) for c in plane] for plane in tp3.structure]
    rows[1][2][2] = Q.from_int(7)
    corrupt = make_algebra(
        tp3.basis,
        tp3.bicharacter,
        tuple(tuple(tuple(c) for c in plane) for plane in rows),
        tp3.alpha,
    )
    verdict = check_hom_novikov(yau_twist(corrupt, identity_map(tp3.basis), checked=False))
    if verdict.passes:
        failures.append("corrupted instance slipped through the conclusion check")
    else:
        w = verdict.witness
        if w.identity != "right-commutativity" or w.indices != (0, 1, 2):
            failures.append(f"unexpected corruption witness: {w}")
        if tuple(w.left) != (Q.zero, Q.zero, Q.from_int(7)):
            failures.append(f"witness does not name the corrupted value: {w.left}")
    _report(5, f"Yau twists along {pairs} found weak morphisms, plus negative control", failures)


def test_criterion_06_centroid_and_element_square_twists():
    failures = []
    euler3 = build_entry("euler_novikov", Q, n=3).algebra
    for lam in (1, 2, -1):
        twisted = centroid_twist(euler3, scalar_map(euler3.basis, Q.from_int(lam)))
        verdict = check_hom_novikov(twisted)
        if not verdict.passes:
            failures.append(f"centroid scale {lam}: {verdict.witness}")

    tp3 = truncated_polynomial(3, Q)
    squared = xi_square_twist(tp3, unit_vector(Q, 3, 1))
    verdict = check_hom_associative(squared)
    if not verdict.passes:
        failures.append(f"xi-square twist not hom-associative: {verdict.witness}")
    if squared.alpha.matrix != compose_maps(tp3.alpha, tp3.alpha).matrix:
        failures.append("xi-square twist does not carry the squared twisting map")
    _report(6, "centroid twists stay Novikov; element-square twist is hom-associative with alpha^2", failures)


def test_criterion_07_products_and_sums_preserve_novikov_with_guarded_inputs():
    failures = []
    euler2 = build_entry("euler_novikov", Q, n=2).algebra
    euler3 = build_entry("euler_novikov", Q, n=3).algebra
    tp2 = truncated_polynomial(2, Q)

    tensor = tensor_product(euler2, tp2)
    if tensor.dim != 4:
        failures.append(f"tensor dimension {tensor.dim} != 4")
    verdict = check_hom_novikov(tensor)
    if not verdict.passes:
        failures.append(f"tensor not Novikov: {verdict.witness}")

    summed = direct_sum(euler2, euler3)
    verdict = check_hom_novikov(summed)
    if not verdict.passes:
        failures.append(f"direct sum not Novikov: {verdict.witness}")

    # a non-commutative second factor must be rejected before any building
    try:
        tensor_product(euler2, euler3)
        failures.append("non-commutative second factor was accepted")
    except HypothesisError as err:
        if err.requirement != "epsilon-commutative(second factor)":
            failures.append(f"rejection names the wrong hypothesis: {err.requirement}")
    _report(7, "tensor product and direct sum preserve Novikov, preconditions enforced", failures)


def test_criterion_08_quadratic_structures_round_trip():
    failures = []
    tp3 = truncated_polynomial(3, Q)
    anti = pairing_form(tp3)

    verdict = check_quadratic_structure(tp3, anti)
    if not verdict.passes:
        failures.append(f"anti-diagonal form rejected: {verdict.witness}")
    if determinant(Q, anti.gram) != Fraction(-1):
        failures.append(f"anti-diagonal determinant {determinant(Q, anti.gram)} != -1")

    ident_gram = tuple(
        tuple(Q.one if i == j else Q.zero for j in range(3)) for i in range(3)
    )
    ident_form = BilinearFormStructure(tp3.basis, ident_gram, identity_map(tp3.basis))
    verdict = check_quadratic_structure(tp3, ident_form)
    if verdict.passes:
        failures.append("identity form wrongly accepted as invariant")
    elif verdict.witness.identity != "invariance" or verdict.witness.indices != (1, 1, 0):
        failures.append(f"identity form witness: {verdict.witness}")

    bracket, bform = quadratic_commutator(tp3, anti)
    units = [unit_vector(Q, 3, i) for i in range(3)]
    for i, j, k in iproduct(range(3), repeat=3):
        lhs = form_value(bform, eval_product(bracket, units[i], units[j]), units[k])
        rhs = form_value(bform, units[i], eval_product(bracket, units[j], units[k]))
        if lhs != rhs:
            failures.append(f"bracket invariance fails at ({i}, {j}, {k})")

    found = search_maps(tp3, "symmetric_automorphism", values=(-1, 0, 1), budget=20000, form=anti)
    if not found:
        failures.append("no symmetric automorphism found")
    for beta in found:
        twisted, tform = quadratic_yau_twist(tp3, anti, beta)
        verdict = check_quadratic_structure(twisted, tform)
        if not verdict.passes:
            failures.append(f"twist along {beta.matrix} loses the quadratic structure: {verdict.witness}")

    inv = build_entry("involutive_quadratic_polynomial", Q, n=3)
    plain, pform = quadratic_untwist_involutive(inv.algebra, inv.forms["pairing"])
    verdict = check_hom_novikov(plain)
    if not verdict.passes:
        failures.append(f"untwisted algebra not Novikov: {verdict.witness}")
    if plain.alpha.matrix != identity_map(plain.basis).matrix:
        failures.append("untwist did not reset the twisting map to the identity")
    _report(8, "quadratic forms: invariance, bracket transfer, twist and untwist", failures)


def test_criterion_09_basis_scans_agree_with_random_vector_evaluation():
    failures = []
    instances = {
        "euler_novikov_3_Q": build_entry("euler_novikov", Q, n=3).algebra,
        "super_commutative_line_Q": super_commutative_line(Q),
        "z3_graded_nilpotent_F7": build_entry("z3_graded_nilpotent", F7).algebra,
    }
    for iname, a in instances.items():
        n = a.dim
        units = [unit_vector(a.field, n, i) for i in range(n)]
        zero = (a.field.zero,) * n
        for identity, arity in sorted(IDENTITY_ARITY.items()):
            scan_pass = True
            for idx in iproduct(range(n), repeat=arity):
                left, right = identity_sides(
                    a, identity, [a.degrees[i] for i in idx], [units[i] for i in idx]
                )
                if left != right:
                    scan_pass = False
                    break
            rng = random.Random(f"{iname}:{identity}")
            nonzero_residuals = 0
            for _ in range(100):
                vecs = [
                    tuple(a.field.from_int(rng.randint(-3, 3)) for _ in range(n))
                    for _ in range(arity)
                ]
                if tuple(identity_residual_on_vectors(a, identity, vecs)) != zero:
                    nonzero_residuals += 1
            if scan_pass and nonzero_residuals:
                failures.append(
                    f"{iname} {identity}: scan passes but {nonzero_residuals} random residuals are nonzero"
                )
            if not scan_pass and not nonzero_residuals:
                failures.append(
                    f"{iname} {identity}: scan fails but all 100 random residuals vanish"
                )
    _report(9, "identity scans agree with 100 seeded random vector evaluations each", failures)


def test_criterion_10_serialization_round_trips_and_suite_catches_corruption(tmp_path, capsys):
    failures = []
    for field, label in ((Q, "Q"), (F7, "F7")):
        for entry in standard_entries(field):
            text = serialize_document(entry.algebra, entry.maps, entry.forms)
            doc = parse_document(text)
            again = serialize_document(doc.algebra, doc.maps, doc.forms)
            if again != text:
                failures.append(f"{entry.recipe.name} over {label} does not round trip")

    if main(["suite", "builtin:theorems"]) != 0:
        failures.append("shipped suite does not pass")
    capsys.readouterr()

    src = Path(str(resources.files("colorhom") / "suites"))
    dst = tmp_path / "suites"
    shutil.copytree(src, dst)
    target = dst / "instances" / "poly3.json"
    doc = json.loads(target.read_text())
    doc["product"]["triples"].append([1, 2, 2, 7])
    target.write_text(json.dumps(doc))

    rc = main(["suite", str(dst / "theorems.json"), "--format", "machine"])
    report = json.loads(capsys.readouterr().out)
    if rc != 1:
        failures.append(f"corrupted suite exited {rc}, expected 1")
    else:
        failed = [r for r in report["rows"] if not r["passes"]]
        if not failed:
            failures.append("corrupted suite reported no failing row")
        else:
            w = failed[0]["witness"]
            if w["indices"] != [1, 2] or w["left"] != [0, 0, 7]:
                failures.append(f"witness does not locate the corruption: {w}")
    _report(10, "byte-stable serialization; suite flips to failure on one corrupted constant", failures)
