"""Seeded job pools for the three benchmark workloads.

Each workload is a fixed pool of (input, operation) pairs.  Inputs are built
only through colorhom's public constructors (catalog recipes, make_algebra,
make_map, GradedBasis, the constructions), and every generator checks the
verdicts theory predicts for its inputs, so a wrong generator stops the
benchmark instead of timing the wrong program.  The seed decides the order
in which the pool is run, never its contents; recorded outcomes are keyed by
the pool item.

A job is one public call.  It names a colorhom module and a function that is
looked up when the job runs, so wrappers installed by the traced run see the
call.  CLI jobs carry an argv instead and run as a child process or, in the
traced run, through colorhom.cli.main in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from colorhom import catalog, checks, constructions, core
from colorhom import io as docio
from colorhom.grading import trivial_bicharacter
from colorhom.scalars import prime_field, rationals


@dataclass(frozen=True)
class Job:
    key: str
    module: object = None
    func: str = ""
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    argv: tuple = ()

    @property
    def kind(self) -> str:
        """Job family: the called function, or cli.<verb>."""
        return f"cli.{self.argv[0]}" if self.argv else self.func


def _expect(condition, prediction: str):
    if not condition:
        raise RuntimeError(f"input generator contradicts theory: {prediction}")


def _call(key, module, func, *args, **kwargs) -> Job:
    return Job(key, module, func, args, kwargs)


# ---------------------------------------------------------------------------
# sparse_novikov_q: one nonzero per cell, trivial grading, rationals

# (family, check) -> n values.  euler_novikov passes the Novikov-type checks
# and fails hom-associativity at the first triple; the d/dt product passes
# right-commutativity but fails left-symmetry early, so its scans stop at a
# witness after a short or a full first pass.
#
# Pool sizes end in 5 (here 55): with every item repeated once per round,
# p50 and p90 then fall in the middle of one item's copies, not between two
# items.  The n values are chosen so that the items around p90 (the sixth
# dearest) cost about the same.
SPARSE_CHECKS = {
    ("euler_novikov", "check_hom_novikov"): (6, 7, 8, 9, 10, 11, 12, 14),
    ("euler_novikov", "check_hom_associative"): range(6, 15),
    ("euler_novikov", "check_left_symmetric"): range(6, 13, 2),
    ("euler_novikov", "check_lie_admissible"): range(7, 12, 2),
    ("euler_novikov", "check_cyclic_commutator_products"): range(6, 9),
    ("dt_product", "check_hom_novikov"): range(6, 15),
    ("dt_product", "check_hom_associative"): range(6, 15, 2),
    ("dt_product", "check_left_symmetric"): range(6, 15),
    ("dt_product", "check_lie_admissible"): range(6, 15, 2),
}


def sparse_novikov_q(workdir: Path) -> list:
    q = rationals()
    jobs = []
    for n in range(6, 15):
        # the recipe gates derivation_product on its hypotheses: Q[t]/(t^n)
        # is commutative associative and t d/dt is a derivation of it
        algebras = {"euler_novikov": catalog.build_entry("euler_novikov", q, n=n).algebra}
        base = catalog.truncated_polynomial(n, q)
        dt = catalog.dt_derivation(base)
        _expect(
            not checks.is_derivation(base, dt),
            "d/dt is a derivation of Q[t]/(t^n) only when char divides n",
        )
        algebras["dt_product"] = constructions.derivation_product(base, dt, checked=False)
        for (family, func), ns in SPARSE_CHECKS.items():
            if n in ns:
                jobs.append(_call(f"{func} {family}(n={n})", checks, func, algebras[family]))
    return jobs


# ---------------------------------------------------------------------------
# graded_dense_f7: Z3 x Z3 grading with a cube-root bicharacter over F7

def twisted_group_algebra(z3: core.ColorHomAlgebra) -> core.ColorHomAlgebra:
    """TG: e_a * e_b = w^(a1 b2) e_(a+b) over Z3 x Z3, w the cube root in z3's bicharacter.

    The cocycle is bilinear, so TG is associative, and its eps-commutator
    is w^(a1 b2 - a2 b1) = eps(a, b), so it is eps-commutative.
    """
    field, group, bichar = z3.field, z3.group, z3.bicharacter
    omega = bichar.gen_table[0][1]
    elems = [group.element((a1, a2)) for a1 in range(3) for a2 in range(3)]
    position = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    structure = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            structure[i][j][position[x + y]] = omega ** (x.coords[0] * y.coords[1])
    basis = core.GradedBasis(field, group, tuple(elems))
    return core.make_algebra(basis, bichar, structure, core.identity_map(basis))


def degree_zero_polynomial(z3: core.ColorHomAlgebra, m: int) -> core.ColorHomAlgebra:
    """K[t]/(t^m) placed in degree 0 of z3's grading group, under z3's bicharacter."""
    field, group = z3.field, z3.group
    basis = core.GradedBasis(field, group, (group.zero(),) * m)
    structure = [
        [[field.one if i + j == k else field.zero for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    return core.make_algebra(basis, z3.bicharacter, structure, core.identity_map(basis))


def substitution(p: core.ColorHomAlgebra) -> core.GradedLinearMap:
    """t -> t/(1-t): t^k -> sum_j C(k+j-1, j) t^(k+j), an algebra endomorphism."""
    m, field = p.dim, p.field
    rows = [[field.zero] * m for _ in range(m)]
    rows[0][0] = field.one
    for k in range(1, m):
        for j in range(m - k):
            rows[k + j][k] = field.from_int(comb(k + j - 1, j))
    return core.make_map(p.basis, rows)


def graded_dense_f7(workdir: Path) -> list:
    f7 = prime_field(7)
    z3 = catalog.build_entry("z3_graded_nilpotent", f7).algebra
    tg = twisted_group_algebra(z3)
    _expect(checks.check_epsilon_commutative(tg), "TG is eps-commutative")
    _expect(checks.check_hom_associative(tg), "TG is associative")

    poly, phi, u = {}, {}, {}
    for m in range(2, 9):
        poly[m] = degree_zero_polynomial(z3, m)
        phi[m] = substitution(poly[m])
        _expect(checks.is_weak_morphism(poly[m], poly[m], phi[m]), "substitution is multiplicative")
        u[m] = constructions.yau_twist(poly[m], phi[m])
        _expect(checks.is_weak_morphism(u[m], u[m], phi[m]), "phi is a weak morphism of U_m")
    tensor = {m: constructions.tensor_product(u[m], z3) for m in range(2, 8)}
    u2_tg = constructions.tensor_product(u[2], tg)
    _expect(u2_tg.dim == 18, "U_2 (x) TG has dimension 18")
    bracket = {m: constructions.commutator_algebra(u[m]) for m in (4, 6, 7, 8)}
    tensor_bracket = {m: constructions.commutator_algebra(tensor[m]) for m in (3, 4)}
    u2_tg_bracket = constructions.commutator_algebra(u2_tg)
    sums = {m: constructions.direct_sum(z3, u[m]) for m in (3, 4, 5, 6)}
    one, zero = f7.one, f7.zero
    z3_derivation = core.make_map(
        z3.basis, ((one, zero, zero), (zero, one, zero), (zero, zero, f7.from_int(2)))
    )
    _expect(checks.is_derivation(z3, z3_derivation), "diag(1, 1, 2) is a derivation of z3")
    tg_identity = core.identity_map(tg.basis)
    _expect(not checks.is_derivation(tg, tg_identity), "the identity is no derivation of TG")

    label = lambda name, m: f"{name}(m={m})"  # noqa: E731
    jobs = []
    # constructions with their hypothesis gates
    for m in range(3, 9):
        jobs.append(_call(f"yau_twist {label('P', m)}", constructions, "yau_twist", poly[m], phi[m]))
    for m in range(3, 8):
        jobs.append(_call(f"tensor_product {label('U', m)},z3", constructions, "tensor_product", u[m], z3))
    jobs.append(_call("tensor_product U(m=2),TG", constructions, "tensor_product", u[2], tg))
    for m in (4, 6, 8):
        jobs.append(_call(f"commutator_algebra {label('U', m)}", constructions, "commutator_algebra", u[m]))
    jobs.append(_call("commutator_algebra TG", constructions, "commutator_algebra", tg))
    jobs.append(_call("commutator_algebra U(m=2)(x)TG", constructions, "commutator_algebra", u2_tg))
    for m in (5, 7):
        jobs.append(
            _call(f"commutator_algebra {label('U', m)}(x)z3", constructions, "commutator_algebra", tensor[m])
        )
    jobs.append(_call("direct_sum z3,z3", constructions, "direct_sum", z3, z3))
    for m in (3, 6):
        jobs.append(_call(f"direct_sum z3,{label('U', m)}", constructions, "direct_sum", z3, u[m]))
    # gates that stop at a witness
    jobs.append(_call("centroid_twist U(m=3)", constructions, "centroid_twist", u[3], phi[3]))
    jobs.append(_call("derivation_product TG,id", constructions, "derivation_product", tg, tg_identity))
    # conclusion checks
    for m in range(3, 9):
        jobs.append(_call(f"check_hom_novikov {label('U', m)}", checks, "check_hom_novikov", u[m]))
    for m in range(2, 5):
        jobs.append(
            _call(f"check_hom_novikov {label('U', m)}(x)z3", checks, "check_hom_novikov", tensor[m])
        )
    jobs.append(_call("check_hom_novikov U(m=2)(x)TG", checks, "check_hom_novikov", u2_tg))
    jobs.append(_call("check_hom_novikov TG", checks, "check_hom_novikov", tg))
    for m, direct in sums.items():
        jobs.append(_call(f"check_hom_novikov z3+{label('U', m)}", checks, "check_hom_novikov", direct))
    for m, b in bracket.items():
        jobs.append(_call(f"check_hom_lie [{label('U', m)}]", checks, "check_hom_lie", b))
    for m, b in tensor_bracket.items():
        jobs.append(_call(f"check_hom_lie [{label('U', m)}(x)z3]", checks, "check_hom_lie", b))
    jobs.append(_call("check_hom_lie [U(m=2)(x)TG]", checks, "check_hom_lie", u2_tg_bracket))
    jobs.append(_call("check_multiplicative U(m=8)", checks, "check_multiplicative", u[8]))
    for m in (6, 7):
        jobs.append(
            _call(f"check_multiplicative {label('U', m)}(x)z3", checks, "check_multiplicative", tensor[m])
        )
    jobs.append(_call("check_multiplicative U(m=2)(x)TG", checks, "check_multiplicative", u2_tg))
    # operator predicates
    for m in (6, 8):
        jobs.append(
            _call(f"is_weak_morphism {label('U', m)},phi", checks, "is_weak_morphism", u[m], u[m], phi[m])
        )
    jobs.append(_call("is_centroid U(m=4),phi", checks, "is_centroid", u[4], phi[4]))
    jobs.append(_call("is_derivation z3,diag(1,1,2)", checks, "is_derivation", z3, z3_derivation))
    # sampling search: exhaustive on z3 and U_2, sampled on U_3 and TG
    for predicate in ("derivation", "weak_morphism", "centroid"):
        jobs.append(_call(f"search_maps z3,{predicate}", catalog, "search_maps", z3, predicate))
        jobs.append(_call(f"search_maps U(m=2),{predicate}", catalog, "search_maps", u[2], predicate))
    # budgets chosen so that these jobs, which sit around p90 (the seventh
    # dearest of 65 items), cost about the same
    sampled = (
        (u[3], "U(m=3)", "weak_morphism", 4000),
        (u[3], "U(m=3)", "derivation", 3000),
        (u[3], "U(m=3)", "centroid", 1500),
        (tg, "TG", "derivation", 1200),
        (tg, "TG", "weak_morphism", 1700),
    )
    for algebra, name, predicate, budget in sampled:
        jobs.append(
            _call(f"search_maps {name},{predicate},budget={budget}", catalog, "search_maps",
                  algebra, predicate, budget=budget)
        )
    return jobs


# ---------------------------------------------------------------------------
# documents_cli: large documents in-process, CLI verbs as child processes

DOC_SIZES = (64, 128)


def euler_novikov_direct(n: int) -> core.ColorHomAlgebra:
    """euler_novikov(n) over Q assembled from its triples, skipping the recipe's n^3 gate.

    e_i * e_j = j e_(i+j) for i + j < n: the product x * (t d/dt)(y).
    """
    field = rationals()
    basis = core.trivial_basis(field, n)
    zero = field.zero
    structure = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(1, n - i):
            structure[i][j][i + j] = field.from_int(j)
    return core.make_algebra(
        basis, trivial_bicharacter(field, basis.group), structure, core.identity_map(basis)
    )


CLI_JOBS = (
    ("check", "euler6.json", "hom_novikov"),
    ("check", "euler6.json", "hom_associative", "--format", "machine"),
    ("check", "poly4.json", "derivation", "euler"),
    ("construct", "euler6.json", "commutator_algebra", "--out", "comm6.json"),
    ("construct", "poly4.json", "yau_twist", "scale2"),
    # d/dt is no derivation of Q[t]/(t^4): the gate fails with a witness, exit 1
    ("construct", "poly4.json", "derivation_product", "dt", "--out", "dt4.json"),
    ("catalog", "euler_novikov", "--n", "8", "--out", "cat8.json"),
    ("suite", "builtin:theorems", "--format", "machine"),
    # triple index out of range: a structural error, exit 2
    ("check", "malformed.json", "hom_novikov"),
)


def documents_cli(workdir: Path) -> list:
    q = rationals()
    for n in range(2, 7):
        _expect(
            euler_novikov_direct(n) == catalog.build_entry("euler_novikov", q, n=n).algebra,
            "the direct euler_novikov matches the gated recipe",
        )
    jobs = []
    for n in DOC_SIZES:
        algebra = euler_novikov_direct(n)
        text = docio.serialize_document(algebra)
        jobs.append(_call(f"parse_document euler_novikov(n={n})", docio, "parse_document", text))
        jobs.append(_call(f"serialize_document euler_novikov(n={n})", docio, "serialize_document", algebra))
        jobs.append(_call(f"document_digest euler_novikov(n={n})", docio, "document_digest", text))
    inputs = {
        "euler6.json": catalog.build_entry("euler_novikov", q, n=6),
        "poly4.json": catalog.build_entry("truncated_polynomial", q, n=4),
    }
    for name, entry in inputs.items():
        text = docio.serialize_document(entry.algebra, maps=entry.maps, forms=entry.forms)
        (workdir / name).write_text(text, encoding="utf-8")
    malformed = docio.serialize_document(inputs["euler6.json"].algebra).replace(
        "[0, 1, 1, 1]", "[0, 1, 6, 1]", 1
    )
    _expect(malformed.count("[0, 1, 6, 1]") == 1, "the malformed document has a bad triple")
    (workdir / "malformed.json").write_text(malformed, encoding="utf-8")
    for argv in CLI_JOBS:
        jobs.append(Job("colorhom " + " ".join(argv), argv=argv))
    return jobs


WORKLOADS = {
    "sparse_novikov_q": sparse_novikov_q,
    "graded_dense_f7": graded_dense_f7,
    "documents_cli": documents_cli,
}
