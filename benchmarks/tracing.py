"""Per-layer tracing for the traced benchmark run.

Wrappers are installed only here, on module attributes of the colorhom
package.  Layers import each other by name, so one function is patched in
every module (and every module-level dict, such as catalog.CHECKS_BY_NAME)
that binds it: checks.eval_product as well as core.eval_product.

Each wrapped call is a span (name, start, end, parent, job).  Spans are kept
in memory and written out when the run ends.  Calls into the innermost
kernel functions (eval_product, eval_map, compose_maps, bicharacter_eval,
form_value) run millions of times, so they are aggregated into per-name
call counts and times instead of being stored one by one.  A span's self
time is its duration minus the time its child spans cover.

Scalar arithmetic is counted, not timed: in a separate pass, wrappers on
the Fraction and Fp methods count zero tests, multiplies/adds and Fp objects
created while a job runs.
"""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction

from colorhom import catalog, checks, cli, constructions, core, grading, quadratic, scalars
from colorhom import io as docio

_CHECK_COMPOSITES = (
    "check_epsilon_commutative", "check_hom_associative", "check_right_commutative",
    "check_left_symmetric", "check_hom_novikov", "check_hom_lie", "check_lie_admissible",
    "check_cyclic_commutator_products", "check_multiplicative", "check_regular",
    "check_involutive",
)
_PREDICATES = (
    "is_weak_morphism", "is_morphism", "is_derivation", "is_averaging", "is_centroid",
    "is_rota_baxter", "in_alpha_center", "commutes_with_twist",
    "check_bracket_operator_conditions",
)
_QUADRATIC = (
    "check_quadratic_structure", "is_symmetric_automorphism", "quadratic_yau_twist",
    "quadratic_commutator", "regular_quadratic_commutator", "quadratic_untwist_involutive",
)

# (module, attribute, span name); "checks.scan" is refined by identity name
TARGETS = (
    [(core, f, f"core.{f}") for f in ("eval_product", "eval_map", "compose_maps", "make_algebra")]
    + [(grading, "bicharacter_eval", "grading.bicharacter_eval")]
    + [(checks, "_scan", "checks.scan")]
    + [(checks, f, f"checks.check.{f}") for f in _CHECK_COMPOSITES]
    + [(checks, f, f"checks.predicate.{f}") for f in _PREDICATES]
    + [(constructions, f, f"constructions.{f}") for f in constructions.__all__]
    + [(quadratic, f, f"quadratic.{f}") for f in _QUADRATIC]
    + [(quadratic, "form_value", "quadratic.form_value")]
    + [(catalog, "search_maps", "catalog.search_maps"), (catalog, "build_entry", "catalog.build_entry")]
    + [
        (docio, "parse_document", "io.parse"),
        (docio, "serialize_document", "io.serialize"),
        (docio, "document_digest", "io.digest"),
    ]
)

# aggregated only: too many calls to keep one record each
LEAVES = frozenset({
    "core.eval_product", "core.eval_map", "core.compose_maps",
    "grading.bicharacter_eval", "quadratic.form_value",
})

MODULES = (core, grading, checks, constructions, quadratic, catalog, docio, cli)

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


class _Patches:
    """Attribute and dict-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def undo(self):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


class Tracer:
    """Span stack, span records, per-name totals and counters of one traced pass."""

    def __init__(self):
        self.active = False
        self.job = None
        self.stack = []  # open frames: [span id, name, start, child time]
        self.spans = []  # (id, name, start, end, parent id, job id)
        self.stats = {}  # name -> [calls, total s, self s]
        self.counts = Counter()  # exact integer counters
        self.gate_s = 0.0  # time in check spans opened directly by a construction
        self.scan_depth = 0
        self._next_id = 0
        self._patches = _Patches()

    # -- spans --------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span named name; a plain call when inactive."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self.stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[2]
            if parent is not None:
                parent[3] += duration
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[3]
            if name not in LEAVES:
                self.spans.append(
                    (span_id, name, frame[2], end, parent[0] if parent else None, self.job)
                )
            if parent is not None:
                self._at_child_end(name, parent[1], duration)
        return result

    def _at_child_end(self, name, parent_name, duration):
        if parent_name.startswith("constructions.") and name.startswith("checks."):
            self.gate_s += duration
        elif parent_name == "catalog.search_maps" and (
            name.startswith("checks.predicate.") or name == "quadratic.is_symmetric_automorphism"
        ):
            self.counts["catalog.search_maps.candidates"] += 1

    def run_job(self, job_id, fn):
        self.job = job_id
        self.active = True
        try:
            return self.call("job", fn, (), {})
        finally:
            self.active = False
            self.job = None

    # -- wrappers -----------------------------------------------------------

    def _wrapper(self, attr, name, original):
        call = self.call
        counts = self.counts
        if attr == "_scan":
            def wrapper(a, identity):
                self.scan_depth += 1
                try:
                    verdict = call(f"checks.scan.{identity}", original, (a, identity), {})
                finally:
                    self.scan_depth -= 1
                if self.active:
                    n, arity = a.dim, checks.IDENTITY_ARITY[identity]
                    if verdict.passes:
                        counts["checks.scan.tuples"] += n ** arity
                    else:
                        rank = 0
                        for i in verdict.witness.indices:
                            rank = rank * n + i
                        counts["checks.scan.tuples"] += rank + 1
                return verdict
        elif attr == "eval_product":
            def wrapper(*args, **kwargs):
                if self.active and self.scan_depth:
                    counts["checks.scan.products"] += 1
                return call(name, original, args, kwargs)
        elif name == "catalog.search_maps":
            def wrapper(*args, **kwargs):
                hits = call(name, original, args, kwargs)
                if self.active:
                    counts["catalog.search_maps.hits"] += len(hits)
                return hits
        elif name == "io.parse":
            def wrapper(text):
                doc = call(name, original, (text,), {})
                if self.active:
                    counts["io.parse.bytes"] += len(text.encode("utf-8"))
                return doc
        elif name == "io.serialize":
            def wrapper(*args, **kwargs):
                text = call(name, original, args, kwargs)
                if self.active:
                    counts["io.serialize.bytes"] += len(text.encode("utf-8"))
                return text
        else:
            def wrapper(*args, **kwargs):
                return call(name, original, args, kwargs)
        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        """Patch every binding of every target function."""
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrapper(attr, name, original)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.patch(mod, key, wrapper)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.patch(value, k, wrapper)

    def uninstall(self):
        self._patches.undo()

    # -- results ------------------------------------------------------------

    def self_time_by_layer(self) -> dict:
        out = Counter()
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return dict(sorted(out.items()))

    def total(self, prefix: str, index: int):
        """Sum of one stat column (0 calls, 1 total s, 2 self s) over names with a prefix."""
        return sum(s[index] for name, s in self.stats.items() if name == prefix or name.startswith(prefix + "."))


def _fraction_is_zero(b):
    return (type(b) is int and b == 0) or (type(b) is Fraction and b._numerator == 0)


def _fp_is_zero(b):
    return (type(b) is int and b == 0) or (type(b) is scalars.Fp and b.val == 0)


class ScalarCounter:
    """Counts scalar operations while a job runs, from wrappers on Fraction and Fp.

    It runs in a pass of its own, so its wrappers do not inflate the span
    timings of the traced pass.
    """

    def __init__(self):
        self.active = False
        self.counts = Counter()
        self._patches = _Patches()

    def run_job(self, job_id, fn):
        self.active = True
        try:
            return fn()
        finally:
            self.active = False

    def call(self, name, fn, args, kwargs):
        return fn(*args, **kwargs)

    def install(self):
        counts = self.counts
        for cls, is_zero in ((Fraction, _fraction_is_zero), (scalars.Fp, _fp_is_zero)):
            eq = vars(cls)["__eq__"]

            def counted_eq(a, b, eq=eq, is_zero=is_zero):
                if self.active and is_zero(b):
                    counts["scalars.zero_tests"] += 1
                return eq(a, b)

            self._patches.patch(cls, "__eq__", counted_eq)
            for attr in _ARITH:
                op = vars(cls)[attr]

                def counted_op(a, b, op=op):
                    if self.active:
                        counts["scalars.mul_add"] += 1
                    return op(a, b)

                self._patches.patch(cls, attr, counted_op)
        init = vars(scalars.Fp)["__init__"]

        def counted_init(obj, val, p):
            if self.active:
                counts["scalars.fp_new"] += 1
            init(obj, val, p)

        self._patches.patch(scalars.Fp, "__init__", counted_init)

    def uninstall(self):
        self._patches.undo()
