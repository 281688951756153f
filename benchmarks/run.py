"""colorhom benchmark: seeded closed-loop workloads with end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload sparse_novikov_q --seed 1 --seconds 15 --trace 0

Run from anywhere; the program under test is the colorhom package in the
src/ directory next to this one.  One client runs jobs in a closed loop
(the next job starts when the previous one returns; no threads, at most one
child process).  The seed shuffles the workload's fixed job pool into
rounds; every round runs each pool item once, and the run stops at the first
round boundary after --seconds once enough jobs ran to put at least ten
samples beyond p90.  Every job's outcome is compared with the recorded one.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one seeded round
untraced, with spans, with scalar counters and (documents_cli) its CLI jobs
as child processes, and prints the per-layer metrics.  Human-readable report
lines come first; the last line of standard output is one JSON object.  The
exit status is 0 when every outcome matched, 1 when one did not, 2 on a usage
or set-up error.  Run state goes to .perfbench/ at the repository root.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_REPS = 3
# p90 of N samples leaves about N/10 beyond it; 100 leaves ten
MIN_JOBS = 100
# every pool item at least three times, so each tail item has three samples
MIN_ROUNDS = 3
# stop starting rounds after this long, to end well inside three minutes
HARD_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

IDENTITIES = (
    "epsilon-commutativity", "hom-associativity", "right-commutativity", "left-symmetry",
    "skew-symmetry", "hom-jacobi", "cyclic-right-products", "cyclic-left-products",
)
CLI_VERBS = ("check", "construct", "suite", "catalog")

PER_LAYER = (
    ("scalars.zero_tests", "count"),
    ("scalars.mul_add", "count"),
    ("scalars.fp_new", "count"),
    ("core.eval_product.calls", "count"),
    ("core.eval_product.self_s", "s"),
    ("core.eval_map.calls", "count"),
    ("core.eval_map.self_s", "s"),
    ("core.make_algebra.calls", "count"),
    ("core.make_algebra.self_s", "s"),
    ("core.compose_maps.calls", "count"),
    ("grading.bicharacter_eval.calls", "count"),
    ("grading.bicharacter_eval.self_s", "s"),
    *((f"checks.scan.{name}.self_s", "s") for name in IDENTITIES),
    ("checks.scan.tuples", "count"),
    ("checks.scan.products", "count"),
    ("checks.products_per_tuple", "ratio"),
    ("checks.predicate.calls", "count"),
    ("checks.predicate.self_s", "s"),
    ("constructions.calls", "count"),
    ("constructions.gate_s", "s"),
    ("constructions.build_s", "s"),
    ("quadratic.calls", "count"),
    ("quadratic.self_s", "s"),
    ("catalog.search_maps.candidates", "count"),
    ("catalog.search_maps.hits", "count"),
    ("catalog.search_maps.hit_ratio", "ratio"),
    ("catalog.search_maps.self_s", "s"),
    ("io.parse.self_s", "s"),
    ("io.parse.bytes", "B"),
    ("io.parse.mb_per_s", "MB/s"),
    ("io.serialize.self_s", "s"),
    ("io.serialize.bytes", "B"),
    ("io.serialize.mb_per_s", "MB/s"),
    ("io.digest.self_s", "s"),
    *((f"cli.{verb}.s", "s") for verb in CLI_VERBS),
    ("cli.process_overhead_s", "s"),
    ("cli.exit_mismatch", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.jobs", "count"),
)

# (metric, its base metrics) printed side by side in the traced report
RATIO_BASES = {
    "checks.products_per_tuple": ("checks.scan.products", "checks.scan.tuples"),
    "catalog.search_maps.hit_ratio": ("catalog.search_maps.hits", "catalog.search_maps.candidates"),
    "io.parse.mb_per_s": ("io.parse.bytes", "io.parse.s"),
    "io.serialize.mb_per_s": ("io.serialize.bytes", "io.serialize.s"),
    "trace.overhead_s": ("trace.traced_wall_s", "trace.untraced_wall_s"),
}


# The host's speed drifts by about 10% over minutes as other tenants load it.
# Timed metrics are therefore reported at a reference speed: a wall time is
# multiplied by PROBE_REF_S over the time of a fixed stdlib-only computation
# (the probe) measured next to it.  PROBE_REF_S is about the probe's time on
# the machine the bounds were set on, so reference seconds are close to wall
# seconds there; the report prints the wall-clock values as well.
PROBE_REF_S = 1.5e-3
_PROBE_VALUES = [Fraction(i, 7) for i in range(1, 30)]


def probe_s() -> float:
    """Fastest of three runs of a fixed Fraction loop: the machine's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for x in _PROBE_VALUES:
            for y in _PROBE_VALUES[:12]:
                product = x * y
                if product != 0:
                    acc = acc + product
        best = min(best, time.perf_counter() - t0)
    return best


class UsageError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One benchmark process: set-up, job execution and outcome checks."""

    def __init__(self, workload: str, seed: int):
        if not (SRC / "colorhom" / "__init__.py").is_file():
            raise UsageError(f"no colorhom package under {SRC}")
        sys.path.insert(0, str(SRC))
        import colorhom
        import colorhom.cli
        import outcomes
        import tracing
        import workloads

        if Path(colorhom.__file__).resolve().parent != (SRC / "colorhom").resolve():
            raise UsageError(f"imported colorhom from {colorhom.__file__}, not {SRC}")
        self.import_s = time.perf_counter() - T_START
        if workload not in workloads.WORKLOADS:
            raise UsageError(f"unknown workload {workload!r}; known: {sorted(workloads.WORKLOADS)}")
        self.cli = colorhom.cli
        self.errors = (colorhom.HypothesisError, colorhom.StructureError)
        self.outcomes, self.tracing = outcomes, tracing
        self.generate = workloads.WORKLOADS[workload]
        self.workload, self.seed = workload, seed
        self.recorded = outcomes.load_recorded(workload)
        self.workdir = STATE / f"work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ))
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    # -- jobs ---------------------------------------------------------------

    def execute(self, job, inprocess_cli=False, tracer=None, job_id=None):
        """Run one job; returns (latency s, result).  Only the public call is timed."""
        if job.argv:
            out = self._out_path(job)
            if out is not None:
                out.unlink(missing_ok=True)
            if inprocess_cli:
                latency, code, stdout, stderr = self._cli_inprocess(job.argv, tracer, job_id)
            else:
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "colorhom", *job.argv], cwd=self.workdir,
                    env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S,
                )
                latency = time.perf_counter() - t0
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            body = out.read_bytes() if out is not None and out.exists() else None
            return latency, self.outcomes.CliResult(code, stdout, stderr, body)

        def call():
            try:
                return getattr(job.module, job.func)(*job.args, **job.kwargs)
            except self.errors as exc:
                return exc

        t0 = time.perf_counter()
        result = call() if tracer is None else tracer.run_job(job_id, call)
        return time.perf_counter() - t0, result

    def _out_path(self, job):
        if "--out" in job.argv:
            return self.workdir / job.argv[job.argv.index("--out") + 1]
        return None

    def _cli_inprocess(self, argv, tracer, job_id):
        stdout, stderr = io.StringIO(), io.StringIO()
        cli = self.cli

        def call():
            main = cli.main
            if tracer is None:
                return main(list(argv))
            return tracer.call(f"cli.{argv[0]}", main, (list(argv),), {})

        with contextlib.chdir(self.workdir), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            code = call() if tracer is None else tracer.run_job(job_id, call)
            latency = time.perf_counter() - t0
        return latency, code, stdout.getvalue().encode("utf-8"), stderr.getvalue().encode("utf-8")

    def verify(self, job, result) -> bool:
        """Compare with the recorded outcome; counts the job as attempted."""
        self.attempted += 1
        expected = self.recorded.get(job.key)
        try:
            ok = expected is not None and self.outcomes.matches(job, result, expected)
        except Exception as exc:  # a result the summaries cannot read is a mismatch
            ok = False
            result = exc
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{job.key}: got {result!r:.200}")
        return ok

    def run_checked(self, job, **kw):
        """execute + verify; an unexpected exception is a failed job."""
        try:
            latency, result = self.execute(job, **kw)
        except Exception as exc:  # the job raised something no outcome allows
            self.attempted += 1
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{job.key}: raised {exc!r:.200}")
            return None, None
        self.verify(job, result)
        return latency, result

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """Generate inputs and warm up SETUP_REPS times.

        setup_s is the import time plus the median repetition, each rescaled
        to reference speed by the probes taken around it.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        before = probe_s()
        import_ref_s = self.import_s * PROBE_REF_S / before
        reps, reps_ref = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            jobs = self.generate(self.workdir)
            seen = set()
            for job in jobs:  # warm up: the first pool item of every job family
                if job.kind not in seen:
                    seen.add(job.kind)
                    self.run_checked(job)
            reps.append(time.perf_counter() - t0)
            after = probe_s()
            reps_ref.append(reps[-1] * 2 * PROBE_REF_S / (before + after))
            before = after
        self.jobs = jobs
        self.setup_reps = reps
        self.setup_wall_s = self.import_s + statistics.median(reps)
        self.setup_s = import_ref_s + statistics.median(reps_ref)
        self.rng = random.Random(self.seed)

    def round_order(self):
        order = list(range(len(self.jobs)))
        self.rng.shuffle(order)
        return order

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- runs ---------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Whole seeded rounds until MIN_ROUNDS rounds, MIN_JOBS jobs and --seconds are done.

        A probe runs before the first job and after every job; each latency
        is also rescaled to reference speed by the mean of the probes on
        either side of it.
        """
        wall, scaled = [], []
        rounds = 0
        start = time.perf_counter()
        before = probe_s()
        while True:
            for idx in self.round_order():
                latency, _ = self.run_checked(self.jobs[idx])
                after = probe_s()
                if latency is not None:
                    wall.append(latency)
                    scaled.append(latency * 2 * PROBE_REF_S / (before + after))
                before = after
            rounds += 1
            now = time.perf_counter()
            done = rounds >= MIN_ROUNDS and len(wall) >= MIN_JOBS and now - start >= seconds
            if done or now - T_START >= HARD_LIMIT_S:
                break
        return {
            "latencies": scaled, "wall_latencies": wall,
            "rounds": rounds, "loop_wall_s": time.perf_counter() - start,
        }

    def trace_round(self) -> dict:
        """One seeded round four times: untraced, with spans, with scalar counters,
        and (CLI jobs only) as child processes.  CLI jobs run in-process in the
        first three passes."""
        order = self.round_order()
        untraced = {}
        for idx in order:
            untraced[idx], _ = self.run_checked(self.jobs[idx], inprocess_cli=True)
        cli_results = []
        tracer, counter = self.tracing.Tracer(), self.tracing.ScalarCounter()
        traced = {}
        for instrument in (tracer, counter):
            instrument.install()
            try:
                for job_id, idx in enumerate(order):
                    job = self.jobs[idx]
                    latency, result = self.run_checked(
                        job, inprocess_cli=True, tracer=instrument, job_id=job_id
                    )
                    if instrument is tracer:
                        traced[idx] = latency
                    if job.argv:
                        cli_results.append((job, result))
            finally:
                instrument.uninstall()
        overheads = []
        for idx in order:
            job = self.jobs[idx]
            if job.argv:
                latency, result = self.run_checked(job)
                cli_results.append((job, result))
                if latency is not None and untraced[idx] is not None:
                    overheads.append(latency - untraced[idx])
        exit_mismatch = sum(
            1 for job, result in cli_results
            if result is None or result.exit != self.recorded.get(job.key, {}).get("exit")
        )
        return {
            "tracer": tracer,
            "counts": tracer.counts + counter.counts,
            "untraced_wall_s": sum(v for v in untraced.values() if v is not None),
            "traced_wall_s": sum(v for v in traced.values() if v is not None),
            "process_overhead_s": statistics.median(overheads) if overheads else 0.0,
            "cli_samples": len(overheads),
            "exit_mismatch": exit_mismatch,
            "jobs": len(order),
        }


# ---------------------------------------------------------------------------
# metrics and report

def end_to_end_metrics(bench: Bench, run: dict) -> dict:
    lat, wall = run["latencies"], run["wall_latencies"]
    p90 = statistics.quantiles(lat, n=10)[-1]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": bench.setup_s,
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_p90_s": p90,
        # largest peak of this process or any child (Linux reports KiB)
        "peak_rss_mb": max(self_rss, child_rss) / 1024,
    }, {
        "jobs": len(lat),
        "rounds": run["rounds"],
        "pool_size": len(bench.jobs),
        "p50_samples": len(lat),
        "p90_samples": len(lat),
        "p90_tail_samples": sum(1 for x in lat if x > p90),
        "wall.setup_s": bench.setup_wall_s,
        "wall.jobs_per_s": len(wall) / sum(wall),
        "wall.job_p50_s": statistics.median(wall),
        "wall.job_p90_s": statistics.quantiles(wall, n=10)[-1],
        "wall.speed_factor": sum(wall) / sum(lat),
        "loop_wall_s": run["loop_wall_s"],
        "setup_reps_s": bench.setup_reps,
        "import_s": bench.import_s,
    }


def per_layer_metrics(trace: dict) -> dict:
    t = trace["tracer"]
    stat = lambda name, i: t.stats.get(name, (0, 0.0, 0.0))[i]  # noqa: E731
    c = trace["counts"]
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    parse_s, serialize_s = stat("io.parse", 1), stat("io.serialize", 1)
    m = {
        "scalars.zero_tests": c["scalars.zero_tests"],
        "scalars.mul_add": c["scalars.mul_add"],
        "scalars.fp_new": c["scalars.fp_new"],
    }
    for fn in ("eval_product", "eval_map", "make_algebra"):
        m[f"core.{fn}.calls"] = stat(f"core.{fn}", 0)
        m[f"core.{fn}.self_s"] = stat(f"core.{fn}", 2)
    m["core.compose_maps.calls"] = stat("core.compose_maps", 0)
    m["grading.bicharacter_eval.calls"] = stat("grading.bicharacter_eval", 0)
    m["grading.bicharacter_eval.self_s"] = stat("grading.bicharacter_eval", 2)
    for name in IDENTITIES:
        m[f"checks.scan.{name}.self_s"] = stat(f"checks.scan.{name}", 2)
    m["checks.scan.tuples"] = c["checks.scan.tuples"]
    m["checks.scan.products"] = c["checks.scan.products"]
    m["checks.products_per_tuple"] = ratio(c["checks.scan.products"], c["checks.scan.tuples"])
    m["checks.predicate.calls"] = t.total("checks.predicate", 0)
    m["checks.predicate.self_s"] = t.total("checks.predicate", 2)
    m["constructions.calls"] = t.total("constructions", 0)
    m["constructions.gate_s"] = t.gate_s
    m["constructions.build_s"] = t.total("constructions", 2)
    m["quadratic.calls"] = t.total("quadratic", 0)
    m["quadratic.self_s"] = t.total("quadratic", 2)
    m["catalog.search_maps.candidates"] = c["catalog.search_maps.candidates"]
    m["catalog.search_maps.hits"] = c["catalog.search_maps.hits"]
    m["catalog.search_maps.hit_ratio"] = ratio(
        c["catalog.search_maps.hits"], c["catalog.search_maps.candidates"]
    )
    m["catalog.search_maps.self_s"] = stat("catalog.search_maps", 2)
    m["io.parse.self_s"] = stat("io.parse", 2)
    m["io.parse.bytes"] = c["io.parse.bytes"]
    m["io.parse.mb_per_s"] = ratio(c["io.parse.bytes"] / 1e6, parse_s)
    m["io.serialize.self_s"] = stat("io.serialize", 2)
    m["io.serialize.bytes"] = c["io.serialize.bytes"]
    m["io.serialize.mb_per_s"] = ratio(c["io.serialize.bytes"] / 1e6, serialize_s)
    m["io.digest.self_s"] = stat("io.digest", 2)
    for verb in CLI_VERBS:
        m[f"cli.{verb}.s"] = stat(f"cli.{verb}", 1)
    m["cli.process_overhead_s"] = trace["process_overhead_s"]
    m["cli.exit_mismatch"] = trace["exit_mismatch"]
    m["trace.untraced_wall_s"] = trace["untraced_wall_s"]
    m["trace.traced_wall_s"] = trace["traced_wall_s"]
    m["trace.overhead_s"] = trace["traced_wall_s"] - trace["untraced_wall_s"]
    m["trace.jobs"] = trace["jobs"]
    # bases that are not metrics of their own
    bases = {"io.parse.s": parse_s, "io.serialize.s": serialize_s}
    return m, bases


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "colorhom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def report_line(name, value, unit="", note=""):
    text = f"{name:42s} {value!s:>24} {unit}"
    print(text + (f"  [{note}]" if note else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench = Bench(args.workload, args.seed)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        bench.setup()
        if args.trace:
            trace = bench.trace_round()
        else:
            run = bench.measure(args.seconds)
    finally:
        bench.close()

    env = environment(args)
    for key, value in env.items():
        report_line(key, value)
    if args.trace:
        metrics, bases = per_layer_metrics(trace)
        units = dict(PER_LAYER)
        lookup = {**metrics, **bases}
        for name, unit in PER_LAYER:
            note = ""
            if name in RATIO_BASES:
                note = ", ".join(f"{b}={lookup[b]}" for b in RATIO_BASES[name])
            report_line(name, metrics[name], unit, note)
        report_line("trace.cli_samples", trace["cli_samples"], "count",
                    "child-process runs behind cli.process_overhead_s")
        for layer, seconds in trace["tracer"].self_time_by_layer().items():
            report_line(f"self_s.{layer}", seconds, "s")
        t = trace["tracer"]
        STATE.mkdir(exist_ok=True)
        out = STATE / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "environment": env,
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "job"), s)) for s in t.spans],
            "totals": {name: dict(zip(("calls", "total_s", "self_s"), s)) for name, s in sorted(t.stats.items())},
            "counts": dict(sorted(trace["counts"].items())),
            "self_s_by_layer": t.self_time_by_layer(),
            "metrics": metrics,
        }))
        report_line("trace.file", out.relative_to(ROOT))
        result_metrics = {name: {"value": metrics[name], "unit": units[name]} for name, _ in PER_LAYER}
    else:
        metrics, info = end_to_end_metrics(bench, run)
        for name, unit in END_TO_END:
            report_line(name, metrics[name], unit)
        report_line("failed_ratio", bench.failed / bench.attempted, "ratio",
                    f"failed={bench.failed}, attempted={bench.attempted}")
        for key, value in info.items():
            report_line(key, value)
        result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    for line in bench.mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
