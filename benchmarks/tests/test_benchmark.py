"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest benchmarks/tests

The workload runs take a few minutes: each workload runs once untraced and
twice traced.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import outcomes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(workload, seed):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return _result(proc)


def test_names_match_the_pattern_and_the_harness():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_every_pool_item_has_a_recorded_outcome():
    recorded = json.loads(outcomes.RECORDED.read_text())
    for name, generate in workloads.WORKLOADS.items():
        run.STATE.mkdir(exist_ok=True)
        workdir = run.STATE / f"test-{name}"
        workdir.mkdir(exist_ok=True)
        try:
            keys = [job.key for job in generate(workdir)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert len(keys) == len(set(keys))
        assert sorted(keys) == sorted(recorded[name])


def test_a_changed_outcome_is_a_failed_job():
    from colorhom import checks, core
    from colorhom.catalog import search_maps, truncated_polynomial

    a = truncated_polynomial(2)
    job = workloads.Job("hom_associative", checks, "check_hom_associative", (a,))
    verdict = checks.check_hom_associative(a)
    assert outcomes.matches(job, verdict, outcomes.summarize(verdict))
    assert not outcomes.matches(job, checks.Verdict(False), outcomes.summarize(verdict))

    search = workloads.Job("search", None, "search_maps", (a, "derivation"))
    hits = search_maps(a, "derivation")  # d(1) = 0, d(t) = c t: four hits
    assert len(hits) == 4
    recorded = outcomes.summarize(hits)
    assert outcomes.matches(search, hits, recorded)
    # more hits than recorded pass; fewer do not
    assert outcomes.matches(search, hits, {"hits": recorded["hits"][:1]})
    assert not outcomes.matches(search, hits[1:], recorded)
    # a returned map that fails its predicate is wrong even if nothing was recorded
    identity = core.identity_map(a.basis)
    assert not outcomes.matches(search, hits + [identity], recorded)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_with_ten_samples_beyond_p90(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = dict(line.split(None, 1) for line in proc.stdout.splitlines()[:-1])
    assert float(report["failed_ratio"].split()[0]) == 0.0
    assert int(report["p90_tail_samples"]) >= 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = [
        name for name, unit in run.PER_LAYER
        if unit in ("count", "B") or name in ("checks.products_per_tuple", "catalog.search_maps.hit_ratio")
    ]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["checks.scan.tuples"]["value"] > 0 or workload == "documents_cli"
    assert first["metrics"]["cli.exit_mismatch"]["value"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / BENCH.name / "run.py",
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
