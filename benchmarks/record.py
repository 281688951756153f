"""Record the outcome of every pool item into recorded.json.

    python3 benchmarks/record.py

Run this only on a commit whose outputs are known good: the benchmark
counts every later difference from these outcomes as a failed job.  CLI jobs
are recorded as child processes; the traced run checks that the in-process
path gives the same bytes.
"""

import json
import sys

import run


def main() -> int:
    recorded = {}
    for workload in ("sparse_novikov_q", "graded_dense_f7", "documents_cli"):
        bench = run.Bench(workload, seed=0)
        bench.workdir.mkdir(parents=True, exist_ok=True)
        try:
            entries = {}
            for job in bench.generate(bench.workdir):
                if job.key in entries:
                    raise SystemExit(f"duplicate pool key {job.key!r}")
                _, result = bench.execute(job)
                entries[job.key] = bench.outcomes.summarize(result)
        finally:
            bench.close()
        recorded[workload] = entries
        print(f"{workload}: {len(entries)} pool items", file=sys.stderr)
    bench.outcomes.RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
