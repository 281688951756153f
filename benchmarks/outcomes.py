"""Outcome summaries and the correctness gate.

Every pool item has a recorded outcome from the commit that defined the
benchmark (recorded.json).  A summary keeps what the public contract fixes:
verdict, witness identity, indices and exact scalars, document bytes (as
SHA-256), and exit codes.  A job whose summary differs from the recorded one
is a failed job.

search_maps is the one exception: exact solving may legitimately return
more hits than sampling.  Its job passes when every returned map satisfies
its predicate, re-checked with the is_* function, and the recorded hits are
a subset of the returned ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from colorhom import checks, core
from colorhom import io as docio
from colorhom.errors import HypothesisError, StructureError
from colorhom.scalars import Fp

RECORDED = Path(__file__).resolve().parent / "recorded.json"

# rows of a parsed document's product tensor compared in full; the serialize
# jobs cover the rest of the bytes
_PARSE_SAMPLE_ROWS = (0, 1, 2, -2, -1)


@dataclass(frozen=True)
class CliResult:
    exit: int
    stdout: bytes
    stderr: bytes
    out: bytes | None


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _scalar(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Fp):
        return f"{v.val} mod {v.p}"
    if isinstance(v, int):
        return v
    raise TypeError(f"not a scalar: {v!r}")


def _vector(v):
    return None if v is None else [_scalar(x) for x in v]


def _witness(w):
    if w is None:
        return None
    return {
        "identity": w.identity,
        "indices": list(w.indices),
        "left": _vector(w.left),
        "right": _vector(w.right),
    }


def _matrix(m: core.GradedLinearMap):
    return [[_scalar(v) for v in row] for row in m.matrix]


def _parsed_fingerprint(doc: docio.ParsedDocument) -> dict:
    a = doc.algebra
    n = a.dim
    rows = sorted({r % n for r in _PARSE_SAMPLE_ROWS})
    triples = [
        [i, j, k, _scalar(v)]
        for i in rows
        for j in range(n)
        for k, v in enumerate(a.structure[i][j])
        if v != 0
    ]
    return {
        "parsed": {
            "field": str(a.field),
            "dim": n,
            "degrees": [list(d.coords) for d in a.degrees],
            "bicharacter": [[_scalar(v) for v in row] for row in a.bicharacter.gen_table],
            "alpha": _sha(json.dumps(_matrix(a.alpha))),
            "rows": rows,
            "triples": _sha(json.dumps(triples)),
            "maps": {name: _sha(json.dumps(_matrix(m))) for name, m in sorted(doc.maps.items())},
            "forms": sorted(doc.forms),
        }
    }


def summarize(result) -> dict:
    """JSON-ready summary of a job's outcome."""
    if isinstance(result, checks.Verdict):
        return {"passes": result.passes, "witness": _witness(result.witness)}
    if isinstance(result, core.ColorHomAlgebra):
        return {"algebra_sha256": _sha(docio.serialize_document(result))}
    if isinstance(result, HypothesisError):
        return {
            "hypothesis_failed": [result.op, result.requirement],
            "witness": _witness(getattr(result.verdict, "witness", None)),
            "detail": result.detail,
        }
    if isinstance(result, StructureError):
        return {"structure_error": str(result)}
    if isinstance(result, str):
        return {"text_sha256": _sha(result), "bytes": len(result.encode("utf-8"))}
    if isinstance(result, docio.ParsedDocument):
        return _parsed_fingerprint(result)
    if isinstance(result, CliResult):
        return {
            "exit": result.exit,
            "stdout_sha256": _sha(result.stdout),
            "stderr_sha256": _sha(result.stderr),
            "out_sha256": None if result.out is None else _sha(result.out),
        }
    if isinstance(result, list):
        return {"hits": [_matrix(m) for m in result]}
    raise TypeError(f"no summary for {type(result).__name__}")


def _search_hit_holds(job, m) -> bool:
    a, predicate = job.args
    if predicate == "derivation":
        return bool(checks.is_derivation(a, m))
    if predicate == "weak_morphism":
        return bool(checks.is_weak_morphism(a, a, m))
    if predicate == "centroid":
        return bool(checks.is_centroid(a, m, "both"))
    raise ValueError(f"no re-check for search predicate {predicate!r}")


def matches(job, result, recorded: dict) -> bool:
    """Compare one job's result with its recorded outcome."""
    if job.func == "search_maps":
        if not isinstance(result, list):
            return False
        returned = summarize(result)["hits"]
        return all(_search_hit_holds(job, m) for m in result) and all(
            hit in returned for hit in recorded["hits"]
        )
    return summarize(result) == recorded


def load_recorded(workload: str) -> dict:
    """The workload's recorded outcomes; empty (so every job fails) when none exist."""
    if not RECORDED.is_file():
        return {}
    return json.loads(RECORDED.read_text(encoding="utf-8")).get(workload, {})
