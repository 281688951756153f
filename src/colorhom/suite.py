"""The suite verb: a manifest's theorem rows, each run on its document.

Only `colorhom suite` loads this module, and only a recipe row the catalog.
A run parses each document it names (a row's algebra or a with-document)
once; nothing is kept between runs, so a file rewritten between two runs in
one process is read again.
"""

import json
from functools import cache
from pathlib import Path

from .cli import _check, _construct, _load_document, _witness_json
from .errors import HypothesisError, StructureError
from .io import ParsedDocument

__all__ = ["cmd_suite"]


def _checkspecs(row: dict, stage: str):
    """A row's hypothesis or conclusion checks, each read as a dict naming its check when reached."""
    specs = row.get(stage, [])
    if not isinstance(specs, list):
        raise StructureError(f"{stage} must be a list, got {specs!r}")
    for spec in specs:
        spec = {"check": spec} if isinstance(spec, str) else spec
        if not isinstance(spec, dict) or "check" not in spec:
            raise StructureError(f"bad check spec {spec!r}")
        yield dict(spec)


def _row_arguments(spec: dict) -> dict:
    """A suite row's check or construction spec in the binder's terms."""
    raw = dict(spec)
    raw["maps"] = [raw.pop("map")] if "map" in raw else []
    return raw


def _row_document(row, documents) -> ParsedDocument:
    """A row's algebra: a document path, read by documents, or a catalog recipe."""
    src = row.get("algebra")
    if isinstance(src, str):
        return documents(Path(src))
    if isinstance(src, dict) and "recipe" in src:
        from .catalog import _parse_field_label, build_entry
        field = _parse_field_label(src.get("field", "Q"))
        params = src.get("params", {})
        if not isinstance(params, dict):
            raise StructureError(f"recipe params must be an object, got {params!r}")
        entry = build_entry(src["recipe"], field, **params)
        return ParsedDocument(entry.algebra, entry.maps, entry.forms)
    raise StructureError(f"row needs an algebra path or recipe, got {src!r}")


def _run_suite_row(row, documents, unchecked: bool):
    """Returns a result dict; raises StructureError for ill-formed rows.  documents reads a document by its Path."""
    if not isinstance(row, dict):
        raise StructureError(f"a row must be an object, got {row!r}")
    name = row.get("name", "<unnamed>")
    doc = _row_document(row, documents)
    result = {"name": name, "passes": True}

    def fail(stage, check_name, witness, field, detail=""):
        result.update(passes=False, stage=stage, check=check_name, witness=_witness_json(field, witness))
        if detail:
            result["detail"] = detail
        return result

    for spec in _checkspecs(row, "hypothesis_checks"):
        v = _check(doc, spec["check"], _row_arguments(spec))
        if not v:
            return fail("hypothesis", spec["check"], v.witness, doc.algebra.field)
    if "construction" in row:
        spec = row["construction"]
        if not isinstance(spec, dict):
            raise StructureError(f"construction must be an object, got {spec!r}")
        try:
            out, forms_out = _construct(doc, spec.get("name"), _row_arguments(spec), not unchecked, documents)
        except HypothesisError as exc:
            return fail("construct", exc.requirement, getattr(exc.verdict, "witness", None), doc.algebra.field, exc.detail)
        # the result keeps no maps; its own output forms shadow the input's
        doc = ParsedDocument(out, {}, {**doc.forms, **forms_out})
    for spec in _checkspecs(row, "conclusion_checks"):
        v = _check(doc, spec["check"], _row_arguments(spec))
        if not v:
            return fail("conclusion", spec["check"], v.witness, doc.algebra.field)
    return result


def builtin_suite_path(name: str) -> Path:
    p = Path(__file__).with_name("suites") / f"{name}.json"
    if not p.is_file():
        raise StructureError(f"no builtin suite {name!r}")
    return p


def cmd_suite(args) -> int:
    """Run every row of the manifest, a path or builtin:<name>; exit 1 if a row fails."""
    manifest_arg = args.manifest
    if manifest_arg.startswith("builtin:"):
        manifest_path = builtin_suite_path(manifest_arg.split(":", 1)[1])
    else:
        manifest_path = Path(manifest_arg)
        if not manifest_path.is_file():
            raise StructureError(f"no such manifest: {manifest_arg}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    # bad JSON or UTF-8, an integer literal past int's digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise StructureError(f"manifest syntax: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("rows"), list):
        raise StructureError("manifest must be an object with a rows list")
    # a document parsed once per run, by its Path under the manifest's directory, and shared by the rows naming it
    documents = cache(lambda path: _load_document(manifest_path.parent / path))
    results = [_run_suite_row(row, documents, args.unchecked) for row in manifest["rows"]]
    ok = all(r["passes"] for r in results)
    if args.format == "machine":
        print(json.dumps({"command": "suite", "manifest": str(manifest_arg), "rows": results, "passes": ok}, indent=2))
    else:
        for r in results:
            if r["passes"]:
                print(f"row '{r['name']}': PASS")
            else:
                print(f"row '{r['name']}': FAIL at {r['stage']} ({r['check']})")
                if r.get("witness"):
                    w = r["witness"]
                    print(f"  identity: {w['identity']}")
                    print(f"  indices:  {w['indices']}")
                    if w["left"] is not None:
                        print(f"  left:     {w['left']}")
                        print(f"  right:    {w['right']}")
        print(f"suite: {'PASS' if ok else 'FAIL'} ({len(results)} rows)")
    return 0 if ok else 1
