"""File-based command line: check, construct, suite, catalog.

Exit status discipline: 0 = everything passed; 1 = a mathematical failure
(a check failed or a construction hypothesis was violated; the report
carries the witness); 2 = usage or structural error (bad file, unknown
name, ill-formed document).  The two failure kinds are never conflated.

A child process imports what its verb runs: the document format and the
table of named operations always, a check's or construction's module when
the verb binds it, and the catalog only for suite recipe rows and the
catalog verb.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import HypothesisError, StructureError
from .io import ParsedDocument, document_digest, parse_document, serialize_document
from .operations import CHECK, CONSTRUCTION, OPERATIONS, OPTIONAL_ARGUMENTS
from .scalars import ScalarField, prime_field, rationals

__all__ = ["main"]


def _parse_field_label(label) -> ScalarField:
    if label in ("Q", "rationals"):
        return rationals()
    digits = label[1:] if isinstance(label, str) and label.startswith("F") else ""
    # ten digits already pass the modulus cap; int() raises on a string past 4300 digits
    if digits.isascii() and digits.isdigit() and len(digits) <= 10:
        return prime_field(int(digits))
    raise StructureError(f"unknown field label {label!r} (use Q or F<p>)")


def _load_document(path: str) -> ParsedDocument:
    p = Path(path)
    if not p.is_file():
        raise StructureError(f"no such file: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_document(text)


def _witness_json(field: ScalarField, w):
    if w is None:
        return None
    return {
        "identity": w.identity,
        "indices": list(w.indices),
        "left": None if w.left is None else [field.to_json(v) for v in w.left],
        "right": None if w.right is None else [field.to_json(v) for v in w.right],
    }


def _print_witness_text(field: ScalarField, w, out):
    print(f"  identity: {w.identity}", file=out)
    print(f"  indices:  {list(w.indices)}", file=out)
    if w.left is not None:
        print(f"  left:     {[field.format(v) for v in w.left]}", file=out)
        print(f"  right:    {[field.format(v) for v in w.right]}", file=out)


# ---------------------------------------------------------------------------
# binding named operations to a document

def _named_map(doc: ParsedDocument, name: str):
    if name == "alpha":
        return doc.algebra.alpha
    if not isinstance(name, str) or name not in doc.maps:
        raise StructureError(f"document defines no map {name!r}")
    return doc.maps[name]


def _bind(kind: str, name: str, doc: ParsedDocument, raw: dict, base_dir: Path = Path()):
    """Look up a named operation and turn raw arguments into its call arguments.

    raw holds "maps", a list of map names, plus any of "form", "with", "n",
    "xi" (a list of scalar literals), "weight" and "side", as parsed from
    the command line or spelled in a suite row.  The number of map names
    must match the operation; other arguments it does not take are ignored.
    Scalars are decoded by the field's parser, and with-paths resolve
    against base_dir.
    """
    op = OPERATIONS.get(name) if isinstance(name, str) else None
    if op is None or op.kind != kind:
        raise StructureError(f"unknown {kind} {name!r}")
    names = list(raw.get("maps", ()))
    if len(names) != op.takes.count("map"):
        raise StructureError(
            f"{kind} {name!r} takes {op.takes.count('map')} map name(s), got {len(names)}"
        )
    field = doc.algebra.field
    args = []
    for arg in op.takes:
        if arg == "map":
            args.append(_named_map(doc, names.pop(0)))
            continue
        if arg not in raw and arg not in OPTIONAL_ARGUMENTS:
            raise StructureError(f"{kind} {name!r} needs {arg}")
        value = raw.get(arg, OPTIONAL_ARGUMENTS.get(arg))
        if arg == "form":
            if not isinstance(value, str) or value not in doc.forms:
                raise StructureError(f"document defines no form {value!r}")
            value = doc.forms[value]
        elif arg == "with":
            if not isinstance(value, str):
                raise StructureError(f"with must be a document path, got {value!r}")
            value = _load_document(str(base_dir / value)).algebra
        elif arg == "xi":
            if not isinstance(value, list):
                raise StructureError(f"xi must be a list of scalars, got {value!r}")
            value = tuple(field.parse(v) for v in value)
        elif arg == "weight":
            value = field.parse(value)
        elif arg == "n" and type(value) is not int:
            raise StructureError(f"n must be an integer, got {value!r}")
        args.append(value)
    return op, args


def _check(doc: ParsedDocument, name: str, raw: dict):
    """The named check's Verdict on the document."""
    op, args = _bind(CHECK, name, doc, raw)
    return op.call(doc.algebra, *args)


def _construct(doc: ParsedDocument, name: str, raw: dict, checked: bool, base_dir: Path = Path()):
    """Returns (algebra, output forms by name)."""
    op, args = _bind(CONSTRUCTION, name, doc, raw, base_dir)
    out = op.call(doc.algebra, *args, checked)
    if "form" in op.takes:
        out, form = out
        return out, {raw["form"]: form}
    return out, {}


def _cli_arguments(args) -> dict:
    """The options given on the command line, in the binder's terms."""
    raw = {key: value for key, value in vars(args).items() if value is not None}
    if "xi" in raw:
        raw["xi"] = raw["xi"].split(",")
    return raw


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    doc = _load_document(args.algebra)
    verdict = _check(doc, args.check, _cli_arguments(args))
    field = doc.algebra.field
    if args.format == "machine":
        print(json.dumps({
            "command": "check",
            "algebra": args.algebra,
            "check": args.check,
            "passes": verdict.passes,
            "witness": _witness_json(field, verdict.witness),
        }, indent=2))
    else:
        status = "PASS" if verdict.passes else "FAIL"
        print(f"check {args.check} on {args.algebra}: {status}")
        if verdict.witness is not None:
            _print_witness_text(field, verdict.witness, sys.stdout)
    return 0 if verdict.passes else 1


# ---------------------------------------------------------------------------
# construct

def cmd_construct(args) -> int:
    doc = _load_document(args.algebra)
    field = doc.algebra.field
    try:
        out, forms_out = _construct(doc, args.op, _cli_arguments(args), not args.unchecked)
    except HypothesisError as exc:
        if args.format == "machine":
            print(json.dumps({
                "command": "construct",
                "op": args.op,
                "passes": False,
                "failed_hypothesis": exc.requirement,
                "witness": _witness_json(
                    field, getattr(exc.verdict, "witness", None)
                ),
                "detail": exc.detail,
            }, indent=2))
        else:
            print(f"construct {args.op} on {args.algebra}: HYPOTHESIS FAILED")
            print(f"  requirement: {exc.requirement}")
            if exc.detail:
                print(f"  detail: {exc.detail}")
            w = getattr(exc.verdict, "witness", None)
            if w is not None:
                _print_witness_text(field, w, sys.stdout)
        return 1
    arguments = {}
    if args.maps:
        arguments["maps"] = list(args.maps)
    for key in ("n", "xi", "form", "with"):
        v = vars(args)[key]
        if v is not None:
            arguments[key] = v
    inputs = [args.algebra]
    if "with" in OPERATIONS[args.op].takes:
        inputs.append(vars(args)["with"])
    provenance = {
        "construction": args.op,
        "arguments": arguments,
        "inputs": [
            document_digest(Path(p).read_text(encoding="utf-8")) for p in inputs
        ],
    }
    text = serialize_document(out, forms=forms_out, provenance=provenance)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        if args.format == "machine":
            print(json.dumps({
                "command": "construct", "op": args.op, "passes": True,
                "out": args.out,
            }, indent=2))
        else:
            print(f"construct {args.op} on {args.algebra}: OK -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# suite

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


def _row_document(row, base_dir: Path) -> ParsedDocument:
    src = row.get("algebra")
    if isinstance(src, str):
        return _load_document(str(base_dir / src))
    if isinstance(src, dict) and "recipe" in src:
        from .catalog import build_entry
        field = _parse_field_label(src.get("field", "Q"))
        params = src.get("params", {})
        if not isinstance(params, dict):
            raise StructureError(f"recipe params must be an object, got {params!r}")
        entry = build_entry(src["recipe"], field, **params)
        return ParsedDocument(entry.algebra, entry.maps, entry.forms)
    raise StructureError(f"row needs an algebra path or recipe, got {src!r}")


def _run_suite_row(row, base_dir: Path, unchecked: bool):
    """Returns a result dict; raises StructureError for ill-formed rows."""
    if not isinstance(row, dict):
        raise StructureError(f"a row must be an object, got {row!r}")
    name = row.get("name", "<unnamed>")
    doc = _row_document(row, base_dir)
    result = {"name": name, "passes": True}

    def fail(stage, check_name, witness, field, detail=""):
        result["passes"] = False
        result["stage"] = stage
        result["check"] = check_name
        result["witness"] = _witness_json(field, witness)
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
            out, forms_out = _construct(
                doc, spec.get("name"), _row_arguments(spec), not unchecked, base_dir
            )
        except HypothesisError as exc:
            return fail(
                "construct", exc.requirement,
                getattr(exc.verdict, "witness", None), doc.algebra.field,
                exc.detail,
            )
        # the result keeps no maps; its own output forms shadow the input's
        doc = ParsedDocument(out, {}, {**doc.forms, **forms_out})
    for spec in _checkspecs(row, "conclusion_checks"):
        v = _check(doc, spec["check"], _row_arguments(spec))
        if not v:
            return fail("conclusion", spec["check"], v.witness, doc.algebra.field)
    return result


def builtin_suite_path(name: str) -> Path:
    from importlib import resources
    ref = resources.files("colorhom") / "suites" / f"{name}.json"
    p = Path(str(ref))
    if not p.is_file():
        raise StructureError(f"no builtin suite {name!r}")
    return p


def cmd_suite(args) -> int:
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
    base_dir = manifest_path.parent
    results = [
        _run_suite_row(row, base_dir, args.unchecked) for row in manifest["rows"]
    ]
    ok = all(r["passes"] for r in results)
    if args.format == "machine":
        print(json.dumps({
            "command": "suite",
            "manifest": str(manifest_arg),
            "rows": results,
            "passes": ok,
        }, indent=2))
    else:
        for r in results:
            if r["passes"]:
                print(f"row '{r['name']}': PASS")
            else:
                print(
                    f"row '{r['name']}': FAIL at {r['stage']} ({r['check']})"
                )
                if r.get("witness"):
                    w = r["witness"]
                    print(f"  identity: {w['identity']}")
                    print(f"  indices:  {w['indices']}")
                    if w["left"] is not None:
                        print(f"  left:     {w['left']}")
                        print(f"  right:    {w['right']}")
        print(f"suite: {'PASS' if ok else 'FAIL'} ({len(results)} rows)")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# catalog

def cmd_catalog(args) -> int:
    from .catalog import build_entry
    field = _parse_field_label(args.field)
    # build_entry decodes each parameter by its declared type
    params = {key: value for key in ("n", "dim", "c") if (value := vars(args)[key]) is not None}
    entry = build_entry(args.recipe, field, **params)
    text = serialize_document(entry.algebra, maps=entry.maps, forms=entry.forms)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        if args.format == "machine":
            print(json.dumps({
                "command": "catalog",
                "recipe": args.recipe,
                "claims": list(entry.recipe.claims),
                "out": args.out,
            }, indent=2))
        else:
            print(f"catalog {args.recipe}: OK -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorhom",
        description="Exact checks and constructions for graded color Hom-algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("check", parents=[common], help="run one check on a document")
    p.add_argument("algebra", help="algebra document (JSON)")
    p.add_argument("check", help="check name")
    p.add_argument("maps", nargs="*", help="map names used by the check")
    p.add_argument("--form", help="form name for quadratic checks")
    p.add_argument("--weight", help="weight scalar for rota_baxter")
    p.add_argument("--side", choices=("left", "right", "both"), default="both")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", parents=[common],
                       help="build a new document from a construction")
    p.add_argument("algebra", help="input algebra document (JSON)")
    p.add_argument("op", help="construction name")
    p.add_argument("maps", nargs="*", help="map names used by the construction")
    p.add_argument("--with", metavar="FILE",
                   help="second algebra document for direct_sum / tensor_product")
    p.add_argument("--n", type=int, help="power for power_twist")
    p.add_argument("--xi", help="comma-separated vector for xi_square_twist")
    p.add_argument("--form", help="form name for quadratic constructions")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--unchecked", action="store_true",
                   help="skip hypothesis validation")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("suite", parents=[common], help="run a manifest of theorem rows")
    p.add_argument("manifest", help="manifest file, or builtin:theorems")
    p.add_argument("--unchecked", action="store_true",
                   help="skip hypothesis validation inside constructions")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("catalog", parents=[common],
                       help="materialize a catalog instance as a document")
    p.add_argument("recipe", help="recipe name")
    p.add_argument("--field", default="Q", help="Q or F<p>")
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--c", help="scalar parameter")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse reads "--opt=--" as an empty list instead of the string "--"
        empty = [key for key, value in vars(args).items() if value == [] and key != "maps"]
        if empty:
            raise StructureError(f"--{empty[0]} needs a value")
        return args.func(args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        # constructions reached outside cmd_construct's handler
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
