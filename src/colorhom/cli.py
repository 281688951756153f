"""File-based command line: check, construct, suite, catalog.

Exit status discipline: 0 = everything passed; 1 = a mathematical failure
(a check failed or a construction hypothesis was violated; the report
carries the witness); 2 = usage or structural error (bad file, unknown
name, ill-formed document).  The two failure kinds are never conflated.

Here are the parser, main, document loading, the binding of named operations
and the check verb; the parser names each other verb as (module, function),
imported as the verb runs.  So a child compiles what its verb runs: the
document format and the operation table, a check's or construction's module
when the verb binds it, and its verb's module (and the catalog for recipe rows).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from pathlib import Path

from .errors import HypothesisError, StructureError
from .io import ParsedDocument, parse_document
from .operations import CHECK, CONSTRUCTION, OPERATIONS, OPTIONAL_ARGUMENTS
from .scalars import ScalarField

__all__ = ["main"]


def _load_document(path: str | Path, texts: list | None = None) -> ParsedDocument:
    """The parsed document at path; texts, when given, gets the text read."""
    p = Path(path)
    if not p.is_file():
        raise StructureError(f"no such file: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path}: not UTF-8 text: {exc}") from None
    if texts is not None:
        texts.append(text)
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


def _bind(kind: str, name: str, doc: ParsedDocument, raw: dict, load=_load_document):
    """Look up a named operation and turn raw arguments into its call arguments.

    raw holds "maps", a list of map names, plus any of "form", "with", "n",
    "xi" (a list of scalar literals), "weight" and "side", as parsed from
    the command line or spelled in a suite row.  The number of map names
    must match the operation; other arguments it does not take are ignored.
    Scalars are decoded by the field's parser, and load reads a with-path
    given as a Path.
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
            value = load(Path(value)).algebra
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


def _construct(doc: ParsedDocument, name: str, raw: dict, checked: bool, load=_load_document):
    """Returns (algebra, output forms by name); a with-document is read by load, as _bind reads it."""
    op, args = _bind(CONSTRUCTION, name, doc, raw, load)
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
    p.set_defaults(verb=("cli", "cmd_check"))

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
    p.set_defaults(verb=("construct", "cmd_construct"))

    p = sub.add_parser("suite", parents=[common], help="run a manifest of theorem rows")
    p.add_argument("manifest", help="manifest file, or builtin:theorems")
    p.add_argument("--unchecked", action="store_true",
                   help="skip hypothesis validation inside constructions")
    p.set_defaults(verb=("suite", "cmd_suite"))

    p = sub.add_parser("catalog", parents=[common],
                       help="materialize a catalog instance as a document")
    p.add_argument("recipe", help="recipe name")
    p.add_argument("--field", default="Q", help="Q or F<p>")
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--c", help="scalar parameter")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(verb=("catalog", "cmd_catalog"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse reads "--opt=--" as an empty list instead of the string "--"
        empty = [key for key, value in vars(args).items() if value == [] and key != "maps"]
        if empty:
            raise StructureError(f"--{empty[0]} needs a value")
        module, function = args.verb
        return getattr(import_module(f"{__package__}.{module}"), function)(args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        # constructions reached outside cmd_construct's handler
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
