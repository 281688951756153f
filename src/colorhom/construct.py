"""The construct verb: a new document, with its provenance, from a named construction on a document.

Only `colorhom construct` loads this module.  It reads io's document functions as they run, so a
rebinding of io's names (as the traced benchmark run makes) reaches them.
"""

import json
import sys
from functools import partial
from pathlib import Path

from . import io
from .cli import _cli_arguments, _construct, _load_document, _print_witness_text, _witness_json
from .errors import HypothesisError

__all__ = ["cmd_construct"]


def cmd_construct(args) -> int:
    """Build the named construction on the document; exit 1 with the witness of a failed hypothesis."""
    texts = []  # each input document's text as parsed, in order: the provenance digests them
    load = partial(_load_document, texts=texts)
    doc = load(args.algebra)
    field = doc.algebra.field
    try:
        out, forms_out = _construct(doc, args.op, _cli_arguments(args), not args.unchecked, load)
    except HypothesisError as exc:
        w = getattr(exc.verdict, "witness", None)
        if args.format == "machine":
            print(json.dumps({"command": "construct", "op": args.op, "passes": False, "failed_hypothesis": exc.requirement,
                              "witness": _witness_json(field, w), "detail": exc.detail}, indent=2))
        else:
            print(f"construct {args.op} on {args.algebra}: HYPOTHESIS FAILED")
            print(f"  requirement: {exc.requirement}")
            if exc.detail:
                print(f"  detail: {exc.detail}")
            if w is not None:
                _print_witness_text(field, w, sys.stdout)
        return 1
    arguments = {"maps": list(args.maps)} if args.maps else {}
    arguments.update((key, v) for key in ("n", "xi", "form", "with") if (v := vars(args)[key]) is not None)
    provenance = {"construction": args.op, "arguments": arguments, "inputs": [io.document_digest(t) for t in texts]}
    text = io.serialize_document(out, forms=forms_out, provenance=provenance)
    if not args.out:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        if args.format == "machine":
            print(json.dumps({"command": "construct", "op": args.op, "passes": True, "out": args.out}, indent=2))
        else:
            print(f"construct {args.op} on {args.algebra}: OK -> {args.out}")
    return 0
