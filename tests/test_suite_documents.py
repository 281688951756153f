"""A suite run reads each document it names once, and keeps nothing between runs.

The builtin theorem suite names 10 distinct documents in 26 places (a row's
algebra or a construction's with-document): one run parses each once and
its rows share it.  cli.main runs in-process in tests and in the traced
benchmark pass, so a second run in one process reads its files again, and
a file rewritten in between gives the new file's verdict.  Sharing the
parsed documents changes no output byte.
"""

import contextlib
import hashlib
import io
import json

import pytest

from colorhom import cli
from colorhom.catalog import build_entry
from colorhom.io import serialize_document
from colorhom.scalars import rationals

# sha256 of the machine-format stdout of `suite builtin:theorems`, as each row parsed its own documents
THEOREMS_MACHINE_SHA256 = "19fe5e12526a4434fca20a528e4e93b83b61e15712ddd11758cbb8c978f9cb48"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_the_builtin_suite_parses_each_of_its_documents_once(monkeypatch):
    texts = []
    parse = cli.parse_document
    monkeypatch.setattr(cli, "parse_document", lambda text: texts.append(text) or parse(text))
    code, _, err = run(["suite", "builtin:theorems"])
    assert code == 0, err
    assert len(texts) == len(set(texts)) == 10


@pytest.mark.parametrize("unchecked", [[], ["--unchecked"]], ids=["checked", "unchecked"])
def test_the_builtin_suite_prints_what_it_printed_when_each_row_parsed_its_documents(unchecked):
    code, out, _ = run(["suite", "builtin:theorems", "--format", "machine", *unchecked])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == THEOREMS_MACHINE_SHA256


def test_a_document_rewritten_between_two_runs_is_read_again(tmp_path):
    q = rationals()
    manifest = tmp_path / "manifest.json"
    rows = [
        {"name": "first", "algebra": "a.json", "conclusion_checks": ["epsilon_commutative"]},
        {"name": "again", "algebra": "./a.json", "conclusion_checks": ["epsilon_commutative"]},
    ]
    manifest.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    document = tmp_path / "a.json"
    for recipe, expected in (("truncated_polynomial", 0), ("euler_novikov", 1), ("truncated_polynomial", 0)):
        document.write_text(serialize_document(build_entry(recipe, q, n=3).algebra), encoding="utf-8")
        code, out, _ = run(["suite", str(manifest)])
        assert code == expected, (recipe, out)
        assert out.count("FAIL at conclusion (epsilon_commutative)") == 2 * expected
