"""colorhom construct reads each input document once and digests the text it parsed.

The provenance of a constructed document lists the sha256 of each input,
the algebra's document first and then the --with document.  The verb takes
each digest from the text it parsed, so it reads no file a second time, and
the document it writes is the one it wrote when it read every input again
to digest it (the sha256 pinned below).
"""

import hashlib
import json
from pathlib import Path

import pytest

from colorhom.catalog import build_entry
from colorhom.cli import main
from colorhom.io import document_digest, serialize_document
from colorhom.scalars import rationals

# sha256 of each written document, as the verb wrote it when it read its inputs twice
WRITTEN_SHA256 = {
    "tensor_product": "d80105d9fdfe74b2bc9fe09267312d4760469f2abd9e69ed7f7561df32440c9c",
    "direct_sum": "87d1973e870f744fd554926467d75971c5555ded4754399254ee4ad16d5791ee",
}


@pytest.fixture
def documents(tmp_path, monkeypatch):
    """euler6.json and poly4.json in the working directory, named by relative path as the provenance records it."""
    monkeypatch.chdir(tmp_path)
    q = rationals()
    for name, recipe, n in (("euler6.json", "euler_novikov", 6), ("poly4.json", "truncated_polynomial", 4)):
        entry = build_entry(recipe, q, n=n)
        Path(name).write_text(serialize_document(entry.algebra, entry.maps, entry.forms), encoding="utf-8")


def test_a_construction_with_a_second_document_reads_each_path_once(documents, monkeypatch, capsys):
    reads, read_text = [], Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **kw: reads.append(str(self)) or read_text(self, *a, **kw))
    assert main(["construct", "euler6.json", "tensor_product", "--with", "poly4.json", "--out", "t.json"]) == 0
    capsys.readouterr()
    assert sorted(reads) == ["euler6.json", "poly4.json"]


@pytest.mark.parametrize("op, second", [("tensor_product", "poly4.json"), ("direct_sum", "euler6.json")])
def test_the_provenance_digests_the_parsed_inputs_in_order(documents, op, second, capsys):
    out = Path(f"{op}.json")
    assert main(["construct", "euler6.json", op, "--with", second, "--out", str(out)]) == 0
    capsys.readouterr()
    texts = [Path(name).read_text(encoding="utf-8") for name in ("euler6.json", second)]
    written = out.read_bytes()
    assert json.loads(written)["provenance"]["inputs"] == [document_digest(t) for t in texts]
    assert hashlib.sha256(written).hexdigest() == WRITTEN_SHA256[op]
