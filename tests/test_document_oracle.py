"""parse_document reads kernel scalars and gives what the boxed reader gave.

tests/document_oracle.py keeps the reader that boxed every JSON scalar into
a field element and built alpha and the maps from dense matrices.  Both
parse every catalog entry and bundled instance, spelled over Q, F3, F5 and
F7, and Hypothesis documents with hostile scalars: negative ints, ints at
or past p and near the digit limit, "6/8", "-0", denominators divisible by
p, repeated triples that cancel mod p, and ragged matrices.  They must give
equal algebras, maps and forms with equal hashes, stored with the same
kernel scalar types, or raise the same error with the same text.  Parsing
leaves the dense structure tensor unbuilt.
"""

import json
from functools import cache
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colorhom.catalog import standard_entries
from colorhom.io import parse_document, serialize_document
from colorhom.scalars import prime_field, rationals

import document_oracle

FIELDS = (rationals(), prime_field(3), prime_field(5), prime_field(7))
FIELD_JSON = ({"kind": "rationals"}, *({"kind": "prime-field", "p": p} for p in (3, 5, 7)))

INSTANCES = sorted(
    (p.name, p.read_text(encoding="utf-8"))
    for p in (resources.files("colorhom") / "suites" / "instances").iterdir()
    if p.name.endswith(".json")
)

# json.dumps refuses an int past the digit limit, so its text is spliced in
_PAST_LIMIT = "@past-limit@"


@cache
def entry_documents(index: int) -> tuple:
    """The serialized standard entries over FIELDS[index]."""
    return tuple(
        serialize_document(e.algebra, e.maps, e.forms) for e in standard_entries(FIELDS[index])
    )


def outcome(parse, text):
    """The parsed document, or the error's type, text and indices."""
    try:
        return parse(text)
    except Exception as exc:  # the two readers must fail alike, whatever the error
        return type(exc).__name__, str(exc), getattr(exc, "indices", None)


def stored(doc):
    """Everything a parsed document stores, by repr, so kernel scalar types count too."""
    a = doc.algebra
    return repr((
        a.basis, a.bicharacter, a.product_rows, a.alpha.sparse_columns,
        {name: (m.sparse_columns, m.degree) for name, m in doc.maps.items()},
        doc.forms, doc.provenance,
    ))


def assert_parses_alike(text):
    new, old = outcome(parse_document, text), outcome(document_oracle.parse_document, text)
    if isinstance(old, tuple):
        assert new == old
        return
    assert not isinstance(new, tuple), new
    assert "structure" not in vars(new.algebra)
    assert new.algebra == old.algebra and hash(new.algebra) == hash(old.algebra)
    assert new.maps == old.maps and list(new.maps) == list(old.maps)
    assert [hash(m) for m in new.maps.values()] == [hash(m) for m in old.maps.values()]
    assert new.forms == old.forms
    assert [hash(f) for f in new.forms.values()] == [hash(f) for f in old.forms.values()]
    assert stored(new) == stored(old)


def respelled(text, field_json):
    doc = json.loads(text)
    doc["field"] = field_json
    return json.dumps(doc)


@pytest.mark.parametrize("index", range(len(FIELDS)), ids=[str(f) for f in FIELDS])
def test_catalog_entries_parse_alike(index):
    for text in entry_documents(index):
        assert_parses_alike(text)


@pytest.mark.parametrize("name, text", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_bundled_instances_parse_alike_over_every_field(name, text):
    assert_parses_alike(text)
    for field_json in FIELD_JSON:
        assert_parses_alike(respelled(text, field_json))


def scalars(p: int):
    modulus = p or 7
    return st.one_of(
        st.integers(-60, 60),
        st.integers(modulus, 40 * modulus),
        st.integers(-(10**40), 10**40),
        st.sampled_from([10**4299, -(10**4299) + 1, _PAST_LIMIT]),
        st.sampled_from(["6/8", "-0", "0/5", "1/2", "-9/6", " 3/4 ", "1/0", "x", "1e2"]),
        st.builds(lambda n, d: f"{n}/{d}", st.integers(-20, 20), st.integers(1, 12)),
        # a denominator divisible by p
        st.builds(lambda n, m: f"{n}/{m * modulus}", st.integers(-5, 5), st.integers(1, 3)),
        st.sampled_from([True, False, 1.5, None, [1], {"v": 1}]),
    )


@st.composite
def documents(draw):
    index = draw(st.integers(0, len(FIELDS) - 1))
    texts = entry_documents(index)
    doc = json.loads(draw(st.sampled_from(texts)))
    p = FIELDS[index].p or 0
    value = scalars(p)
    triples, alpha = doc["product"]["triples"], doc["alpha"]["matrix"]
    n = len(alpha)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["triple", "cancel", "alpha", "ragged", "map", "gram"]))
        if kind == "triple" and triples:
            draw(st.sampled_from(triples))[3] = draw(value)
        elif kind == "cancel" and triples:
            # a repeated triple that cancels the first, mod p
            i, j, k, v = draw(st.sampled_from(triples))
            if type(v) is int:
                triples.append([i, j, k, -v + p * draw(st.integers(-3, 3))])
        elif kind == "alpha" and n:
            row = alpha[draw(st.integers(0, n - 1))]
            if row:  # a ragged row may be empty
                row[draw(st.integers(0, len(row) - 1))] = draw(value)
        elif kind == "ragged" and n:
            row = alpha[draw(st.integers(0, n - 1))]
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append(draw(value))
        elif kind == "map" and doc.get("maps"):
            matrix = doc["maps"][draw(st.sampled_from(sorted(doc["maps"])))]["matrix"]
            matrix[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(value)
        elif kind == "gram" and doc.get("forms"):
            gram = doc["forms"][draw(st.sampled_from(sorted(doc["forms"])))]["gram"]
            gram[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(value)
    return json.dumps(doc).replace(json.dumps(_PAST_LIMIT), "9" * 4301)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_hostile_documents_parse_alike(text):
    assert_parses_alike(text)
