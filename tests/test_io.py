"""Serialization: canonical bytes, exact scalars, and strict parsing."""

import json
from fractions import Fraction
from importlib import resources

import pytest

from colorhom.catalog import (
    build_entry,
    pairing_form,
    scaling_morphism,
    standard_entries,
    truncated_polynomial,
)
from colorhom.core import identity_map, make_map
from colorhom.errors import StructureError
from colorhom.grading import GroupElement
from colorhom.io import (
    document_digest,
    parse_document,
    serialize_document,
)
from colorhom.quadratic import BilinearFormStructure
from colorhom.scalars import prime_field, rationals
from colorhom.suite_instances import instance_documents


Q = rationals()


@pytest.mark.parametrize("field", [Q, prime_field(7)], ids=["Q", "F7"])
def test_serialize_parse_round_trip_is_byte_identical(field):
    for entry in standard_entries(field):
        text = serialize_document(entry.algebra, entry.maps, entry.forms)
        doc = parse_document(text)
        again = serialize_document(doc.algebra, doc.maps, doc.forms)
        assert again == text, entry.recipe.name
        assert doc.algebra.structure == entry.algebra.structure
        assert doc.algebra.alpha.matrix == entry.algebra.alpha.matrix
        assert doc.algebra.degrees == entry.algebra.degrees


def test_output_is_plain_json():
    entry = build_entry("truncated_polynomial", Q, n=3)
    text = serialize_document(entry.algebra, entry.maps, entry.forms)
    doc = json.loads(text)
    assert list(doc) == ["field", "group", "bicharacter", "basis", "product", "alpha", "maps", "forms"]
    assert doc["product"]["triples"] == sorted(doc["product"]["triples"])


def test_duplicate_triples_accumulate():
    a = truncated_polynomial(2)
    text = serialize_document(a)
    doc = json.loads(text)
    doc["product"]["triples"] = [[0, 0, 0, 1], [0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]
    parsed = parse_document(json.dumps(doc))
    assert parsed.algebra.structure[0][0][0] == Fraction(2)


def test_non_canonical_spellings_canonicalize():
    a = truncated_polynomial(2)
    doc = json.loads(serialize_document(a))
    doc["product"]["triples"] = [[1, 0, 1, "6/6"], [0, 1, 1, 1], [0, 0, 0, "2/2"]]
    parsed = parse_document(json.dumps(doc))
    assert serialize_document(parsed.algebra) == serialize_document(a)
    assert parsed.algebra.structure[1][0][1] == Fraction(1)


def test_floats_and_bools_are_rejected():
    a = truncated_polynomial(2)
    base = json.loads(serialize_document(a))

    bad = json.loads(json.dumps(base))
    bad["product"]["triples"][0][3] = 1.5
    with pytest.raises(StructureError):
        parse_document(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["product"]["triples"][0][3] = True
    with pytest.raises(StructureError):
        parse_document(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["basis"]["degrees"][0] = [True]
    with pytest.raises(StructureError):
        parse_document(json.dumps(bad))


def test_parse_rejects_malformed_documents():
    with pytest.raises(StructureError) as info:
        parse_document("{not json")
    assert str(info.value).startswith("syntax:")
    with pytest.raises(StructureError):
        parse_document(json.dumps([1, 2, 3]))

    a = truncated_polynomial(2)
    base = json.loads(serialize_document(a))
    for section in ("field", "group", "bicharacter", "basis", "product", "alpha"):
        broken = {k: v for k, v in base.items() if k != section}
        with pytest.raises(StructureError):
            parse_document(json.dumps(broken))

    bad = json.loads(json.dumps(base))
    bad["field"] = {"kind": "reals"}
    with pytest.raises(StructureError):
        parse_document(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["product"]["triples"] = [[0, 0, 5, 1]]
    with pytest.raises(StructureError):
        parse_document(json.dumps(bad))


def test_companion_encoding_id_alpha_and_named_map():
    a = truncated_polynomial(3)
    text = serialize_document(a, {}, {"pairing": pairing_form(a)})
    assert json.loads(text)["forms"]["pairing"]["companion"] == "id"

    entry = build_entry("involutive_quadratic_polynomial", Q, n=3)
    text = serialize_document(entry.algebra, entry.maps, entry.forms)
    assert json.loads(text)["forms"]["pairing"]["companion"] == "alpha"
    parsed = parse_document(text)
    assert parsed.forms["pairing"].companion.matrix == parsed.algebra.alpha.matrix

    scale = scaling_morphism(a, 2)
    form = BilinearFormStructure(a.basis, pairing_form(a).gram, scale)
    text = serialize_document(a, {"scale2": scale}, {"twisted": form})
    assert json.loads(text)["forms"]["twisted"]["companion"] == "scale2"
    parsed = parse_document(text)
    assert parsed.forms["twisted"].companion.matrix == scale.matrix

    with pytest.raises(StructureError):
        serialize_document(a, {}, {"twisted": form})  # companion not nameable

    doc = json.loads(serialize_document(a, {}, {"pairing": pairing_form(a)}))
    doc["forms"]["pairing"]["companion"] = "ghost"
    with pytest.raises(StructureError):
        parse_document(json.dumps(doc))


def test_odd_maps_round_trip_with_their_degree():
    entry = build_entry("super_commutative_line", Q)
    sl = entry.algebra
    odd = GroupElement(sl.group, (1,))
    raising = make_map(sl.basis, ((0, 0), (1, 0)), degree=odd)
    text = serialize_document(sl, {"raise": raising})
    doc = json.loads(text)
    assert doc["maps"]["raise"]["degree"] == [1]
    parsed = parse_document(text)
    assert parsed.maps["raise"].degree == odd
    assert parsed.maps["raise"].matrix == raising.matrix


def test_an_odd_map_with_the_companion_matrix_is_not_named_as_companion():
    sl = build_entry("super_commutative_line", Q).algebra
    zeros = ((0, 0), (0, 0))
    odd_zero = make_map(sl.basis, zeros, degree=GroupElement(sl.group, (1,)))
    even_zero = make_map(sl.basis, zeros)
    form = BilinearFormStructure(sl.basis, ((1, 0), (0, 0)), even_zero)
    text = serialize_document(sl, {"a": odd_zero, "b": even_zero}, {"f": form})
    assert json.loads(text)["forms"]["f"]["companion"] == "b"
    parsed = parse_document(text)
    assert parsed.forms["f"].companion == even_zero
    assert parsed.maps["a"] == odd_zero


def test_digest_is_stable_and_prefixed():
    text = serialize_document(truncated_polynomial(2))
    d = document_digest(text)
    assert d.startswith("sha256:") and len(d) == 7 + 64
    assert d == document_digest(text)
    assert d != document_digest(text + " ")


def test_provenance_survives_round_trip_but_not_canonical_form():
    a = truncated_polynomial(2)
    prov = {"construction": "example", "arguments": {"n": 2}, "inputs": []}
    text = serialize_document(a, provenance=prov)
    parsed = parse_document(text)
    assert parsed.provenance == prov
    assert serialize_document(parsed.algebra) == serialize_document(a)


def test_shipped_instances_match_the_generator():
    shipped = resources.files("colorhom.suites").joinpath("instances")
    docs = instance_documents()
    names = {p.name[:-5] for p in shipped.iterdir() if p.name.endswith(".json")}
    assert names == set(docs)
    for name, text in docs.items():
        on_disk = shipped.joinpath(f"{name}.json").read_text(encoding="utf-8")
        assert on_disk == text, name
        parsed = parse_document(on_disk)
        assert serialize_document(
            parsed.algebra, parsed.maps, parsed.forms, parsed.provenance
        ) == on_disk, name


# The sha256 (first 16 hex digits) of each serialized catalog entry and bundled
# instance, as written before ScalarField.to_json took kernel ints and field
# elements without coercing them; serializing must not change a byte.
CATALOG_DIGESTS = [
    ("Q", "truncated_polynomial(n=1)", "669069edc801b68f"),
    ("Q", "truncated_polynomial(n=2)", "dddb4ca3fd9ff6e2"),
    ("Q", "truncated_polynomial(n=3)", "7a891a3d2d23c4fa"),
    ("Q", "truncated_polynomial(n=4)", "43ba049a35d42272"),
    ("Q", "super_commutative_line()", "cf9559b59481b735"),
    ("Q", "euler_novikov(n=2)", "1d86a5c333246f20"),
    ("Q", "euler_novikov(n=3)", "fe6b4f2f9f7aea5e"),
    ("Q", "scaled_polynomial(c=2, n=3)", "dce346485f762833"),
    ("Q", "scaled_polynomial(c=-1, n=3)", "085c692489caa35d"),
    ("Q", "involutive_quadratic_polynomial(n=3)", "cadd1d12234d3916"),
    ("Q", "solvable_bracket()", "9d8f9837b426f617"),
    ("Q", "zero_algebra(dim=2)", "765160f00712c2a0"),
    ("Q", "euler_novikov(n=12)", "c92fcbd96c4148d8"),
    ("F3", "truncated_polynomial(n=1)", "464ca12110c79a4f"),
    ("F3", "truncated_polynomial(n=2)", "d7e5fe0c5c2dc1a4"),
    ("F3", "truncated_polynomial(n=3)", "c8017c9bf3c2e014"),
    ("F3", "truncated_polynomial(n=4)", "ead0c377f07b1390"),
    ("F3", "super_commutative_line()", "e40cc8964b0f3037"),
    ("F3", "euler_novikov(n=2)", "17b3c966821ddb92"),
    ("F3", "euler_novikov(n=3)", "c3bf70dc11b99350"),
    ("F3", "scaled_polynomial(c=2, n=3)", "a711c50dea6d744c"),
    ("F3", "scaled_polynomial(c=2, n=3)", "a711c50dea6d744c"),
    ("F3", "involutive_quadratic_polynomial(n=3)", "fef29f83a314ddd0"),
    ("F3", "solvable_bracket()", "80e3e824cad87d15"),
    ("F3", "zero_algebra(dim=2)", "2cc48c1d7692e8b1"),
    ("F3", "euler_novikov(n=12)", "e593f0b0e75cc835"),
    ("F5", "truncated_polynomial(n=1)", "051377036e189d4d"),
    ("F5", "truncated_polynomial(n=2)", "8a7882e8d8544f12"),
    ("F5", "truncated_polynomial(n=3)", "85575658cb9e68c5"),
    ("F5", "truncated_polynomial(n=4)", "53d4deb5e2274cbd"),
    ("F5", "super_commutative_line()", "7bdc2389dd87cd70"),
    ("F5", "euler_novikov(n=2)", "f36614bd632f6c3e"),
    ("F5", "euler_novikov(n=3)", "afc901516c12fd9e"),
    ("F5", "scaled_polynomial(c=2, n=3)", "4c0d2e9e86cd0314"),
    ("F5", "scaled_polynomial(c=4, n=3)", "02b866c726638c5d"),
    ("F5", "involutive_quadratic_polynomial(n=3)", "eeebf05192f5b3bd"),
    ("F5", "solvable_bracket()", "03161cee87cd477d"),
    ("F5", "zero_algebra(dim=2)", "6c6a4d47e097f28f"),
    ("F5", "euler_novikov(n=12)", "31a4b7182dcc9779"),
    ("F7", "truncated_polynomial(n=1)", "6253148e3a7062a2"),
    ("F7", "truncated_polynomial(n=2)", "841cba27245fe225"),
    ("F7", "truncated_polynomial(n=3)", "90196f23c782fd1c"),
    ("F7", "truncated_polynomial(n=4)", "0702b0e334285bec"),
    ("F7", "super_commutative_line()", "adc75c4b97c7ab17"),
    ("F7", "euler_novikov(n=2)", "1151d7e8f2b08989"),
    ("F7", "euler_novikov(n=3)", "2afd2eae8a3acf89"),
    ("F7", "scaled_polynomial(c=2, n=3)", "6cbc3465bba7ff7b"),
    ("F7", "scaled_polynomial(c=6, n=3)", "7578724d03fcbd63"),
    ("F7", "involutive_quadratic_polynomial(n=3)", "00d61819fc7aa0bb"),
    ("F7", "solvable_bracket()", "f5a4cec7a7d550c4"),
    ("F7", "zero_algebra(dim=2)", "bb49a91eda0fb04c"),
    ("F7", "z3_graded_nilpotent()", "3d1e66552dd5a3a9"),
    ("F7", "euler_novikov(n=12)", "80278271679593ee"),
]

INSTANCE_DIGESTS = {
    "euler2": "1d86a5c333246f20",
    "euler3": "fe6b4f2f9f7aea5e",
    "invquad3": "cadd1d12234d3916",
    "poly2": "dddb4ca3fd9ff6e2",
    "poly3": "7a891a3d2d23c4fa",
    "poly3_scaled": "5b1e84900df167c0",
    "poly5_f5": "0ddbe59ea62f7122",
    "scaledpoly3_2": "dce346485f762833",
    "solvable": "9d8f9837b426f617",
    "superline": "cf9559b59481b735",
}


def _digest(text):
    return document_digest(text)[len("sha256:"):][:16]


def test_serialized_catalog_entries_and_instances_keep_their_bytes():
    got = []
    for field in (Q, prime_field(3), prime_field(5), prime_field(7)):
        for e in standard_entries(field) + [build_entry("euler_novikov", field, n=12)]:
            params = ", ".join(f"{k}={v}" for k, v in e.recipe.params)
            text = serialize_document(e.algebra, maps=e.maps, forms=e.forms)
            got.append((str(field), f"{e.recipe.name}({params})", _digest(text)))
    assert got == CATALOG_DIGESTS
    assert {name: _digest(text) for name, text in instance_documents().items()} == INSTANCE_DIGESTS


@pytest.mark.parametrize("field", [Q, prime_field(3), prime_field(7)], ids=str)
def test_to_json_agrees_with_coercing_first(field):
    def coerced(x):
        x = field.coerce(x)
        if field.characteristic == 0:
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        return x.val

    values = [0, 1, -1, 2, 6, 7, -8, 10**30, True, Fraction(4, 2), Fraction(-1, 2), Fraction(0)]
    if field.characteristic:
        values += [field.from_int(5), field.from_int(-1)]
    for v in values:
        assert field.to_json(v) == coerced(v), v
        assert type(field.to_json(v)) is type(coerced(v)), v
    for bad in (0.5, "1", prime_field(5).from_int(2)):
        with pytest.raises(StructureError):
            field.to_json(bad)
