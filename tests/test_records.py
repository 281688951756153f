"""The value classes behave as the frozen and plain dataclasses they replace.

Each class names its fields in __match_args__ and writes its own __init__;
equality, hashing, repr and frozenness are read off that tuple.  Every case
pins the field tuple literally, and checks that a frozen instance refuses
assignment and deletion, that == and hash read exactly the fields (an
algebra's eps_table is not compared), that the two mutable classes are
unhashable with a fresh default dict per instance, and that copy, deepcopy
and pickle give back an equal object.  Bad input to the validating classes
raises the text it raised before.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from colorhom import checks, core, grading, io, operations, quadratic, scalars
from colorhom.catalog import CatalogEntry, InstanceRecipe, build_entry
from colorhom.errors import StructureError

Q = scalars.rationals()
F5 = scalars.prime_field(5)
ENTRY = build_entry("truncated_polynomial", Q, n=2)
A = ENTRY.algebra
Z3 = grading.GradeGroup(1, (3,))
DOC = io.parse_document(io.serialize_document(A, ENTRY.maps, ENTRY.forms))

# class name -> (the class, its fields, a sample instance, whether it is frozen)
CASES = {
    "ScalarField": (scalars.ScalarField, ("kind", "p"), F5, True),
    "GradeGroup": (grading.GradeGroup, ("free_rank", "torsion_orders"), Z3, True),
    "GroupElement": (grading.GroupElement, ("group", "coords"), Z3.element((1, 5)), True),
    "Bicharacter": (grading.Bicharacter, ("field", "group", "gen_table"), A.bicharacter, True),
    "BicharacterReport": (
        grading.BicharacterReport, ("ok", "axiom", "pair", "detail"),
        grading.BicharacterReport(False, "skew", (0, 1), "E[0][1]*E[1][0] = 2 != 1"), True,
    ),
    "GradedBasis": (core.GradedBasis, ("field", "group", "degrees"), A.basis, True),
    "GradedLinearMap": (core.GradedLinearMap, ("basis", "sparse_columns", "degree"), ENTRY.maps["dt"], True),
    "ColorHomAlgebra": (
        core.ColorHomAlgebra, ("basis", "bicharacter", "product_rows", "alpha", "eps_table"), A, True,
    ),
    "ParsedDocument": (io.ParsedDocument, ("algebra", "maps", "forms", "provenance"), DOC, False),
    "Operation": (
        operations.Operation, ("kind", "takes", "module", "function", "adapt"), operations.OPERATIONS["morphism"], True,
    ),
    "Witness": (checks.Witness, ("identity", "indices", "left", "right"), checks.Witness("skew", (0, 1), (1,), (2,)), True),
    "Verdict": (
        checks.Verdict, ("passes", "witness"), checks.Verdict(False, checks.Witness("x", (0,), None, None)), True,
    ),
    "BilinearFormStructure": (
        quadratic.BilinearFormStructure, ("basis", "gram", "companion", "require_even"), ENTRY.forms["pairing"], True,
    ),
    "InstanceRecipe": (InstanceRecipe, ("name", "field_label", "params", "claims"), ENTRY.recipe, True),
    "CatalogEntry": (CatalogEntry, ("recipe", "algebra", "maps", "forms"), ENTRY, False),
}
# the classes whose hash is written out rather than the hash of their field tuple
OWN_HASH = {
    "ScalarField": lambda f: hash((f.kind, f.characteristic)),
    "GradedLinearMap": lambda m: hash((m.basis, tuple(tuple(c.items()) for c in m.sparse_columns), m.degree)),
    "ColorHomAlgebra": lambda a: hash(
        (a.basis, a.bicharacter, tuple(tuple(c.items()) for row in a.product_rows for c in row), a.alpha)
    ),
}
UNCOMPARED = {"ColorHomAlgebra": {"eps_table"}}


def with_field(x, name, value):
    """A copy of x, caches dropped, with one field's stored value replaced."""
    out = object.__new__(type(x))
    vars(out).update({f: getattr(x, f) for f in type(x).__match_args__}, **{name: value})
    return out


@pytest.mark.parametrize("name", CASES)
def test_a_value_class_reads_its_fields_off_match_args(name):
    cls, fields, x, frozen = CASES[name]
    assert cls.__name__ == name and cls.__match_args__ == fields
    assert [k for k in vars(x) if k in fields] == list(fields)
    # the repr lists the fields by name in order, except the two classes that print a dense matrix
    if name not in ("GradedLinearMap", "ColorHomAlgebra"):
        assert repr(x) == f"{name}(" + ", ".join(f"{f}={getattr(x, f)!r}" for f in fields) + ")"

    twin = with_field(x, fields[0], getattr(x, fields[0]))
    assert twin == x and not twin != x and x != object() and x != 1
    for field in fields:
        changed = with_field(x, field, object())
        assert (changed == x) is (field in UNCOMPARED.get(name, ())), field

    if frozen:
        assert hash(twin) == hash(x) == OWN_HASH.get(name, lambda y: hash(tuple(getattr(y, f) for f in fields)))(x)
        for field in (*fields, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(x, field, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(x, field)
        assert [getattr(x, f) for f in fields] == [getattr(twin, f) for f in fields]
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
        y = copy.copy(x)
        y.maps = {"m": 1}
        del y.forms
        assert x.maps is not y.maps and "forms" not in vars(y)

    for other in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(other) is cls and other == x


@pytest.mark.parametrize("cls", [io.ParsedDocument, CatalogEntry])
def test_a_mutable_class_gives_each_instance_its_own_default_dicts(cls):
    first = (A,) if cls is io.ParsedDocument else (ENTRY.recipe, A)
    x, y = cls(*first), cls(*first)
    assert x.maps == x.forms == {} and x.maps is not y.maps and x.forms is not y.forms and x.maps is not x.forms
    x.maps["m"] = ENTRY.maps["dt"]
    assert y.maps == {} and x != y
    if cls is io.ParsedDocument:
        assert x.provenance is None
        assert repr(cls(A, {}, {}, None)) == f"ParsedDocument(algebra={A!r}, maps={{}}, forms={{}}, provenance=None)"


def test_defaults_and_keywords_follow_the_field_order():
    assert scalars.ScalarField("rationals") == scalars.ScalarField(kind="rationals", p=None) == Q
    assert grading.GradeGroup(2).torsion_orders == () and grading.GradeGroup(1, [3]) == Z3
    assert grading.BicharacterReport(True) == grading.BicharacterReport(True, None, None, "")
    assert checks.Verdict(True) == checks.PASS and checks.PASS.witness is None
    op = operations.Operation(kind="check", takes=(), module="checks", function="check_regular")
    assert op.adapt is None and op == operations.Operation("check", (), "checks", "check_regular", None)
    form = quadratic.BilinearFormStructure(A.basis, ((0, 1), (1, 0)), core.identity_map(A.basis))
    assert form.require_even is True and form == ENTRY.forms["pairing"]
    assert repr(F5) == "ScalarField(kind='prime-field', p=5)"
    assert repr(checks.PASS) == "Verdict(passes=True, witness=None)"
    assert repr(grading.GradeGroup(0, (2,)).zero()) == (
        "GroupElement(group=GradeGroup(free_rank=0, torsion_orders=(2,)), coords=(0,))"
    )


def test_fields_are_normalized_before_they_are_stored():
    assert grading.GradeGroup(1, [3]).torsion_orders == (3,)
    assert Z3.element([4, 7]).coords == (4, 1)
    b = grading.Bicharacter(F5, grading.GradeGroup(1), [[6]])
    assert b.gen_table == ((scalars.Fp(1, 5),),) and type(b.gen_table[0]) is tuple
    form = quadratic.BilinearFormStructure(A.basis, [[0, 1], [1, 0]], core.identity_map(A.basis))
    assert form.gram == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert core.GradedBasis(Q, A.group, list(A.degrees)).degrees == A.degrees


@pytest.mark.parametrize("build, text", [
    (lambda: scalars.ScalarField("complex"), "unknown field kind 'complex'"),
    (lambda: scalars.ScalarField("rationals", 3), "rationals take no modulus"),
    (lambda: scalars.ScalarField("prime-field", 9), "modulus 9 is not prime"),
    (lambda: scalars.ScalarField("prime-field", "5"), "modulus '5' is not prime"),
    (lambda: scalars.ScalarField("prime-field"), "modulus None is not prime"),
    (lambda: scalars.ScalarField("prime-field", 2), "characteristic 2 is not supported"),
    (lambda: scalars.ScalarField("prime-field", 2**31 + 11), f"modulus {2**31 + 11} too large (cap 2**31)"),
    (lambda: grading.GroupElement(Z3, (1,)), "element needs 2 coordinates, got 1"),
    (lambda: grading.GroupElement(Z3, (1, "a")), "coordinate 'a' is not an integer"),
    (lambda: grading.GroupElement(Z3, (0.5, 1)), "coordinate 0.5 is not an integer"),
    (lambda: grading.Bicharacter(F5, Z3, ((1, "x"),)), "not a scalar over F5: 'x'"),
    (lambda: grading.Bicharacter(F5, Z3, ((1, Fraction(1, 5)),)),
     "1/5 has no value over F5: its denominator is a multiple of 5"),
    (lambda: grading.Bicharacter(Q, Z3, ((1, 0.5),)), "not a scalar over Q: 0.5"),
    (lambda: quadratic.BilinearFormStructure(A.basis, ((1,),), A.alpha), "Gram matrix must be 2x2"),
    (lambda: quadratic.BilinearFormStructure(A.basis, ((1, 0), (0,)), A.alpha), "Gram matrix must be 2x2"),
    (lambda: quadratic.BilinearFormStructure(A.basis, ((1, 0), (0, 1)), core.identity_map(core.trivial_basis(Q, 3))),
     "companion lives on a different basis"),
])
def test_bad_input_raises_the_text_it_raised_before(build, text):
    with pytest.raises(StructureError) as caught:
        build()
    assert str(caught.value) == text


def test_an_uneven_form_names_its_first_entry():
    g = grading.GradeGroup(0, (2,))
    basis = core.GradedBasis(Q, g, (g.zero(), g.element((1,))))
    with pytest.raises(StructureError) as caught:
        quadratic.BilinearFormStructure(basis, ((1, 1), (1, 1)), core.identity_map(basis))
    assert str(caught.value) == "form not even: B[0][1] != 0 but deg(e_0) + deg(e_1) != 0"
    assert caught.value.indices == (0, 1)
    with pytest.raises(StructureError) as caught:
        quadratic.BilinearFormStructure(basis, ((1, 0), (0, 1)), core.GradedLinearMap(basis, ((0, 1), (1, 0)), g.element((1,))))
    assert str(caught.value) == "companion must be even (degree 0)"
    odd = quadratic.BilinearFormStructure(basis, ((1, 1), (1, 1)), core.identity_map(basis), False)
    assert odd.require_even is False
