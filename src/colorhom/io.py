"""File format: one JSON document per algebra, exact scalars, canonical form.

Sections, in canonical order: field, group, bicharacter, basis, product,
alpha, then optional maps, forms, provenance.  Scalars are JSON integers
when integral and strings "n/d" otherwise; floats are rejected (nothing in
this package is approximate).  The product is sparse: sorted [i, j, k,
value] triples.  Canonical serialization is deterministic byte for byte;
parse accepts non-canonical spellings (unsorted triples, "6/8") and
re-serialization canonicalizes them.  The provenance section records how a
document was constructed; it is ignored by parsing and never part of the
canonical form.

Scalars are read and written as kernel scalars (ScalarField.kernel_scalar):
a JSON int is taken as it is, mod p over F_p, and only an "n/d" string goes
through field.parse; alpha and the maps are read into and written from
their sparse columns.  Forms load colorhom.quadratic, and only a document
that has them does.
"""

from __future__ import annotations

import json
import sys

from .core import (
    ColorHomAlgebra,
    GradedBasis,
    GradedLinearMap,
    _algebra_from_cells,
    _Columns,
    identity_map,
)
from .errors import StructureError, _Record
from .grading import Bicharacter, GradeGroup
from .scalars import ScalarField, prime_field, rationals

__all__ = [
    "ParsedDocument",
    "serialize_document",
    "parse_document",
    "document_digest",
]


class ParsedDocument(_Record):
    """A loaded document: its algebra, named maps and forms, and provenance if any.  Mutable and unhashable."""

    __match_args__ = ("algebra", "maps", "forms", "provenance")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, algebra: ColorHomAlgebra, maps: dict | None = None, forms: dict | None = None,
                 provenance: dict | None = None):
        self.algebra = algebra
        self.maps = {} if maps is None else maps
        self.forms = {} if forms is None else forms
        self.provenance = provenance


def _field_to_json(f: ScalarField):
    if f.characteristic == 0:
        return {"kind": "rationals"}
    return {"kind": "prime-field", "p": f.p}


def _scalar_from_json(f: ScalarField, v, where: str):
    """The JSON scalar v as a kernel scalar: an int as it is (mod p over F_p), "n/d" through f.parse."""
    if type(v) is int:
        return v % f.p if f.p else v
    if isinstance(v, bool) or isinstance(v, float):
        raise StructureError(f"{where}: scalar must be an integer or \"n/d\" string")
    if isinstance(v, str):
        return f.kernel_scalar(f.parse(v))
    raise StructureError(f"{where}: bad scalar {v!r}")


def _matrix_from_json(f: ScalarField, rows, where: str) -> tuple:
    _expect(
        isinstance(rows, list) and all(isinstance(row, list) for row in rows),
        f"{where}: matrix must be a list of rows",
    )
    return tuple(tuple(_scalar_from_json(f, v, where) for v in row) for row in rows)


def _columns_from_json(f: ScalarField, rows, n: int, where: str) -> _Columns:
    """An n x n matrix's sparse columns; its scalars are read before its shape is checked."""
    rows = _matrix_from_json(f, rows, where)
    _expect(len(rows) == n and all(len(row) == n for row in rows), f"matrix must be {n}x{n}")
    return _Columns(tuple({k: row[i] for k, row in enumerate(rows) if row[i]} for i in range(n)))


def _degree_from_json(group: GradeGroup, coords, where: str):
    _expect(
        isinstance(coords, list)
        and all(isinstance(c, int) and not isinstance(c, bool) for c in coords),
        f"{where} must be a list of integers",
    )
    return group.element(coords)


def _object_from_json(section, where: str) -> dict:
    """An optional section: absent or empty reads as {}."""
    section = section or {}
    _expect(isinstance(section, dict), f"{where}: must be an object")
    return section


class _Rows(list):
    """A list of rows of ints and "n/d" strings, which _emit writes in one pass."""


def _matrix_to_json(f: ScalarField, rows):
    return _Rows([f.to_json(v) for v in row] for row in rows)


def _columns_to_json(f: ScalarField, m: GradedLinearMap):
    """m's dense matrix as JSON rows, written from its sparse columns."""
    n = m.basis.dim
    rows = [[0] * n for _ in range(n)]
    for i, column in enumerate(m.sparse_columns):
        for k, v in column.items():
            rows[k][i] = f.to_json(v)
    return _Rows(rows)


def _map_to_json(f: ScalarField, m: GradedLinearMap):
    out = {}
    if not m.is_even:
        out["degree"] = list(m.degree.coords)
    out["matrix"] = _columns_to_json(f, m)
    return out


def serialize_document(
    algebra: ColorHomAlgebra,
    maps: dict | None = None,
    forms: dict | None = None,
    provenance: dict | None = None,
) -> str:
    """Canonical text (plus the non-canonical provenance section if given).

    A scalar too long to write in decimal (past sys.get_int_max_str_digits(),
    4300 digits by default) raises StructureError, as it does in parsing.
    """
    try:
        return _emit(_document(algebra, maps, forms, provenance), 0) + "\n"
    # an int past the digit limit, turned into text by json.dumps or as "n/d"
    except ValueError:
        raise StructureError(
            f"document not writable: a scalar passes {sys.get_int_max_str_digits()} decimal digits"
        ) from None


def _document(algebra: ColorHomAlgebra, maps, forms, provenance) -> dict:
    f = algebra.field
    doc = {
        "field": _field_to_json(f),
        "group": {
            "free_rank": algebra.group.free_rank,
            "torsion_orders": list(algebra.group.torsion_orders),
        },
        "bicharacter": {
            "gen_table": _matrix_to_json(f, algebra.bicharacter.gen_table)
        },
        "basis": {"degrees": _Rows(list(d.coords) for d in algebra.degrees)},
    }
    triples = _Rows(
        [i, j, k, f.to_json(v)]
        for i, plane in enumerate(algebra.product_rows)
        for j, cell in enumerate(plane)
        for k, v in cell.items()
    )
    doc["product"] = {"triples": triples}
    doc["alpha"] = {"matrix": _columns_to_json(f, algebra.alpha)}
    if maps:
        doc["maps"] = {
            name: _map_to_json(f, maps[name]) for name in sorted(maps)
        }
    if forms:
        ident = identity_map(algebra.basis)
        section = {}
        for name in sorted(forms):
            form = forms[name]
            # maps compare with their degree: an odd map may share the companion's matrix
            if form.companion == ident:
                companion = "id"
            elif form.companion == algebra.alpha:
                companion = "alpha"
            else:
                companion = None
                for mname in sorted(maps or {}):
                    if maps[mname] == form.companion:
                        companion = mname
                        break
                if companion is None:
                    raise StructureError(
                        f"form {name!r}: companion is not id, alpha, or a named map"
                    )
            entry = {"gram": _matrix_to_json(f, form.gram), "companion": companion}
            if not form.require_even:
                entry["require_even"] = False
            section[name] = entry
        doc["forms"] = section
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def _emit(obj, level: int) -> str:
    """Indented JSON, but lists of scalars stay on one line.

    Keeps structure-constant triples and matrix rows readable while the
    output remains plain JSON with a stable byte representation.
    """
    pad = "  " * level
    inner = "  " * (level + 1)
    if type(obj) is _Rows and obj:
        # no row holds a "], [", so the rows split there
        rows = json.dumps(obj)[1:-1].replace("], [", f"],\n{inner}[")
        return f"[\n{inner}{rows}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = (
            f"{inner}{json.dumps(str(k))}: {_emit(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            return json.dumps(obj)
        rows = (f"{inner}{_emit(v, level + 1)}" for v in obj)
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return json.dumps(obj)


def document_digest(text: str) -> str:
    import hashlib
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect(cond: bool, message: str):
    if not cond:
        raise StructureError(message)


def parse_document(text: str) -> ParsedDocument:
    """Parse and validate; raises StructureError on anything ill-formed.

    Mathematical properties are not checked here beyond what every algebra
    must satisfy (valid bicharacter, even product, even alpha); identities
    are the job of the check verbs.
    """
    try:
        doc = json.loads(text)
    # a JSONDecodeError, an integer literal past int's digit limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise StructureError(f"syntax: {exc}") from None
    _expect(isinstance(doc, dict), "document must be a JSON object")
    for section in ("field", "group", "bicharacter", "basis", "product", "alpha"):
        _expect(section in doc, f"missing section {section!r}")

    fsec = doc["field"]
    _expect(isinstance(fsec, dict) and "kind" in fsec, "field: need a kind")
    if fsec["kind"] == "rationals":
        field = rationals()
    elif fsec["kind"] == "prime-field":
        _expect("p" in fsec, "field: prime-field needs p")
        field = prime_field(fsec["p"])
    else:
        raise StructureError(f"field: unknown kind {fsec['kind']!r}")

    gsec = doc["group"]
    _expect(isinstance(gsec, dict), "group: must be an object")
    torsion = gsec.get("torsion_orders", [])
    _expect(isinstance(torsion, list), "group: torsion_orders must be a list")
    group = GradeGroup(gsec.get("free_rank", 0), tuple(torsion))

    bsec = doc["bicharacter"]
    _expect(isinstance(bsec, dict) and "gen_table" in bsec, "bicharacter: need gen_table")
    bichar = Bicharacter(field, group, _matrix_from_json(field, bsec["gen_table"], "bicharacter"))

    dsec = doc["basis"]
    _expect(isinstance(dsec, dict) and "degrees" in dsec, "basis: need degrees")
    _expect(isinstance(dsec["degrees"], list), "basis: degrees must be a list")
    degrees = [
        _degree_from_json(group, coords, f"basis: degree {idx}")
        for idx, coords in enumerate(dsec["degrees"])
    ]
    basis = GradedBasis(field, group, tuple(degrees))
    n = basis.dim

    psec = doc["product"]
    _expect(isinstance(psec, dict) and "triples" in psec, "product: need triples")
    _expect(isinstance(psec["triples"], list), "product: triples must be a list")
    cells: dict = {}
    for entry in psec["triples"]:
        # JSON gives exact types: an int here is never a bool
        if type(entry) is not list or len(entry) != 4:
            raise StructureError(f"product: triple {entry!r} must be [i, j, k, value]")
        i, j, k, v = entry
        if not (type(i) is type(j) is type(k) is int and 0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise StructureError(f"product: index out of range in {entry!r}")
        # an int is stored as it is: storing the rows reduces it mod p
        value = v if type(v) is int else _scalar_from_json(field, v, f"product[{i},{j},{k}]")
        cell = cells.setdefault((i, j), {})
        # a repeated (i, j, k) sums; zeros, given or summed, drop when the rows are stored
        cell[k] = cell[k] + value if k in cell else value

    asec = doc["alpha"]
    _expect(isinstance(asec, dict) and "matrix" in asec, "alpha: need matrix")
    alpha = GradedLinearMap(basis, _columns_from_json(field, asec["matrix"], n, "alpha"))

    algebra = _algebra_from_cells(basis, bichar, ((ij, cells[ij]) for ij in sorted(cells)), alpha)

    maps = {}
    for name, msec in _object_from_json(doc.get("maps"), "maps").items():
        _expect(isinstance(msec, dict) and "matrix" in msec, f"maps.{name}: need matrix")
        deg = None
        if "degree" in msec:
            deg = _degree_from_json(group, msec["degree"], f"maps.{name}: degree")
        columns = _columns_from_json(field, msec["matrix"], n, f"maps.{name}")
        maps[name] = GradedLinearMap(basis, columns, deg)

    forms = {}
    for name, fsec2 in _object_from_json(doc.get("forms"), "forms").items():
        from .quadratic import BilinearFormStructure
        _expect(isinstance(fsec2, dict) and "gram" in fsec2, f"forms.{name}: need gram")
        companion_name = fsec2.get("companion", "id")
        if companion_name == "id":
            companion = identity_map(basis)
        elif companion_name == "alpha":
            companion = alpha
        elif isinstance(companion_name, str) and companion_name in maps:
            companion = maps[companion_name]
        else:
            raise StructureError(
                f"forms.{name}: companion {companion_name!r} is not id, alpha, "
                "or a map defined in this document"
            )
        require_even = fsec2.get("require_even", True)
        _expect(type(require_even) is bool, f"forms.{name}: require_even must be true or false")
        forms[name] = BilinearFormStructure(
            basis,
            _matrix_from_json(field, fsec2["gram"], f"forms.{name}"),
            companion,
            require_even=require_even,
        )

    provenance = doc.get("provenance")
    return ParsedDocument(algebra, maps, forms, provenance)
