"""The document parser as it stood before kernel-scalar reading, kept as a test oracle.

parse_document boxes every JSON scalar into a field element
(_scalar_from_json), builds every matrix as a dense tuple of them
(_matrix_from_json), and hands alpha and the maps to GradedLinearMap as
dense matrices, which coerce and shape-check them.  It shares no scalar or
matrix reading with colorhom.io, so equal algebras, maps, forms and errors
pin the kernel-scalar reading down.
"""

import json

from colorhom.core import GradedBasis, GradedLinearMap, _algebra_from_cells, identity_map
from colorhom.errors import StructureError
from colorhom.grading import Bicharacter, GradeGroup
from colorhom.io import ParsedDocument
from colorhom.quadratic import BilinearFormStructure
from colorhom.scalars import prime_field, rationals


def _expect(cond, message):
    if not cond:
        raise StructureError(message)


def _scalar_from_json(f, v, where):
    if isinstance(v, bool) or isinstance(v, float):
        raise StructureError(f"{where}: scalar must be an integer or \"n/d\" string")
    if isinstance(v, int):
        return f.from_int(v)
    if isinstance(v, str):
        return f.parse(v)
    raise StructureError(f"{where}: bad scalar {v!r}")


def _matrix_from_json(f, rows, where):
    _expect(
        isinstance(rows, list) and all(isinstance(row, list) for row in rows),
        f"{where}: matrix must be a list of rows",
    )
    return tuple(tuple(_scalar_from_json(f, v, where) for v in row) for row in rows)


def _degree_from_json(group, coords, where):
    _expect(
        isinstance(coords, list)
        and all(isinstance(c, int) and not isinstance(c, bool) for c in coords),
        f"{where} must be a list of integers",
    )
    return group.element(coords)


def _object_from_json(section, where):
    section = section or {}
    _expect(isinstance(section, dict), f"{where}: must be an object")
    return section


def parse_document(text):
    try:
        doc = json.loads(text)
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
    cells = {}
    for entry in psec["triples"]:
        _expect(
            isinstance(entry, list) and len(entry) == 4,
            f"product: triple {entry!r} must be [i, j, k, value]",
        )
        i, j, k, v = entry
        for x in (i, j, k):
            _expect(
                isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n,
                f"product: index out of range in {entry!r}",
            )
        value = _scalar_from_json(field, v, f"product[{i},{j},{k}]")
        cell = cells.setdefault((i, j), {})
        cell[k] = cell[k] + value if k in cell else value

    asec = doc["alpha"]
    _expect(isinstance(asec, dict) and "matrix" in asec, "alpha: need matrix")
    alpha = GradedLinearMap(basis, _matrix_from_json(field, asec["matrix"], "alpha"))

    algebra = _algebra_from_cells(basis, bichar, ((ij, cells[ij]) for ij in sorted(cells)), alpha)

    maps = {}
    for name, msec in _object_from_json(doc.get("maps"), "maps").items():
        _expect(isinstance(msec, dict) and "matrix" in msec, f"maps.{name}: need matrix")
        deg = None
        if "degree" in msec:
            deg = _degree_from_json(group, msec["degree"], f"maps.{name}: degree")
        rows = _matrix_from_json(field, msec["matrix"], f"maps.{name}")
        maps[name] = GradedLinearMap(basis, rows, deg)

    forms = {}
    for name, fsec2 in _object_from_json(doc.get("forms"), "forms").items():
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

    return ParsedDocument(algebra, maps, forms, doc.get("provenance"))
