"""The one table of named operations: what reads it, how arguments bind, README drift."""

import json
import re
from pathlib import Path

import pytest

from colorhom import catalog, checks
from colorhom.catalog import (
    CHECK,
    CHECKS_BY_NAME,
    CONSTRUCTION,
    OPERATIONS,
    build_entry,
    run_named_check,
    search_maps,
    truncated_polynomial,
)
from colorhom.checks import IDENTITIES_BY_CHECK, PASS, _scan, check_hom_novikov
from colorhom.cli import main
from colorhom.constructions import derivation_product
from colorhom.core import identity_map
from colorhom.errors import StructureError
from colorhom.io import serialize_document
from colorhom.scalars import rationals


Q = rationals()
README = Path(__file__).resolve().parents[1] / "README.md"


def write_entry(directory, name, filename, **params):
    entry = build_entry(name, Q, **params)
    path = directory / filename
    path.write_text(serialize_document(entry.algebra, entry.maps, entry.forms), encoding="utf-8")
    return path


def readme_names(heading):
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([a-z_]+)`", section))


@pytest.mark.parametrize("heading, kind", [("Checks", CHECK), ("Constructions", CONSTRUCTION)])
def test_readme_lists_exactly_the_registered_names(heading, kind):
    assert readme_names(heading) == {n for n, op in OPERATIONS.items() if op.kind == kind}


def test_unary_checks_are_a_view_of_the_table():
    unary = {n for n, op in OPERATIONS.items() if op.kind == CHECK and not op.takes}
    assert set(CHECKS_BY_NAME) == unary
    assert "quadratic_structure" not in CHECKS_BY_NAME
    with pytest.raises(StructureError):
        run_named_check(truncated_polynomial(2), "quadratic_structure")


def test_every_declared_argument_is_known():
    known = {"map", "form", "with", "n", "xi", "weight", "side"}
    for name, op in OPERATIONS.items():
        assert op.kind in (CHECK, CONSTRUCTION), name
        assert set(op.takes) <= known, name


def test_table_calls_see_rebound_module_names(monkeypatch):
    # the traced benchmark run rebinds public names; the table must reach them,
    # looking each function up in the module it names when it runs
    calls = []

    def spy(a):
        calls.append(a)
        return PASS

    monkeypatch.setattr(checks, "check_hom_novikov", spy)
    a = truncated_polynomial(2)
    assert run_named_check(a, "hom_novikov") is PASS
    assert calls == [a]


def test_composite_checks_scan_their_identities_in_order():
    entry = build_entry("truncated_polynomial", Q, n=3)
    a = derivation_product(entry.algebra, entry.maps["dt"], checked=False)
    right, left = (_scan(a, name) for name in IDENTITIES_BY_CHECK["hom_novikov"])
    assert right.passes and not left.passes
    assert check_hom_novikov(a) == left
    for check, identities in IDENTITIES_BY_CHECK.items():
        expected = next((v for v in (_scan(a, i) for i in identities) if not v), PASS)
        assert run_named_check(a, check) == expected, check


def test_search_accepts_exactly_the_one_map_checks():
    a = truncated_polynomial(2)
    form = catalog.pairing_form(a)
    ident = identity_map(a.basis).matrix
    for name, op in OPERATIONS.items():
        if op.kind == CHECK and op.takes.count("map") == 1:
            given = {"form": form} if "form" in op.takes else {}
            hits = search_maps(a, name, values=(0, 1), **given)
            if name in ("weak_morphism", "morphism", "symmetric_automorphism"):
                assert ident in [m.matrix for m in hits], name
        else:
            with pytest.raises(StructureError):
                search_maps(a, name, form=form)


def test_suite_scalars_decode_like_cli_scalars(tmp_path, capsys):
    sb = write_entry(tmp_path, "solvable_bracket", "sb.json")
    assert main(["check", str(sb), "rota_baxter", "rb_proj", "--weight", "1/2"]) == 0
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"rows": [{
        "name": "weight one half",
        "algebra": "sb.json",
        "hypothesis_checks": [{"check": "rota_baxter", "map": "rb_proj", "weight": "1/2"}],
    }]}))
    capsys.readouterr()
    assert main(["suite", str(manifest), "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == [{"name": "weight one half", "passes": True}]


def test_suite_xi_entries_are_scalar_literals(tmp_path, capsys):
    write_entry(tmp_path, "truncated_polynomial", "p3.json", n=3)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"rows": [{
        "name": "xi with a fraction",
        "algebra": "p3.json",
        "construction": {"name": "xi_square_twist", "xi": ["1/2", 0, 0]},
        "conclusion_checks": ["hom_associative"],
    }]}))
    assert main(["suite", str(manifest)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "row 'xi with a fraction': PASS"


def test_construct_rejects_surplus_map_names(tmp_path, capsys):
    p3 = write_entry(tmp_path, "truncated_polynomial", "p3.json", n=3)
    out = tmp_path / "c.json"
    assert main(["construct", str(p3), "commutator_algebra", "ghost_map", "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["construct", str(p3), "power_twist", "alpha", "--n", "1"]) == 2
    assert main(["construct", str(p3), "yau_twist", "scale2", "sign"]) == 2
    assert main(["check", str(p3), "hom_novikov", "ghost_map"]) == 2
    assert "map name" in capsys.readouterr().err
    assert main(["construct", str(p3), "commutator_algebra", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["provenance"]["arguments"] == {}


def test_suite_rows_follow_the_same_map_rule(tmp_path):
    write_entry(tmp_path, "truncated_polynomial", "p3.json", n=3)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"rows": [{
        "name": "surplus map",
        "algebra": "p3.json",
        "construction": {"name": "commutator_algebra", "map": "ghost_map"},
    }]}))
    assert main(["suite", str(manifest)]) == 2


def test_removed_sampling_flags_are_rejected(tmp_path):
    p3 = write_entry(tmp_path, "truncated_polynomial", "p3.json", n=3)
    with pytest.raises(SystemExit) as exc:
        main(["check", str(p3), "hom_novikov", "--seed", "1"])
    assert exc.value.code == 2
