"""Every name the traced benchmark pass wraps stays in its own module's dict.

benchmarks/tracing.py wraps each (module, name) of its TARGETS where the
module's dict holds it, so a name moved behind a module __getattr__ must be
stored in the dict once read, and the kernel, grading and document names,
which the tracer reads first, must be there right after a bare import of
their module.  A move that breaks the traced pass fails here in seconds,
not in the benchmark's own tests.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import colorhom

SRC = Path(colorhom.__file__).resolve().parents[1]
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
ENV = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}

_spec = importlib.util.spec_from_file_location("tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_is_in_its_module_dict_once_read():
    for module, name, _ in tracing.TARGETS:
        getattr(module, name)
        assert name in vars(module), (module.__name__, name)


def test_the_kernel_grading_and_document_names_are_there_after_a_bare_import(tmp_path):
    names = {}
    for module, name, _ in tracing.TARGETS:
        if module.__name__ in ("colorhom.core", "colorhom.grading", "colorhom.io"):
            names.setdefault(module.__name__, []).append(name)
    assert set(names) == {"colorhom.core", "colorhom.grading", "colorhom.io"}
    probe = (
        "import importlib, json, sys\n"
        "names = json.loads(sys.argv[1])\n"
        "print(json.dumps({m: [n for n in ns if n not in vars(importlib.import_module(m))] for m, ns in names.items()}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(names)], cwd=tmp_path, capture_output=True, text=True,
        env=ENV, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {m: [] for m in names}
