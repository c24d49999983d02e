"""The names the benchmark under ``perfbench/`` reaches into the package by.

The traced benchmark wraps every ``tracer.TARGETS`` entry, and ``child.py``
imports a fixed set of names.  A renamed function would only show up as
``# not traced`` (or an import error) in a benchmark run; here it fails the
suite instead.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import singmin.cli  # noqa: F401  (imports every layer the tracer patches)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
TARGETS = TRACER.TARGETS


@pytest.mark.parametrize("span,module_name,attr,kind", TARGETS,
                         ids=[f"{m}.{a}" for _, m, a, _ in TARGETS])
def test_tracer_target_resolves(span, module_name, attr, kind):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize(
    "module_name,names",
    [
        ("singmin.proofs",
         ["MUTABLE_RULES", "OP_E1", "OP_E2", "run_theorem1", "run_theorem2", "run_theorem3"]),
        ("singmin.exact", ["Var"]),
        ("singmin.cli", ["build_parser", "main"]),
    ],
)
def test_child_imports_exist(module_name, names):
    module = importlib.import_module(module_name)
    assert [n for n in names if not hasattr(module, n)] == []


@pytest.mark.parametrize("argv", [
    ["residual", "--patch", "sphere", "--alpha", "-2", "--nu", "5", "--nv", "5"],
    ["curvature", "--patch", "cylinder", "--nu", "5", "--nv", "5"],
    ["extrude", "--alpha", "1", "--smax", "0.5", "--nu", "6", "--nv", "3"],
], ids=lambda argv: argv[0])
def test_traced_writers_cover_every_byte(tmp_path, argv):
    # every byte a grid command writes goes through a traced writer, so
    # surfaces.export.bytes measures the whole of its output
    spec = {"kind": "cli", "argv": [*argv, "--out", str(tmp_path / "out" / "g")],
            "trace": True, "spans": str(tmp_path / "spans.json"),
            "result": str(tmp_path / "result.json")}
    subprocess.run([sys.executable, str(PERFBENCH / "child.py"), json.dumps(spec)],
                   cwd=tmp_path, check=True, capture_output=True)
    result = json.loads((tmp_path / "result.json").read_text())
    assert (result["error"], result["exit_code"]) == (None, 0)
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["missing"] == []
    written = sum(path.stat().st_size for path in (tmp_path / "out").iterdir())
    assert TRACER.aggregate(spans["spans"])["surfaces.export"]["extra"] == written
