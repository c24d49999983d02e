"""The names the benchmark under ``perfbench/`` reaches into the package by.

The traced benchmark wraps every ``tracer.TARGETS`` entry, and ``child.py``
imports a fixed set of names.  A renamed function would only show up as
``# not traced`` (or an import error) in a benchmark run; here it fails the
suite instead.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import singmin.cli  # noqa: F401  (imports every layer the tracer patches)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


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
