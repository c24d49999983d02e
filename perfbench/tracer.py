"""Span tracer for the traced benchmark run.

Wraps the public functions of each singmin layer from outside the package:
every module attribute, class attribute or module-level dict entry through
which the package reaches a named function is replaced by one wrapper, so a
call is recorded however it is reached (``curvature_sample`` is bound in both
``surfaces.residual`` and ``cli``; ``poly_gcd`` in both ``exact.poly`` and
``exact.ratexpr``).  Spans stay in memory as ``[name, start, end, parent,
extra]`` and are written out once, after the operation.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute path, what to record from the result)
TARGETS = (
    ("exact.poly_gcd", "singmin.exact.poly", "poly_gcd", "trivial"),
    ("exact.content", "singmin.exact.poly", "content", None),
    ("exact.exact_div", "singmin.exact.poly", "exact_div", None),
    ("exact.poly_mul", "singmin.exact.poly", "Polynomial.__mul__", None),
    ("exact.normalize", "singmin.exact.ratexpr", "RationalExpr.__init__", None),
    ("exact.render", "singmin.exact.textio", "render", None),
    ("proofs.apply_derivation", "singmin.proofs.context", "apply_derivation", None),
    ("proofs.targets", "singmin.proofs.theorem1", "targets", None),
    ("proofs.targets", "singmin.proofs.theorem2", "targets", None),
    ("proofs.theorem1", "singmin.proofs.theorem1", "run_theorem1", "checkpoints"),
    ("proofs.theorem2", "singmin.proofs.theorem2", "run_theorem2", "checkpoints"),
    ("proofs.theorem3", "singmin.proofs.theorem3", "run_theorem3", "checkpoints"),
    ("proofs.report_json", "singmin.proofs.report", "reports_to_json", None),
    ("surfaces.jet", "singmin.surfaces.patches", "SurfacePatch.jet", None),
    ("surfaces.curvature", "singmin.surfaces.jets", "curvature_sample", None),
    ("surfaces.grid_report", "singmin.surfaces.residual", "grid_report", None),
    ("surfaces.fd_oracle", "singmin.surfaces.fd", "fd_jet_oracle", None),
    ("surfaces.export", "singmin.surfaces.export", "grid_csv", "bytes"),
    ("surfaces.export", "singmin.surfaces.export", "grid_json", "bytes"),
    ("surfaces.export", "singmin.surfaces.export", "obj_mesh", "bytes"),
    ("catenary.integrate", "singmin.catenary.ode", "integrate", "steps"),
    ("catenary.export", "singmin.catenary.export", "trajectory_csv", "bytes"),
    ("catenary.export", "singmin.catenary.export", "trajectory_json", "bytes"),
    ("catenary.dense_state", "singmin.catenary.extrude", "dense_state", None),
    ("cli", "singmin.cli", "main", None),
)


def _extra(kind, result):
    if kind == "trivial":
        return int(result.is_constant())
    if kind == "checkpoints":
        return len(result.checkpoints)
    if kind == "bytes":
        return len(result.encode())
    if kind == "steps":
        return len(result.states) - 1
    return None


class Tracer:
    """Records nested spans; ``install`` patches the package in place."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, kind):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if kind is not None:
                span[4] = _extra(kind, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target inside the singmin package."""
        for name, module_name, attr, kind in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, kind)
            if owner_name:
                _rebind(vars(owner), owner, original, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "singmin" or mod_name.startswith("singmin."):
                        _rebind(vars(mod), mod, original, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def _rebind(namespace: dict, owner, original, wrapper) -> None:
    for key, value in list(namespace.items()):
        if value is original:
            setattr(owner, key, wrapper)
        elif isinstance(value, dict) and not key.startswith("__"):
            for k, v in list(value.items()):
                if v is original:
                    value[k] = wrapper


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed extras.

    Self time is a span's duration minus the time its direct child spans
    cover; children never overlap because one thread records them.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, name):
            agg["s"] += end - start
        if extra is not None:
            agg["extra"] += extra
    return out


def _has_ancestor(spans: list[list], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
