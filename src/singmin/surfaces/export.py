"""Serialization of grid reports and meshes.

All floats are written with 17 significant digits so outputs are
byte-deterministic for fixed inputs.
"""
from __future__ import annotations

import json

import numpy as np

from .patches import SurfacePatch
from .residual import GRID_CSV_COLUMNS, GridReport


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def grid_csv(report: GridReport) -> str:
    lines = [",".join(GRID_CSV_COLUMNS)]
    for row in report.samples.tolist():
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def grid_json(report: GridReport) -> str:
    doc = report.to_dict()
    doc_fmt = {k: (fmt(v) if isinstance(v, float) else v) for k, v in doc.items()}
    return json.dumps(doc_fmt, indent=2, sort_keys=True) + "\n"


def obj_mesh(patch: SurfacePatch, nu: int, nv: int) -> str:
    """Wavefront OBJ of a (nu x nv) sample grid.

    Vertices in grid-major order (u rows, then v); each quad is split along
    the same diagonal into two triangles.
    """
    lines = [f"# {patch.name} {nu}x{nv}"]
    for p in patch.position(*patch.grid(nu, nv)).tolist():
        lines.append(f"v {fmt(p[0])} {fmt(p[1])} {fmt(p[2])}")
    # q is the 1-based id of vertex (i, j), the first corner of quad (i, j);
    # its other corners (i+1, j), (i+1, j+1), (i, j+1) follow from it
    corners = np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1) + 1
    for q in corners.ravel().tolist():
        lines.append(f"f {q} {q + nv} {q + nv + 1}")
        lines.append(f"f {q} {q + nv + 1} {q + 1}")
    return "\n".join(lines) + "\n"
