"""Serialization of grid reports, curvature tables and meshes.

All floats are written with 17 significant digits so outputs are
byte-deterministic for fixed inputs.  Every float table goes through
``format_columns``, which formats each distinct value of a column once.
"""
from __future__ import annotations

import json

import numpy as np

from .jets import CurvatureSample
from .patches import SurfacePatch
from .residual import GRID_CSV_COLUMNS, GridReport

CURVATURE_CSV_COLUMNS = ("u", "v", "E", "F", "G", "L", "M", "N", "H", "K", "k1", "k2")
# rows are assembled this many at a time: the cell lists of a whole 200x200
# grid at once add about 5 MB to peak memory
ROW_BLOCK = 4096


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def format_columns(table) -> list[np.ndarray]:
    """``fmt`` text of every cell of a 2-D float table, one object array per column.

    Each distinct value of a column is formatted once.  Values are told apart
    by their bit pattern, not by float equality, so ``0.0`` and ``-0.0`` and
    NaNs of any sign or payload each keep the text ``fmt`` gives them.
    """
    table = np.asarray(table, dtype=np.float64)
    columns = []
    for column in table.T:
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        text = np.array([fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
        columns.append(text[inverse])
    return columns


def format_rows(
    columns: list[np.ndarray], sep: str = ",", prefix: str = "", end: str = "\n"
) -> str:
    """Each row as ``prefix``, then its cells joined by ``sep``, then ``end``."""
    n = len(columns[0])
    blocks = []
    for start in range(0, n, ROW_BLOCK):
        rows = zip(*(c[start:start + ROW_BLOCK].tolist() for c in columns))
        blocks.append("".join([prefix + sep.join(row) + end for row in rows]))
    return "".join(blocks)


def table_csv(header, columns: list[np.ndarray]) -> str:
    """CSV of ``format_columns`` text under a header line."""
    return ",".join(header) + "\n" + format_rows(columns)


def grid_csv(report: GridReport) -> str:
    return table_csv(GRID_CSV_COLUMNS, format_columns(report.samples))


def curvature_csv(u, v, sample: CurvatureSample) -> str:
    """Per-sample fundamental forms and curvatures in ``CURVATURE_CSV_COLUMNS``."""
    cells = [u, v] + [getattr(sample, name) for name in CURVATURE_CSV_COLUMNS[2:]]
    return table_csv(CURVATURE_CSV_COLUMNS, format_columns(np.column_stack(cells)))


def summary_json(doc: dict) -> str:
    """A summary document as sorted, indented JSON; each top-level float is
    written as its ``fmt`` text."""
    doc = {k: (fmt(v) if isinstance(v, float) else v) for k, v in doc.items()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def grid_json(report: GridReport) -> str:
    return summary_json(report.to_dict())


def obj_mesh(patch: SurfacePatch, nu: int, nv: int) -> str:
    """Wavefront OBJ of a (nu x nv) sample grid.

    Vertices in grid-major order (u rows, then v); each quad is split along
    the same diagonal into two triangles.
    """
    vertices = patch.position(*patch.grid(nu, nv))
    lines = [f"# {patch.name} {nu}x{nv}\n", format_rows(format_columns(vertices), " ", "v ")]
    # q is the 1-based id of vertex (i, j), the first corner of quad (i, j);
    # its other corners (i+1, j), (i+1, j+1), (i, j+1) follow from it
    corners = np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1) + 1
    for q in corners.ravel().tolist():
        lines.append(f"f {q} {q + nv} {q + nv + 1}\nf {q} {q + nv + 1} {q + 1}\n")
    return "".join(lines)
