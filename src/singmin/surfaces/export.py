"""Serialization of grid tables, grid summaries and meshes.

All floats are written with 17 significant digits so outputs are
byte-deterministic for fixed inputs.  Every float table is written one
``ROW_BLOCK`` of rows at a time: a table writer takes the first row of a
block and returns that block's text, ``""`` past the last block, and
``blocks`` calls it until then.  ``format_rows`` formats each distinct value
of a block's column once.
"""
from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterator

import numpy as np

# rows are formatted and written this many at a time, so no table's text is
# in memory whole: built whole, the CSV of a 600x600 residual grid raised the
# command's peak RSS from 139 to 270 MB (CPython 3.11)
ROW_BLOCK = 4096


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def blocks(render: Callable[[int], str]) -> Iterator[str]:
    """``render(0)``, ``render(ROW_BLOCK)``, ``render(2 * ROW_BLOCK)``, ... up
    to the first empty text."""
    for start in itertools.count(0, ROW_BLOCK):
        text = render(start)
        if not text:
            return
        yield text


def format_rows(columns, sep: str = ",", prefix: str = "") -> str:
    """Row k as ``prefix``, then the ``fmt`` text of cell k of each float
    column joined by ``sep``, then a newline.

    Each distinct value of a column is formatted once.  Values are told apart
    by their bit pattern, not by float equality, so ``0.0`` and ``-0.0`` and
    NaNs of any sign or payload each keep the text ``fmt`` gives them.
    """
    cells = []
    for column in columns:
        bits = np.asarray(column, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        text = np.array([fmt(x) for x in distinct.view(np.float64).tolist()], dtype=object)
        cells.append(text[inverse].tolist())
    return "".join([prefix + sep.join(row) + "\n" for row in zip(*cells)])


def table_csv(header, columns, start: int) -> str:
    """CSV of the float ``columns`` of the block of rows at ``start``, under
    the header line in the block at 0."""
    head = ",".join(header) + "\n" if start == 0 else ""
    return head + format_rows(columns)


def grid_csv(table: dict, start: int) -> str:
    """The block at row ``start`` of the CSV of a grid command's table, which
    maps each column name, in header order, to a 1-D float array."""
    rows = slice(start, start + ROW_BLOCK)
    return table_csv(table, [column[rows] for column in table.values()], start)


def grid_json(summary: dict) -> str:
    """A grid command's summary as sorted, indented JSON; each top-level float
    is written as its ``fmt`` text."""
    summary = {k: (fmt(v) if isinstance(v, float) else v) for k, v in summary.items()}
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def obj_mesh(name: str, vertices: np.ndarray, start: int) -> str:
    """The block at row ``start`` of the Wavefront OBJ of the ``(nu, nv, 3)``
    positions of a sample grid.

    Vertices in grid-major order (u rows, then v); each quad is split along
    the same diagonal into two triangles.  Rows count the vertices, then the
    quads, so a block may hold some of each.
    """
    nu, nv, _ = vertices.shape
    head = f"# {name} {nu}x{nv}\n" if start == 0 else ""
    flat = vertices.reshape(-1, 3)
    text = format_rows(flat[start:start + ROW_BLOCK].T, " ", "v ")
    # the block's first row counted among the quads; negative while the
    # block starts among the vertices
    first = start - len(flat)
    quads = np.arange(max(first, 0), min(first + ROW_BLOCK, (nu - 1) * (nv - 1)))
    # q is the 1-based id of vertex (i, j), the first corner of quad (i, j);
    # its other corners (i+1, j), (i+1, j+1), (i, j+1) follow from it
    corners = quads // (nv - 1) * nv + quads % (nv - 1) + 1
    faces = "".join([f"f {q} {q + nv} {q + nv + 1}\nf {q} {q + nv + 1} {q + 1}\n"
                     for q in corners.tolist()])
    return head + text + faces
