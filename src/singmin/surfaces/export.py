"""Serialization of grid tables, grid summaries and meshes.

All floats are written with 17 significant digits so outputs are
byte-deterministic for fixed inputs.  Every float table is written one
``ROW_BLOCK`` of rows at a time: the grid commands compute, format and
write one block of samples before the next, and a pull writer such as
``obj_mesh`` takes the first row of a block and returns that block's text,
``""`` past the last block, which ``blocks`` calls until then.
``format_rows`` formats each distinct value of a block's column once.
"""
from __future__ import annotations

import itertools
import json
from collections.abc import Callable, Iterator

import numpy as np

# samples are evaluated, formatted and written this many at a time, so no
# grid command holds a whole-grid table or text: built whole, the CSV of a
# 600x600 residual grid raised the command's peak RSS from 139 to 270 MB
# (CPython 3.11)
ROW_BLOCK = 4096

#: the one float format: 17 significant digits, enough for every float64 to
#: read back to the same bits
FLOAT_SPEC = "%.17g"


def fmt(x: float) -> str:
    return FLOAT_SPEC % float(x)


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

    The rows are one object grid whose cells each end in their separator or
    the newline (the first cell also starts with ``prefix``), made into text
    by a single join.  Each distinct value of a column is formatted once: one
    ``%`` fills a template that repeats the column's cell format, closed by
    a NUL to split the copies apart.  Values are told apart by their bit
    pattern, not by float equality, so ``0.0`` and ``-0.0`` and NaNs of any
    sign or payload each keep the text ``fmt`` gives them.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    grid = np.empty((len(columns[0]), len(columns)), dtype=object)
    ends = [sep] * (len(columns) - 1) + ["\n"]
    for k, (column, end) in enumerate(zip(columns, ends)):
        distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
        values = distinct.view(np.float64).tolist()
        cell = (prefix if k == 0 else "") + FLOAT_SPEC + end + "\0"
        text = (cell * len(values) % tuple(values)).split("\0")
        grid[:, k] = np.array(text[:-1], dtype=object)[inverse]
    return "".join(grid.ravel().tolist())


def table_csv(header, columns, start: int) -> str:
    """CSV of the float ``columns`` of the block of rows at ``start``, under
    the header line in the block at 0."""
    head = ",".join(header) + "\n" if start == 0 else ""
    return head + format_rows(columns)


def grid_csv(table: dict, start: int) -> str:
    """The CSV text of one row block of a grid command's table, which maps
    each column name, in header order, to a 1-D float array over the block's
    valid samples; the header line comes with the block of grid sample 0,
    ``start``."""
    return table_csv(table, list(table.values()), start)


def grid_json(summary: dict) -> str:
    """A grid command's summary as sorted, indented JSON; each top-level float
    is written as its ``fmt`` text."""
    summary = {k: (fmt(v) if isinstance(v, float) else v) for k, v in summary.items()}
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def obj_mesh(patch, nu: int, nv: int, start: int) -> str:
    """The block at row ``start`` of the Wavefront OBJ of the positions of a
    patch's (nu x nv) sample grid.

    Vertices in grid-major order (u rows, then v); each quad is split along
    the same diagonal into two triangles.  Rows count the vertices, then the
    quads, so a block may hold some of each.
    """
    head = f"# {patch.name} {nu}x{nv}\n" if start == 0 else ""
    vertices = nu * nv
    text = ""
    if start < vertices:
        points = patch.position(*patch.grid(nu, nv, start, start + ROW_BLOCK))
        text = format_rows(points.T, " ", "v ")
    # the block's first row counted among the quads; negative while the
    # block starts among the vertices
    first = start - vertices
    quads = np.arange(max(first, 0), min(first + ROW_BLOCK, (nu - 1) * (nv - 1)))
    # q is the 1-based id of vertex (i, j), the first corner of quad (i, j);
    # its other corners (i+1, j), (i+1, j+1), (i, j+1) follow from it
    q = quads // (nv - 1) * nv + quads % (nv - 1) + 1
    faces = np.column_stack([q, q + nv, q + nv + 1, q, q + nv + 1, q + 1]).ravel().tolist()
    return head + text + "f %d %d %d\nf %d %d %d\n" * len(q) % tuple(faces)
