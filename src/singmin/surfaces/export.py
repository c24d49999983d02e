"""Serialization of grid tables, grid summaries and meshes.

All floats are written with 17 significant digits so outputs are
byte-deterministic for fixed inputs.  Every float table is written one
``ROW_BLOCK`` of rows at a time: the grid commands compute, format and
write one block of samples before the next, and a pull writer such as
``obj_mesh`` takes the first row of a block and returns that block's text,
``""`` past the last block, which ``blocks`` calls until then.
``format_rows`` formats each distinct value of a block's column once.  The
distinct values with ``1e-4 <= |x| < 1e17``, where ``%.17g`` writes fixed
notation, get their digits from exact uint64 arithmetic in numpy, all
columns in one batch; every other value gets CPython's ``%`` text.  Both
give the same bytes.
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

_POW5 = np.array([5**p for p in range(22)], dtype=np.uint64)
_LOW32 = np.uint64(2**32 - 1)
_ONE = np.uint64(1)
# digit j of a value's 17 (and slot j after it); the ``0.000`` lead before
# the digits of a value below 1, of which slot i is written for a decimal
# exponent up to ``_LEAD_UPTO[i]``
_DIGIT = np.arange(17, dtype=np.uint8)[:, None]
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_LEAD_UPTO = np.array([-1, -1, -2, -3, -4])[:, None]


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
    by a single join.  Each distinct value of a column is formatted once.
    Values are told apart by their bit pattern, not by float equality, so
    ``0.0`` and ``-0.0`` and NaNs of any sign or payload each keep the text
    ``fmt`` gives them.  The distinct values of all columns go to
    ``_fixed_rows`` as one batch, which writes the text of those in its
    range as byte rows; the rows lose their NUL slots and are split into
    cells.  Any other value is formatted by one ``%`` over a template that
    repeats the column's cell format, closed by a NUL to split the copies
    apart.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    grid = np.empty((len(columns[0]), len(columns)), dtype=object)
    ends = [sep] * (len(columns) - 1) + ["\n"]
    found = [np.unique(column.view(np.int64), return_inverse=True) for column in columns]
    values = np.concatenate([distinct for distinct, _ in found]).view(np.float64)
    rows, fixed = _fixed_rows(values)
    hi = 0
    for k, ((distinct, inverse), end) in enumerate(zip(found, ends)):
        lo, hi = hi, hi + len(distinct)
        head = prefix if k == 0 else ""
        text = rows[lo:hi].tobytes().translate(None, b"\0").decode()
        cells = np.array((head + text.replace("|", end + "\0" + head)).split("\0")[:-1],
                         dtype=object)
        slow = np.flatnonzero(~fixed[lo:hi])
        if len(slow):
            cells[slow] = _cells(values[lo:hi][slow], head, end)
        grid[:, k] = cells[inverse]
    return "".join(grid.ravel().tolist())


def _cells(values, head: str, end: str):
    """``head``, the ``fmt`` text of each value and ``end``, by one ``%``."""
    cell = head + FLOAT_SPEC + end + "\0"
    return np.array((cell * len(values) % tuple(values.tolist())).split("\0")[:-1], dtype=object)


def _fixed_rows(x):
    """The ``%.17g`` text of each value of ``x`` with ``1e-4 <= |x| < 1e17``
    as one 40-byte row of a ``(len(x), 40)`` uint8 array, and the mask of
    those values.

    Such a value is written in fixed notation with its 17 significant digits
    ``d0 d1 ... d16`` (``x`` rounded half to even), less the trailing zeros
    of its fraction.  Row slots: 0 the sign, 1-5 the ``0.000`` lead of a
    value below 1, ``6 + 2j`` digit j and ``7 + 2j`` the slot after it,
    which holds the point after the last integer digit, and 39 a ``|`` that
    ends the text.  A slot the text does not use is NUL, and so is every
    slot of the other rows but the last.
    """
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    idx = np.flatnonzero(fixed)
    bits = x[idx].view(np.uint64)
    # x = m * 2**e, and the digits are N = round(|x| * 10**p) for the p that
    # puts N in [10**16, 10**17); the decimal exponent is then 16 - p.  p from
    # log10 is at most one off, and one correction settles it: exactly, as
    # N's decade decides it
    m = bits & np.uint64(2**52 - 1) | np.uint64(2**52)
    e = (bits >> 52 & 0x7FF).astype(np.int64) - 1075
    p = np.clip(16 - np.floor(np.log10(a[idx])).astype(np.int64), 0, 21)
    n = _scaled(m, e, p)
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if len(off):
        p[off] += np.where(n[off] < 10**16, 1, -1)
        n[off] = _scaled(m[off], e[off], p[off])
    # no value leaves the range by rounding: 1e-4 is a double just above
    # 10**-4, and every double below 1e17 has at most 17 digits
    point = 16 - p  # the decimal exponent: the point follows digit ``point``
    # the digits, one array row per digit: N's two 8-digit halves, cut into
    # ever narrower integers, whose floor division by a constant is cheap
    top = n // 10**8
    d0 = top // 10**8
    halves = np.empty((2, len(n)), dtype=np.uint32)
    halves[0], halves[1] = top - d0 * 10**8, n - top * 10**8
    digits = np.empty((17, len(n)), dtype=np.uint8)
    digits[0] = d0
    digits[1:] = _cut(_cut(_cut(halves, 10**4, np.uint16), 100, np.uint8), 10, np.uint8)
    last = ((digits != 0) * _DIGIT).max(axis=0)  # the last nonzero digit
    body = np.zeros((40, len(n)), dtype=np.uint8)
    body[0] = (bits >> 63).astype(np.uint8) * ord("-")
    body[1:6] = (point <= _LEAD_UPTO) * _LEAD
    body[6:39:2] = (digits + ord("0")) * (_DIGIT <= np.maximum(last, point))
    body[7:39:2] = ((_DIGIT[:16] == point) & (last > point)) * np.uint8(ord("."))
    body[39] = ord("|")
    if len(n) == len(x):
        return body.T, fixed
    rows = np.zeros((len(x), 40), dtype=np.uint8)
    rows[:, 39] = ord("|")
    rows[idx] = body.T
    return rows, fixed


def _scaled(m, e, p):
    """``m * 5**p * 2**(e + p)`` rounded half to even, exactly, for uint64
    m below 2**53 and int64 e and p with p in [0, 21] and the result below
    2**64.

    ``m * 5**p`` is below 2**102: a two-limb product of 32-bit halves.  Its
    shift right is at most 46 bits, so the bits shifted out, against one
    half, and with them the tie, are exact.  (uint64 and int64 arrays never
    meet in one operation: numpy 1.x would promote them to float64.)
    """
    f = _POW5[p]
    mh, ml, fh, fl = m >> 32, m & _LOW32, f >> 32, f & _LOW32
    mid = mh * fl + ml * fh
    low = ml * fl
    lo = low + ((mid & _LOW32) << 32)
    hi = mh * fh + (mid >> 32) + (lo < low)
    shift = e + p
    right = np.maximum(-shift, 0).astype(np.uint64)
    # hi is 0 when nothing is shifted right
    n = (lo >> right | hi << np.minimum(64 - right, 63)) << np.maximum(shift, 0).astype(np.uint64)
    twice_rest = (lo & ((_ONE << right) - 1)) << 1
    unit = _ONE << right
    return n + ((twice_rest > unit) | (twice_rest == unit) & (n & 1 == 1))


def _cut(a, by: int, dtype):
    """The rows of ``a`` each split into its quotient and remainder by
    ``by``, in that order, as ``dtype``."""
    q = a // by
    out = np.empty((2 * len(a), a.shape[1]), dtype=dtype)
    out[0::2], out[1::2] = q, a - q * by
    return out


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
