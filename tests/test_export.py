"""Table writers: every output equals the one built cell by cell with ``fmt``."""
import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from singmin.catenary import (
    TERM_SMAX,
    TERM_YMIN,
    TRAJECTORY_CSV_COLUMNS,
    CatenaryParams,
    CatenaryState,
    first_integral,
    integrate,
    load_trajectory_json,
    to_extrusion,
    trajectory_blocks,
)
from singmin.surfaces import (
    curvature_report,
    curvature_sample,
    cylinder_patch,
    grid_csv,
    grid_report,
    obj_mesh,
    sphere_patch,
)
from singmin.surfaces.export import (
    FLOAT_SPEC,
    ROW_BLOCK,
    blocks,
    fmt,
    format_rows,
    table_csv,
)

from conftest import collect
from writer_cost import writer_cost

SPECIAL = np.array(
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0]
).view(np.uint64).tolist() + [
    0x7FF0000000000001,  # signalling NaN
    0x7FF8000000000ABC,  # quiet NaN with a payload
    0xFFF00000DEADBEEF,  # negative NaN with a payload
]
BITS = st.sampled_from(SPECIAL) | st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def small_tables(draw):
    """Float tables whose cells repeat a few values, built from raw bit patterns."""
    rows = draw(st.integers(min_value=0, max_value=40))
    cols = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(BITS, min_size=1, max_size=6))
    cells = draw(st.lists(st.sampled_from(pool) | BITS, min_size=rows * cols,
                          max_size=rows * cols))
    return np.array(cells, dtype=np.uint64).view(np.float64).reshape(rows, cols)


@st.composite
def large_tables(draw):
    """Float tables of thousands of values, most in the range that
    ``format_rows`` formats by its numpy path, from a drawn seed:
    magnitudes log-uniform over [1e-5, 1e18] (that range and a decade past
    each end) of either sign, some rounded to a few decimals, some integers
    times a power of two (short texts and exact ties), some raw bit
    patterns, some cells repeating others, some a few ulps from a power of
    ten (where the first guess of the decimal exponent can be one off), and
    a few drawn bit patterns."""
    rows = draw(st.integers(min_value=2000, max_value=3000))
    cols = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    size = rows * cols
    x = 10.0 ** rng.uniform(-5.0, 18.0, size) * rng.choice([-1.0, 1.0], size)
    kind = rng.integers(0, 10, size)
    x = np.select([kind == 0, kind == 1, kind == 2, kind == 3], [
        np.round(x, rng.integers(0, 8)),
        np.ldexp(rng.integers(-2**53, 2**53, size).astype(float), rng.integers(-75, 10, size)),
        rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64),
        10.0 ** rng.integers(-5, 19, size) * (1.0 + rng.integers(-4, 5, size) * 2.0**-53),
    ], x)
    x[kind == 4] = x[rng.integers(0, size, np.count_nonzero(kind == 4))]
    drawn = draw(st.lists(BITS, max_size=8))
    x[rng.integers(0, size, len(drawn))] = np.array(drawn, dtype=np.uint64).view(np.float64)
    return x.reshape(rows, cols)


def tables():
    return small_tables() | large_tables()


def cell_by_cell(table) -> list[list[str]]:
    return [[fmt(x) for x in row] for row in table.tolist()]


def lines(rows, sep=",", prefix="") -> str:
    return "".join(prefix + sep.join(row) + "\n" for row in rows)


def whole(writer, *args) -> str:
    """Every block a table writer makes, joined."""
    return "".join(blocks(lambda start: writer(*args, start)))


@given(BITS)
@settings(max_examples=500, deadline=None)
def test_float_spec_matches_the_format_spec(bits):
    # format_rows applies FLOAT_SPEC with %, which must give the bytes of the
    # format spec the writers used before
    x = float(np.array([bits], dtype=np.uint64).view(np.float64)[0])
    assert FLOAT_SPEC % x == f"{x:.17g}"


@given(tables())
@settings(max_examples=200, deadline=None)
def test_format_rows_matches_fmt_per_cell(table):
    assert format_rows(table.T, " ", "v ") == lines(cell_by_cell(table), " ", "v ")


def decade_neighbours() -> list[float]:
    """10**k for k in -6..18 and the four doubles on either side of it.

    In [1e-4, 1e17) a log10 of these is where the first guess of the
    decimal exponent is one off, which the decade check corrects.  (No
    double there rounds to 17 digits across a power of ten: none lies
    within half a 17th digit below one.)"""
    out = []
    for k in range(-6, 19):
        power = float(f"1e{k}")
        below = above = power
        out.append(power)
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            out += [float(below), float(above)]
    return out


def exact_ties() -> list[float]:
    """Doubles whose exact decimal has 18 significant digits, the last a 5,
    so that ``%.17g`` rounds a tie: odd k over 2**n with k * 5**n in
    [10**17, 10**18) and k below 2**53, the first and last two such k for
    every n that puts k / 2**n in [1e-4, 1e17).  Two odd k in a row differ
    in the parity of their 17th digit."""
    out = []
    for n in range(2, 22):
        lo, hi = -(-10**17 // 5**n), min(-(-10**18 // 5**n), 2**53)
        out += [k / 2**n for k in (*range(lo, lo + 4), *range(hi - 4, hi)) if k % 2]
    return out


EDGES = np.array(decade_neighbours() + exact_ties() + [
    float(np.nextafter(1e17, 0.0)),  # the largest double below 1e17
    2.0**-14, 2.0**53 - 1, 2.0**53 + 2, 0.5, 0.125, 3.0 / 2**13, 7.0 / 2**20,
])
ADVERSARIAL = np.concatenate([EDGES, -EDGES, np.array(SPECIAL, dtype=np.uint64).view(np.float64)])


def test_format_rows_matches_fmt_on_adversarial_values():
    table = np.column_stack([ADVERSARIAL, ADVERSARIAL[::-1]])
    assert format_rows(table.T) == lines(cell_by_cell(table))


@pytest.mark.parametrize("table", [
    np.empty((0, 2)),
    np.array([[3.25]]),
    # no value in the numpy path's range
    np.array([[0.0, -0.0, 1e-300, np.nan, np.inf, 1e20]]).T,
    np.array([[0.1, -7e-5]]),
], ids=["empty", "one-value-in-range", "none-in-range", "one-row-two-columns"])
def test_format_rows_matches_fmt_on_boundary_tables(table):
    assert format_rows(table.T) == lines(cell_by_cell(table))


def test_writer_path_per_block():
    # each block's values in the numpy path's range take it, whatever the block's size
    cost = writer_cost(repeat=1)
    assert {name: (c["distinct"], c["numpy"]) for name, c in cost.items()} == {
        "residual sphere 200x200": (8070, 8037),
        "catenary": (16657, 16657),
        "curvature sphere 100x100": (600, 541),
    }


def test_rows_across_blocks():
    table = np.arange(2 * (2 * ROW_BLOCK + 3), dtype=float).reshape(-1, 2) / 7.0
    texts = list(blocks(lambda start: table_csv(("a", "b"), table[start:start + ROW_BLOCK].T,
                                                start)))
    assert [t.count("\n") for t in texts] == [ROW_BLOCK + 1, ROW_BLOCK, 3]
    assert "".join(texts) == "a,b\n" + lines(cell_by_cell(table))


def test_zero_row_table_is_header_only():
    assert table_csv(("a", "b"), np.empty((0, 2)).T, 0) == "a,b\n"


def reference_obj(patch, nu, nv) -> str:
    out = [f"# {patch.name} {nu}x{nv}"]
    for p in patch.position(*patch.grid(nu, nv, 0, nu * nv)).tolist():
        out.append(f"v {fmt(p[0])} {fmt(p[1])} {fmt(p[2])}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            q = i * nv + j + 1
            out.append(f"f {q} {q + nv} {q + nv + 1}")
            out.append(f"f {q} {q + nv + 1} {q + 1}")
    return "\n".join(out) + "\n"


def trajectory(alpha, y0, smax, step=1e-2):
    return integrate(
        CatenaryState(s=0.0, x=0.0, y=y0, theta=0.0),
        CatenaryParams(alpha=alpha, step=step, smax=smax),
    )


SURFACES = {
    "sphere": (lambda: sphere_patch(r=1.3, center=(0.2, -0.1, 0.0)), -2.0),
    "cylinder": (lambda: cylinder_patch(r=0.8, axis=(0.6, 0.8, 0.0), center=(0.0, 0.0, 0.3)),
                 -1.0),
    "extrusion-smax": (lambda: to_extrusion(trajectory(1.0, 1.0, 1.0)), 1.0),
    "extrusion-ymin": (lambda: to_extrusion(trajectory(-1.5, 0.7, 10.0)), -1.5),
}


@pytest.mark.parametrize("name", list(SURFACES))
def test_surface_writers_match_cell_by_cell(name):
    make, alpha = SURFACES[name]
    patch = make()
    nu, nv = 13, 7
    summary, table = collect(grid_report, patch, alpha, (0.0, 0.0, 1.0), nu, nv)
    assert summary["valid_samples"] == nu * nv
    assert grid_csv(table, 0) == "u,v,x,y,z,H,K,k1,k2,residual\n" + lines(
        cell_by_cell(np.column_stack(list(table.values())))
    )
    assert whole(obj_mesh, patch, nu, nv) == reference_obj(patch, nu, nv)
    u, v = patch.grid(nu, nv, 0, nu * nv)
    s = curvature_sample(patch.jet(u, v))
    columns = ("E", "F", "G", "L", "M", "N", "H", "K", "k1", "k2")
    rows = [
        [fmt(x) for x in row]
        for row in zip(u.tolist(), v.tolist(), *(getattr(s, c).tolist() for c in columns))
    ]
    _, table = collect(curvature_report, patch, nu, nv, 1e-3)
    assert grid_csv(table, 0) == "u,v," + ",".join(columns) + "\n" + lines(rows)


def test_obj_mesh_across_blocks():
    # 4,900 vertices and 4,761 quads: the second block holds the last
    # vertices and the first quads
    patch = sphere_patch()
    nu = nv = 70
    texts = list(blocks(lambda start: obj_mesh(patch, nu, nv, start)))
    assert len(texts) == 3 and texts[1].startswith("v ") and "\nf " in texts[1]
    assert "".join(texts) == reference_obj(patch, nu, nv)


@pytest.mark.parametrize(
    "alpha,y0,smax,step,termination,n_states",
    [
        (1.0, 1.0, 1.0, 1e-2, TERM_SMAX, 201),
        (-1.5, 0.7, 10.0, 1e-2, TERM_YMIN, 197),
        (1.0, 1.0, 3.0, 1e-3, TERM_SMAX, 6001),  # more than one ROW_BLOCK
        (1.0, 1.0, 2.048, 1e-3, TERM_SMAX, ROW_BLOCK + 1),  # the last block holds one row
    ],
    ids=["1.0-1.0-1.0-reached-smax", "-1.5-0.7-10.0-hit-y-min", "rows-past-a-block",
         "one-row-last-block"],
)
def test_trajectory_writers_match_cell_by_cell(alpha, y0, smax, step, termination, n_states):
    traj = trajectory(alpha, y0, smax, step)
    assert traj.termination == termination
    assert len(traj.states) == n_states
    rows = [
        [fmt(v) for v in (s, x, y, theta, first_integral(y, theta, alpha))]
        for s, x, y, theta in traj.states.tolist()
    ]
    texts = list(trajectory_blocks(traj))
    assert "".join(csv for csv, _ in texts) == ",".join(TRAJECTORY_CSV_COLUMNS) + "\n" + lines(rows)
    doc = {
        "schema_version": 1,
        "alpha": fmt(alpha),
        "step": fmt(traj.step),
        "termination": traj.termination,
        "columns": list(TRAJECTORY_CSV_COLUMNS),
        "points": rows,
    }
    assert "".join(doc for _, doc in texts) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("alpha,y0,smax", [(1.3, 1.0, 2.0), (-1.5, 0.7, 10.0)])
def test_trajectory_json_reads_back_every_bit(tmp_path, alpha, y0, smax):
    traj = trajectory(alpha, y0, smax, 1e-3)
    path = tmp_path / "t.json"
    path.write_text("".join(doc for _, doc in trajectory_blocks(traj)))
    back = load_trajectory_json(path)
    assert back.states.view(np.int64).tolist() == traj.states.view(np.int64).tolist()
    assert (back.alpha, back.step, back.termination) == (alpha, traj.step, traj.termination)
    assert back.states.flags.c_contiguous and not back.states.flags.writeable
