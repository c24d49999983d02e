"""Which path the table writer takes on three fixed blocks, and what each costs.

    python tests/writer_cost.py

prints, for one 4,096-row block each of a 200x200 sphere ``residual``, a
``catenary`` trajectory and a 100x100 ``curvature`` grid: the block's
distinct values (over all its columns, each column deduplicated by bit
pattern), how many of them lie in the range ``1e-4 <= |x| < 1e17`` that
``format_rows`` formats by its exact numpy path, and the median wall time of
the block's writer in milliseconds.  ``writer_cost`` returns the same
numbers as a dict.
"""
from __future__ import annotations

import statistics
import time

from singmin.catenary import CatenaryParams, CatenaryState, integrate, trajectory_csv
from singmin.surfaces import curvature_report, export, grid_csv, grid_report, sphere_patch


def _first_block(report, *args) -> dict:
    """The table of a grid report's first row block."""
    tables = []
    report(*args, lambda table, start: tables.append(table) if start == 0 else None)
    return tables[0]


def blocks() -> dict:
    """Each block's writer, a function of no arguments that returns its text."""
    sphere = _first_block(grid_report, sphere_patch(), -2.0, (0.0, 0.0, 1.0), 200, 200)
    curvature = _first_block(curvature_report, sphere_patch(), 100, 100, 1e-3)
    traj = integrate(CatenaryState(s=0.0, x=0.0, y=1.0, theta=0.0),
                     CatenaryParams(alpha=1.0, step=1e-3, smax=10.0))
    return {
        "residual sphere 200x200": lambda: grid_csv(sphere, 0),
        "catenary": lambda: trajectory_csv(traj, 0),
        "curvature sphere 100x100": lambda: grid_csv(curvature, 0),
    }


def writer_cost(repeat: int = 21) -> dict:
    """``{block: {"distinct", "numpy", "ms"}}`` for the three blocks."""
    fixed_rows = export._fixed_rows
    seen = {}

    def counted(values):
        rows, fixed = fixed_rows(values)
        seen.update(distinct=len(values), numpy=int(fixed.sum()))
        return rows, fixed

    cost = {}
    for name, write in blocks().items():
        export._fixed_rows = counted
        try:
            write()
        finally:
            export._fixed_rows = fixed_rows
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            write()
            times.append(time.perf_counter() - start)
        cost[name] = {**seen, "ms": statistics.median(times) * 1e3}
    return cost


if __name__ == "__main__":
    print("| block | distinct values | on the numpy path | ms per block |")
    print("|---|---|---|---|")
    for name, c in writer_cost().items():
        print(f"| {name} | {c['distinct']} | {c['numpy']} | {c['ms']:.2f} |")
