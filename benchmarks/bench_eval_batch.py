"""Batched vs per-cell evaluation benchmark (the makespan hot path).

Profiling (PR 1) showed PathApprox evaluation is ~95% of per-cell sweep
cost.  This benchmark isolates the batched evaluation core's win: the
same grid is run through :func:`repro.engine.run_sweep` twice — once
through the per-cell oracle (``Pipeline.evaluate_cell`` per cell: one
evaluator call per cell, 2-state laws rebuilt per path occurrence) and
once through the batched path (one dispatch per strategy and structure
group).  Records are asserted
bit-identical; the machine-readable summary lands in
``BENCH_eval.json`` at the repo root with ``cells_per_s`` / ``wall_s``
/ ``speedup`` keys per grid and overall, plus the dispatch telemetry
(``dispatches``, ``pool_width_mean``).

Grids: the 84-cell MONTAGE grid of ``bench_sweep_engine.py`` and a
40-cell GENOME-50 grid.  Each timed column (per-cell, batched, native
off) is the median of :data:`REPEATS` interleaved runs, with its first
and third quartiles beside it (``<column>_q1`` / ``<column>_q3``).
``REPRO_BENCH_SMOKE=1`` shrinks both grids to a few cells and one
repeat (the CI bench-smoke job uses this to validate the JSON shape
without paying the full wall time).  Run directly::

    PYTHONPATH=src:. python benchmarks/bench_eval_batch.py
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.engine import CellResult, SweepSpec, run_sweep
from repro.experiments.figures import log_grid
from repro.makespan import native as native_kernels
from repro.makespan import profile as kernel_profile

from benchmarks.conftest import per_cell_sweep, save_artifact, save_json

#: Tiny grids for the CI smoke job (JSON shape, not timings).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Timed runs per column; each figure is their median.
REPEATS = 1 if SMOKE else 5


def montage_spec() -> SweepSpec:
    return SweepSpec(
        family="montage",
        sizes=(50,),
        processors={50: (3,) if SMOKE else (3, 5, 7, 10)},
        pfails=(0.01,) if SMOKE else (0.01, 0.001, 0.0001),
        ccrs=log_grid(1e-3, 1e0, 3 if SMOKE else 7),
        seed=2017,
        seed_policy="stable",
        name="bench-eval-montage",
    )


def genome_spec() -> SweepSpec:
    return SweepSpec(
        family="genome",
        sizes=(50,),
        processors={50: (5,) if SMOKE else (5, 10)},
        pfails=(0.01,) if SMOKE else (0.01, 0.001),
        ccrs=log_grid(1e-3, 1e0, 3 if SMOKE else 10),
        seed=2017,
        seed_policy="stable",
        name="bench-eval-genome",
    )


def _timed(fn: Callable[[], List[CellResult]], walls: List[float]):
    """Run ``fn`` once, appending its wall time to ``walls``."""
    t0 = time.perf_counter()
    out = fn()
    walls.append(time.perf_counter() - t0)
    return out


def _median_quartiles(walls: List[float]) -> Tuple[float, float, float]:
    if len(walls) == 1:
        return walls[0], walls[0], walls[0]
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return median, q1, q3


def _no_native_sweep(spec: SweepSpec) -> List[CellResult]:
    was_enabled = native_kernels.enabled()
    native_kernels.set_enabled(False)
    try:
        return run_sweep(spec, jobs=1)
    finally:
        native_kernels.set_enabled(was_enabled)


def run_grid(spec: SweepSpec) -> Tuple[Dict[str, float], List[CellResult]]:
    """Time per-cell vs batched evaluation of one grid.

    Both paths are asserted bit-identical; the timed default is the
    batched path with whatever kernel backend is live (native when a
    compiler is present).  A third timed column re-runs the batched path
    with the native kernels disabled, so the artifact carries the
    native-vs-python column with parity asserted.  The three columns run
    in turn, :data:`REPEATS` times, so drift in the machine's speed
    spreads over all of them.  A separate (untimed)
    profiled pass collects the dispatch telemetry — dispatch count,
    mean cells per fold replay pass, native-vs-fallback rows — so the JSON
    artifact pins the dispatch shape, not just the wall time.
    """
    walls: Dict[str, List[float]] = {
        "per_cell_wall_s": [], "wall_s": [], "no_native_wall_s": []
    }
    for _ in range(REPEATS):
        per_cell = _timed(lambda: per_cell_sweep(spec), walls["per_cell_wall_s"])
        batched = _timed(lambda: run_sweep(spec, jobs=1), walls["wall_s"])
        no_native = _timed(lambda: _no_native_sweep(spec), walls["no_native_wall_s"])
        assert batched == per_cell, (
            f"{spec.name}: batched records diverge from the per-cell path"
        )
        assert no_native == per_cell, (
            f"{spec.name}: native-disabled records diverge from the "
            "per-cell path"
        )
    prof = kernel_profile.enable()
    try:
        run_sweep(spec, jobs=1)
        snap = prof.snapshot()
    finally:
        kernel_profile.disable()
    cells = len(batched)
    stats: Dict[str, float] = {"cells": cells, "repeats": REPEATS}
    for column, samples in walls.items():
        median, q1, q3 = _median_quartiles(samples)
        stats[column] = median
        stats[f"{column}_q1"] = q1
        stats[f"{column}_q3"] = q3
    wall_batched = stats["wall_s"]
    wall_per_cell = stats["per_cell_wall_s"]
    wall_no_native = stats["no_native_wall_s"]
    stats.update(
        {
            "cells_per_s": cells / wall_batched,
            "per_cell_cells_per_s": cells / wall_per_cell,
            "no_native_cells_per_s": cells / wall_no_native,
            "speedup": wall_per_cell / wall_batched,
            "native_speedup": wall_no_native / wall_batched,
            "dispatches": snap["dispatches"],
            "pool_width_mean": snap["pool_width_mean"],
            "native_rows": snap["native_rows"],
            "native_ratio": snap["native_ratio"],
        }
    )
    return stats, batched


def compare() -> Tuple[str, List[CellResult]]:
    grids = {"montage": montage_spec(), "genome": genome_spec()}
    kernel_status = native_kernels.status()
    summary: Dict[str, object] = {
        "benchmark": "eval_batch",
        "smoke": SMOKE,
        # Which kernel backend produced the committed numbers (the
        # timed default passes): "native" or "python".
        "kernel_backend": kernel_status["backend"],
        "grids": {},
    }
    lines = [
        "batched vs per-cell evaluation (jobs=1, bit-identical records, "
        f"median of {REPEATS})"
    ]
    montage_cells: List[CellResult] = []
    total_cells = 0
    total_batched = 0.0
    total_per_cell = 0.0
    for name, spec in grids.items():
        stats, records = run_grid(spec)
        summary["grids"][name] = stats  # type: ignore[index]
        total_cells += stats["cells"]
        total_batched += stats["wall_s"]
        total_per_cell += stats["per_cell_wall_s"]
        if name == "montage":
            montage_cells = records
        lines.append(
            f"  {name:<8} {stats['cells']:>4} cells  "
            f"per-cell {stats['per_cell_wall_s']:7.2f}s "
            f"({stats['per_cell_cells_per_s']:6.2f} cells/s)  "
            f"batched {stats['wall_s']:7.2f}s "
            f"({stats['cells_per_s']:6.2f} cells/s)  "
            f"speedup {stats['speedup']:.2f}x  "
            f"native {stats['native_speedup']:.2f}x  "
            f"dispatches {stats['dispatches']} "
            f"(pool width {stats['pool_width_mean']:.1f})"
        )
    # Top-level trajectory keys (the montage grid is the acceptance
    # reference; overall aggregates cover both grids).
    summary["cells"] = total_cells
    summary["wall_s"] = total_batched
    summary["per_cell_wall_s"] = total_per_cell
    summary["cells_per_s"] = total_cells / total_batched
    summary["per_cell_cells_per_s"] = total_cells / total_per_cell
    summary["speedup"] = total_per_cell / total_batched
    save_json("BENCH_eval.json", summary)
    return "\n".join(lines), montage_cells


def bench_eval_batch(benchmark):
    """Times the batched montage sweep; validates parity along the way."""
    report, cells = compare()
    save_artifact("eval_batch.txt", report + "\n")
    spec = montage_spec()
    result = benchmark(lambda: run_sweep(spec, jobs=1))
    assert result == cells


if __name__ == "__main__":
    print(compare()[0])
