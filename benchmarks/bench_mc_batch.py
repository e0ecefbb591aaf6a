"""Batched vs per-cell Monte Carlo evaluation (the content-seed payoff).

Monte Carlo was the one evaluator locked out of the batched evaluation
core: its positional sampling seeds forced the per-cell path.  With the
content eval-seed policy each cell's stream is derived from what the
cell *is* (:func:`repro.engine.sweep.cell_eval_seed`), and
:func:`repro.makespan.montecarlo.montecarlo_batch` prices a whole
structure group in one call — per-cell generators feed one stacked
``(cells, batch, n)`` trial tensor whose longest-path propagation runs
through the shared kernel once per node instead of once per node *per
cell*.  Samples are bit-identical to the per-cell path, so the speedup
is pure overhead amortisation.

The grid is a MONTAGE Monte Carlo grid under ``eval_seed_policy=
"content"``; both paths are timed via :func:`repro.engine.run_sweep`
(batched, and through the per-cell oracle), records asserted
bit-identical, and the machine-readable summary lands in
``BENCH_mc.json`` at the repo root with ``cells_per_s`` / ``wall_s`` /
``speedup`` keys.  Each timed column (per-cell, batched) is the median
of :data:`REPEATS` interleaved runs, with its first and third quartiles
beside it (``<column>_q1`` / ``<column>_q3``), as in
``bench_eval_batch.py``.
``REPRO_BENCH_SMOKE=1`` shrinks the grid, and runs each column once, for
the CI smoke job.  Run directly::

    PYTHONPATH=src:. python benchmarks/bench_mc_batch.py
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.engine import CellResult, SweepSpec, run_sweep
from repro.experiments.figures import log_grid

from benchmarks.conftest import (
    per_cell_sweep,
    save_artifact,
    save_json,
    summarize_walls,
    timed,
)

#: Tiny grid for the CI smoke job (JSON shape, not timings).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Trials per cell — large enough that Monte Carlo evaluation (not the
#: shared plan/DAG construction) dominates the sweep.
TRIALS = 64 if SMOKE else 8192
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
        method="montecarlo",
        seed_policy="stable",
        eval_seed_policy="content",
        evaluator_options={"trials": TRIALS},
        name="bench-mc-montage",
    )


def run_grid(spec: SweepSpec) -> Tuple[Dict[str, float], List[CellResult]]:
    """Time per-cell vs batched Monte Carlo on one grid, the two columns
    in turn :data:`REPEATS` times; assert parity on every repeat."""
    walls: Dict[str, List[float]] = {"per_cell_wall_s": [], "wall_s": []}
    for _ in range(REPEATS):
        per_cell = timed(lambda: per_cell_sweep(spec), walls["per_cell_wall_s"])
        batched = timed(lambda: run_sweep(spec, jobs=1), walls["wall_s"])
        assert batched == per_cell, (
            f"{spec.name}: batched Monte Carlo records diverge from the "
            "per-cell path"
        )
    cells = len(batched)
    stats: Dict[str, float] = {
        "cells": cells, "trials": TRIALS, "repeats": REPEATS
    }
    stats.update(summarize_walls(walls))
    stats.update(
        {
            "cells_per_s": cells / stats["wall_s"],
            "per_cell_cells_per_s": cells / stats["per_cell_wall_s"],
            "speedup": stats["per_cell_wall_s"] / stats["wall_s"],
        }
    )
    return stats, batched


def compare() -> Tuple[str, List[CellResult]]:
    spec = montage_spec()
    stats, records = run_grid(spec)
    summary: Dict[str, object] = {
        "benchmark": "mc_batch",
        "smoke": SMOKE,
        "grids": {"montage": stats},
        # Top-level trajectory keys (single grid: same numbers).
        "cells": stats["cells"],
        "trials": TRIALS,
        "repeats": REPEATS,
        "wall_s": stats["wall_s"],
        "per_cell_wall_s": stats["per_cell_wall_s"],
        "cells_per_s": stats["cells_per_s"],
        "per_cell_cells_per_s": stats["per_cell_cells_per_s"],
        "speedup": stats["speedup"],
    }
    save_json("BENCH_mc.json", summary)
    lines = [
        "batched vs per-cell Monte Carlo (content eval seeds, jobs=1, "
        f"bit-identical records, median of {REPEATS})",
        f"  montage  {stats['cells']:>4} cells x {TRIALS} trials  "
        f"per-cell {stats['per_cell_wall_s']:7.2f}s "
        f"({stats['per_cell_cells_per_s']:6.2f} cells/s)  "
        f"batched {stats['wall_s']:7.2f}s "
        f"({stats['cells_per_s']:6.2f} cells/s)  "
        f"speedup {stats['speedup']:.2f}x",
    ]
    return "\n".join(lines), records


def bench_mc_batch(benchmark):
    """Times the batched montage MC sweep; validates parity on the way."""
    report, cells = compare()
    save_artifact("mc_batch.txt", report + "\n")
    spec = montage_spec()
    result = benchmark(lambda: run_sweep(spec, jobs=1))
    assert result == cells


if __name__ == "__main__":
    print(compare()[0])
