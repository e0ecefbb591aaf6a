"""Shared benchmark infrastructure.

Every benchmark regenerates one experiment of the paper (a figure panel,
the §VI-B accuracy table, a Theorem 1 check, or an ablation) and

* saves the full table/panel to ``benchmarks/results/<name>.txt`` (and CSV
  where applicable), so the artefacts survive pytest's output capture;
* times a representative kernel with the ``benchmark`` fixture.

Grid sizes default to a CI-friendly subset; set ``REPRO_FULL=1`` to run
the paper's complete grids (50/300/1000 tasks, all processor counts, all
three failure probabilities — minutes, not hours).
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple, TypeVar

import pytest

T = TypeVar("T")

RESULTS_DIR = Path(__file__).parent / "results"

#: Full paper grid when set; CI-sized grid otherwise.
FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")


def grid_kwargs():
    """shrink() arguments for figure specs, honouring REPRO_FULL."""
    if FULL:
        return {}
    return {
        "sizes": [50, 300],
        "pfails": [0.01, 0.001],
        "ccr_points": 5,
        "processors_per_size": 2,
    }


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifact(name: str, text: str) -> Path:
    """Persist a rendered table/panel under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text)
    return path


#: Repo root — the machine-readable ``BENCH_*.json`` summaries live
#: here (not under benchmarks/results/) so the cross-PR perf trajectory
#: is one flat, discoverable set of files at the top of the tree.
ROOT_DIR = Path(__file__).resolve().parent.parent


def save_json(name: str, payload) -> Path:
    """Persist a machine-readable benchmark summary (``BENCH_*.json``).

    These files are the cross-PR perf trajectory: every run overwrites
    ``<repo root>/<name>`` with one flat JSON object (wall times,
    cells/sec, cache hit rates, speedups) that tooling can diff between
    commits.  Every summary records the machine's core count
    (``cpu_count``), without which its parallel columns cannot be read.
    """
    import json

    path = ROOT_DIR / name
    payload = {**payload, "cpu_count": os.cpu_count()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def timed(fn: Callable[[], T], walls: List[float]) -> T:
    """Run ``fn`` once, appending its wall time to ``walls``."""
    t0 = time.perf_counter()
    out = fn()
    walls.append(time.perf_counter() - t0)
    return out


def median_quartiles(walls: List[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)`` of a timed column's samples."""
    if len(walls) == 1:
        return walls[0], walls[0], walls[0]
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return median, q1, q3


def summarize_walls(walls: Dict[str, List[float]]) -> Dict[str, float]:
    """Each column's median under its own key, with ``<key>_q1`` and
    ``<key>_q3`` beside it."""
    stats: Dict[str, float] = {}
    for column, samples in walls.items():
        median, q1, q3 = median_quartiles(samples)
        stats[column] = median
        stats[f"{column}_q1"] = q1
        stats[f"{column}_q3"] = q3
    return stats


def per_cell_sweep(spec):
    """``run_sweep(spec, jobs=1)`` through the per-cell oracle: within
    the call, every cell is priced by ``Pipeline.evaluate_cell`` (see
    ``tests/conftest.py:oracle_route``)."""
    from repro.engine import run_sweep
    from tests.conftest import oracle_route

    with oracle_route(spec.method):
        return run_sweep(spec, jobs=1)
