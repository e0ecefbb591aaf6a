"""Sweep-engine micro-benchmark: staged artifact cache vs legacy loop.

Runs the same MONTAGE (pfail × CCR) grid two ways:

* **legacy**: one full per-cell pipeline per grid point (regenerate,
  ``mspgify``, ``allocate``, plan, evaluate — the shape of the seed's
  serial loops via :func:`repro.experiments.figures.run_cell`);
* **engine**: :func:`repro.engine.run_sweep` with the shared artifact
  cache (tree/schedule computed once per (workflow, processors) pair)
  and batched evaluation (one DAG template per structure group), serial
  and with a process pool of ``min(4, os.cpu_count())`` workers — more
  workers than cores only measures oversubscription.

Both produce bit-identical records (asserted); the rendered table is
saved under ``benchmarks/results/sweep_engine.txt`` and the
machine-readable summary in ``BENCH_sweep.json`` at the repo root (see
``bench_eval_batch.py`` for the batched-vs-per-cell evaluation split).
Run directly for a quick table::

    PYTHONPATH=src:. python benchmarks/bench_sweep_engine.py
"""

from __future__ import annotations

import os
import time
from typing import List, Tuple

from repro.engine import (
    COMPUTE_ONLY_STAGES,
    CellResult,
    Pipeline,
    SweepSpec,
    run_sweep,
)
from repro.experiments.figures import log_grid, run_cell

from benchmarks.conftest import FULL, save_artifact, save_json

#: Width of the parallel columns: never more workers than cores.
JOBS = min(4, os.cpu_count() or 1)


def montage_spec() -> SweepSpec:
    return SweepSpec(
        family="montage",
        sizes=(50, 300) if FULL else (50,),
        processors={50: (3, 5, 7, 10), 300: (18, 35)},
        pfails=(0.01, 0.001, 0.0001),
        ccrs=log_grid(1e-3, 1e0, 7),
        seed=2017,
        seed_policy="stable",
        name="bench-sweep",
    )


def time_backends(
    spec: SweepSpec, reference: List[CellResult]
) -> List[Tuple[str, float]]:
    """Wall time of the same grid through each pluggable backend.

    Parity is asserted on every row — the backend column is only worth
    tracking if every backend still produces the reference records.
    """
    from repro.engine.backends import RemoteWorkerBackend
    from repro.engine.backends.worker import WorkerLoop

    rows: List[Tuple[str, float]] = []
    for name, kwargs in (
        ("serial", {}),
        ("process", {"jobs": JOBS}),
        ("subprocess", {"jobs": JOBS}),
    ):
        t0 = time.perf_counter()
        records = run_sweep(spec, backend=name, **kwargs)
        rows.append((name, time.perf_counter() - t0))
        assert records == reference, f"{name} backend records diverge"
    backend = RemoteWorkerBackend(lease_timeout=120.0)
    loops = [
        WorkerLoop(
            backend.coordinator_url,
            worker_id=f"bench-w{i}",
            poll_interval=0.02,
        ).start()
        for i in range(2)
    ]
    try:
        t0 = time.perf_counter()
        records = run_sweep(spec, backend=backend)
        rows.append(("remote", time.perf_counter() - t0))
        assert records == reference, "remote backend records diverge"
    finally:
        for loop in loops:
            loop.stop()
        backend.close()
    return rows


def run_legacy(spec: SweepSpec) -> List[CellResult]:
    """The seed's shape: a fresh end-to-end pipeline per grid cell."""
    return [
        run_cell(spec.family, n, p, pfail, ccr, seed=spec.seed)
        for n in spec.sizes
        for p in spec.processors[n]
        for pfail in spec.pfails
        for ccr in spec.ccrs
    ]


def compare() -> Tuple[str, List[CellResult]]:
    spec = montage_spec()
    timings = []
    t0 = time.perf_counter()
    legacy = run_legacy(spec)
    timings.append(("legacy per-cell loop", time.perf_counter() - t0))
    pipe = Pipeline()
    t0 = time.perf_counter()
    cached = run_sweep(spec, jobs=1, pipeline=pipe)
    timings.append(("engine cached, jobs=1", time.perf_counter() - t0))
    t0 = time.perf_counter()
    parallel = run_sweep(spec, jobs=JOBS)
    timings.append((f"engine cached, jobs={JOBS}", time.perf_counter() - t0))
    assert cached == legacy, "engine records diverge from the legacy loop"
    assert parallel == cached, "parallel records diverge from serial"
    backend_rows = time_backends(spec, cached)
    base = timings[0][1]
    lines = [f"sweep engine benchmark — {len(cached)} MONTAGE cells"]
    for name, seconds in timings:
        lines.append(f"  {name:<24} {seconds:8.3f}s  ({base / seconds:5.2f}x)")
    lines.append("  execution backends (same grid, parity asserted):")
    for name, seconds in backend_rows:
        label = f"backend={name}"
        lines.append(f"  {label:<24} {seconds:8.3f}s  ({base / seconds:5.2f}x)")

    # Machine-readable perf trajectory (tracked across PRs).  The hit
    # rate covers stored stages only: plan/build_dag/evaluate are
    # compute-only (keys unique per cell), so their per-cell tallies
    # would dilute it to meaninglessness.
    stage_stats = pipe.cache.stats()
    summary = {
        "benchmark": "sweep_engine",
        "cells": len(cached),
        "legacy_wall_s": timings[0][1],
        "engine_jobs1_wall_s": timings[1][1],
        "engine_parallel_jobs": JOBS,
        "engine_parallel_wall_s": timings[2][1],
        "legacy_cells_per_s": len(cached) / timings[0][1],
        "engine_jobs1_cells_per_s": len(cached) / timings[1][1],
        "engine_parallel_cells_per_s": len(cached) / timings[2][1],
        "backends": {
            name: {
                "wall_s": seconds,
                "cells_per_s": len(cached) / seconds,
            }
            for name, seconds in backend_rows
        },
        "cache_hit_rate": pipe.cache.hit_rate(),
        "cache_compute_only_stages": list(COMPUTE_ONLY_STAGES),
        "cache_stage_stats": {
            stage: {"hits": s.hits, "misses": s.misses}
            for stage, s in stage_stats.items()
        },
    }
    save_json("BENCH_sweep.json", summary)
    return "\n".join(lines), cached


def bench_sweep_engine(benchmark):
    """Times the cached serial sweep; validates parity along the way."""
    report, cells = compare()
    save_artifact("sweep_engine.txt", report + "\n")
    spec = montage_spec()
    result = benchmark(lambda: run_sweep(spec, jobs=1))
    assert result == cells


if __name__ == "__main__":
    print(compare()[0])
