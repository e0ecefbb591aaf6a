"""Kernel-layer microbenchmark: native vs python, scalar vs plan-replayed.

Times the PATHAPPROX fold as the per-cell scalar reference against the
compiled fold-plan replay
(:func:`~repro.makespan.pathapprox.pathapprox_batch`) on a real MONTAGE
structure group, in both truncation modes, and each distribution
primitive (convolve / max / truncate / rect binning) as a per-row loop
with the compiled kernels (:mod:`repro.makespan.native`) enabled and
disabled.  All comparisons assert bit-identical results before any
timing is reported.

One profiled replay pass per mode collects the kernel counters into
the ``profile_ops`` block.  The machine-readable summary lands in
``BENCH_kernel.json`` at the repo root;
``REPRO_BENCH_SMOKE=1`` shrinks sizes for the CI bench-smoke job.
Run directly::

    PYTHONPATH=src:. python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.engine import Pipeline
from repro.makespan import profile as kernel_profile
from repro.makespan.distribution import (
    MODE_ADAPTIVE,
    MODE_RECT,
    DiscreteDistribution,
)
from repro.makespan.paramdag import ParamDAG
from repro.makespan.pathapprox import pathapprox, pathapprox_batch
from repro.util.rng import stable_seed

from benchmarks.conftest import save_artifact, save_json

#: Tiny sizes for the CI smoke job (JSON shape, not timings).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_CELLS = 8 if SMOKE else 64
N_ATOMS = 16 if SMOKE else 64
#: Truncation budget below the operand width, so every op truncates.
BUDGET = max(4, N_ATOMS // 2)
REPEATS = 2 if SMOKE else 20


def random_rows(seed: int, n_cells: int, n_atoms: int) -> List[DiscreteDistribution]:
    rng = np.random.default_rng(seed)
    return [
        DiscreteDistribution(
            rng.uniform(0.0, 100.0, n_atoms),
            rng.uniform(0.05, 1.0, n_atoms),
        )
        for _ in range(n_cells)
    ]


def _best(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Minimum wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _assert_rows_equal(
    expected: List[DiscreteDistribution],
    got: List[DiscreteDistribution],
    label: str,
) -> None:
    assert len(got) == len(expected), label
    for e, g in zip(expected, got):
        assert np.array_equal(e.values, g.values), label
        assert np.array_equal(e.probs, g.probs), label


def fold_template() -> ParamDAG:
    """Largest structure group of a real MONTAGE-50 grid (both
    checkpoint strategies contribute DAGs)."""
    pipe = Pipeline()
    family, size, procs = "montage", 50, 5
    wf = pipe.prepare(family, size, stable_seed(2017, family, size))
    tree = pipe.mspg_tree(wf)
    schedule = pipe.schedule_for(
        wf, procs, seed=stable_seed(2017, family, size, procs), tree=tree
    )
    pfails = (0.01,) if SMOKE else (0.01, 0.001)
    ccrs = (1e-2,) if SMOKE else (1e-3, 1e-2, 1e-1, 1e0)
    dags = []
    for pfail in pfails:
        for ccr in ccrs:
            platform = pipe.platform_for(wf, procs, pfail, 100e6)
            scaled = pipe.scale(wf, platform, ccr)
            plan_some, plan_all = pipe.plans(scaled, schedule, platform, True)
            dags.append(pipe.segment_dag(scaled, schedule, plan_some, platform))
            dags.append(pipe.segment_dag(scaled, schedule, plan_all, platform))
    groups: Dict[object, List[int]] = {}
    for i, dag in enumerate(dags):
        groups.setdefault(ParamDAG.structure_key(dag), []).append(i)
    largest = max(groups.values(), key=len)
    return ParamDAG.from_dags([dags[i] for i in largest])


def bench_fold(template: ParamDAG) -> Dict[str, Dict[str, float]]:
    """Per-cell scalar fold vs compiled plan replay, both modes."""
    out: Dict[str, Dict[str, float]] = {}
    for mode in (MODE_ADAPTIVE, MODE_RECT):
        t0 = time.perf_counter()
        scalar = np.array(
            [
                pathapprox(template.cell(c), truncate_mode=mode)
                for c in range(template.n_cells)
            ]
        )
        scalar_wall = time.perf_counter() - t0
        # min over repeats: the first replay also pays plan compilation,
        # later ones replay cached plans (the steady-state sweep cost).
        plan_wall, replayed = _best(
            lambda: pathapprox_batch(template, truncate_mode=mode),
            2 if SMOKE else 3,
        )
        assert np.array_equal(scalar, replayed), f"fold/{mode}"
        out[mode] = {
            "cells": template.n_cells,
            "scalar_wall_s": scalar_wall,
            "plan_wall_s": plan_wall,
            "speedup": scalar_wall / plan_wall,
            "cells_per_s": template.n_cells / plan_wall,
        }
    return out


def bench_native() -> Dict[str, object]:
    """Compiled vs pure-python scalar kernels, bit-parity asserted.

    Times the per-row scalar loop for each primitive twice — native
    kernels enabled and disabled — asserting the results identical
    before reporting.  When no compiler is available both passes run
    the python reference and the block records ``available: false``
    (speedups ~1.0), so the JSON shape is stable either way.
    """
    from repro.makespan import native

    a_rows = random_rows(1, N_CELLS, N_ATOMS)
    b_rows = random_rows(2, N_CELLS, N_ATOMS)
    ops: Dict[str, Callable[[], List[DiscreteDistribution]]] = {
        "convolve": lambda: [
            x.convolve(y, BUDGET, MODE_ADAPTIVE)
            for x, y in zip(a_rows, b_rows)
        ],
        "max": lambda: [
            x.max_with(y, BUDGET, MODE_ADAPTIVE)
            for x, y in zip(a_rows, b_rows)
        ],
        "truncate": lambda: [x.truncate(BUDGET, MODE_ADAPTIVE) for x in a_rows],
        "rect_bin": lambda: [x.truncate(BUDGET, MODE_RECT) for x in a_rows],
    }
    was_enabled = native.enabled()
    status = native.status()
    out_ops: Dict[str, Dict[str, float]] = {}
    try:
        for name, fn in ops.items():
            native.set_enabled(True)
            native_wall, native_res = _best(fn, REPEATS)
            native.set_enabled(False)
            python_wall, python_res = _best(fn, REPEATS)
            _assert_rows_equal(python_res, native_res, f"native/{name}")
            out_ops[name] = {
                "python_wall_s": python_wall,
                "native_wall_s": native_wall,
                "speedup": python_wall / native_wall,
            }
    finally:
        native.set_enabled(was_enabled)
    return {
        "available": status["available"],
        "backend": status["backend"],
        "compiler": status["compiler"],
        "ops": out_ops,
    }


def profiled_replay(template: ParamDAG) -> Dict[str, object]:
    """One profiled plan-replay pass per mode: the kernel counters."""
    prof = kernel_profile.enable()
    try:
        for mode in (MODE_ADAPTIVE, MODE_RECT):
            pathapprox_batch(template, truncate_mode=mode)
        snap = prof.snapshot()
    finally:
        kernel_profile.disable()
    return snap


def compare() -> str:
    native = bench_native()
    template = fold_template()
    fold = bench_fold(template)
    snap = profiled_replay(template)

    lines = [
        f"kernel microbenchmark — {N_CELLS} rows x {N_ATOMS} atoms, "
        f"budget {BUDGET}",
        f"  native kernels: {native['backend']}"
        + (f" ({native['compiler']})" if native["compiler"] else ""),
    ]
    for name, stats in native["ops"].items():
        lines.append(
            f"  {name:<9} native   python {stats['python_wall_s']*1e3:8.2f}ms  "
            f"native  {stats['native_wall_s']*1e3:8.2f}ms  "
            f"speedup {stats['speedup']:5.2f}x"
        )
    for mode, stats in fold.items():
        lines.append(
            f"  fold      {mode:<8} scalar {stats['scalar_wall_s']:7.2f}s   "
            f"plan    {stats['plan_wall_s']:7.2f}s   "
            f"speedup {stats['speedup']:5.2f}x  "
            f"({stats['cells_per_s']:.2f} cells/s, {stats['cells']} cells)"
        )

    summary = {
        "benchmark": "kernels",
        "smoke": SMOKE,
        "n_cells": N_CELLS,
        "n_atoms": N_ATOMS,
        "budget": BUDGET,
        "native": native,
        "fold": fold,
        "profile_ops": snap["ops"],
    }
    save_json("BENCH_kernel.json", summary)
    return "\n".join(lines)


def bench_kernels(benchmark):
    """Times the fold-plan replay; validates parity along the way."""
    report = compare()
    save_artifact("kernels.txt", report + "\n")
    template = fold_template()
    benchmark(lambda: pathapprox_batch(template))


if __name__ == "__main__":
    print(compare())
