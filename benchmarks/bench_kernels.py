"""Kernel-layer microbenchmark: native vs python, scalar vs plan-replayed.

Times the PATHAPPROX fold as the per-cell scalar reference against the
compiled fold-plan replay
(:func:`~repro.makespan.pathapprox.pathapprox_batch`) on a real MONTAGE
structure group, CKPTSOME's plans and segment spans for a real
GENOME-300 group's cells as one array program
(:func:`~repro.checkpoint.strategies.plan_group`) against per-cell cost
models with :func:`~repro.checkpoint.dp.dp_from_table`, Clark's fold
(:func:`~repro.makespan.normal.normal_batch`) as the scalar fold per
cell against the C fold on a real GENOME-300 segment-DAG template,
PathApprox's k-best path
DP (:func:`~repro.makespan.pathapprox._k_best_paths_cells`) in numpy
against the C DP on a real MONTAGE-50 CKPTALL segment-DAG template at
the adaptive schedule's budgets, the fold compile alone
(:func:`~repro.makespan.foldplan.compile_fold_plan`, every budget round
of the fold template's cells into one step table), and each distribution
primitive (convolve / max / truncate) as a per-row loop with the
compiled kernels (:mod:`repro.makespan.native`) enabled and disabled.
All comparisons assert bit-identical results before any timing is
reported.

Each timed figure is the median of :data:`REPEATS` interleaved runs
(the fold's scalar and replay columns alternate, and so do the Clark
fold's, the checkpoint plans', the k-best DP's and each primitive's
native and python passes, and the fold compile's compile and whole-call
columns), with its first and third quartiles beside it (``<figure>_q1`` / ``<figure>_q3``), as in
``bench_eval_batch.py``.  One profiled replay pass collects the kernel
counters into the ``profile_ops`` block.  The machine-readable summary
lands in ``BENCH_kernel.json`` at the repo root;
``REPRO_BENCH_SMOKE=1`` shrinks sizes, and runs each figure once, for
the CI bench-smoke job.  Run directly::

    PYTHONPATH=src:. python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List

import numpy as np

from repro.checkpoint.dp import dp_from_table
from repro.checkpoint.segments import (
    GroupCosts,
    ScheduleIncidence,
    SuperchainCostModel,
)
from repro.checkpoint.strategies import plan_group
from repro.engine import Pipeline
from repro.experiments.figures import log_grid
from repro.makespan import foldplan
from repro.makespan import profile as kernel_profile
from repro.makespan.distribution import DiscreteDistribution
from repro.makespan.normal import normal_batch
from repro.makespan.paramdag import ParamDAG
from repro.makespan.pathapprox import (
    _k_best_paths_cells,
    pathapprox,
    pathapprox_batch,
)
from repro.util.rng import stable_seed

from benchmarks.conftest import save_artifact, save_json, summarize_walls, timed

#: Tiny sizes for the CI smoke job (JSON shape, not timings).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_CELLS = 8 if SMOKE else 64
N_ATOMS = 16 if SMOKE else 64
#: Truncation budget below the operand width, so every op truncates.
BUDGET = max(4, N_ATOMS // 2)
#: Timed runs per figure; each figure is their median.
REPEATS = 1 if SMOKE else 5


def random_rows(seed: int, n_cells: int, n_atoms: int) -> List[DiscreteDistribution]:
    rng = np.random.default_rng(seed)
    return [
        DiscreteDistribution(
            rng.uniform(0.0, 100.0, n_atoms),
            rng.uniform(0.05, 1.0, n_atoms),
        )
        for _ in range(n_cells)
    ]


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


def ckptall_template(
    family: str, size: int, procs: int, pfails, ccrs
) -> ParamDAG:
    """CKPTALL's segment-DAG template of a real grid: every pfail and CCR
    cell cuts the schedule the same way, as in ``perfbench``'s grids."""
    pipe = Pipeline()
    wf = pipe.prepare(family, size, stable_seed(2017, family, size))
    schedule = pipe.schedule_for(
        wf, procs, seed=stable_seed(2017, family, size, procs),
        tree=pipe.mspg_tree(wf),
    )
    dags = []
    for pfail in pfails:
        platform = pipe.platform_for(wf, procs, pfail, 100e6)
        for ccr in ccrs:
            scaled = pipe.scale(wf, platform, ccr)
            plan = pipe.plan(scaled, schedule, platform, "all")
            dags.append(pipe.segment_dag(scaled, schedule, plan, platform))
    return ParamDAG.from_dags(dags)


def clark_template() -> ParamDAG:
    """GENOME-300 on 18 processors (GENOME-50 on 5 in smoke mode)."""
    if SMOKE:
        return ckptall_template("genome", 50, 5, (1e-3,), (1e-3,))
    return ckptall_template(
        "genome", 300, 18, (1e-2, 1e-3, 1e-4), log_grid(1e-4, 1e-2, 7)
    )


def bench_clark(template: ParamDAG) -> Dict[str, float]:
    """Clark's fold over a template: the scalar fold once per cell
    (native off) against one C call, interleaved, results equal under
    ``float.hex``."""
    from repro.makespan import native

    was_enabled = native.enabled()
    walls: Dict[str, List[float]] = {"python_wall_s": [], "native_wall_s": []}
    try:
        for _ in range(REPEATS):
            native.set_enabled(True)
            folded = timed(lambda: normal_batch(template), walls["native_wall_s"])
            native.set_enabled(False)
            python = timed(lambda: normal_batch(template), walls["python_wall_s"])
            assert [v.hex() for v in folded.tolist()] == [
                v.hex() for v in python.tolist()
            ], "clark fold"
    finally:
        native.set_enabled(was_enabled)
    stats: Dict[str, float] = {
        "cells": template.n_cells,
        "nodes": template.n,
        "edges": sum(len(ps) for ps in template.preds),
        "repeats": REPEATS,
        "backend": native.status()["ops"]["normal"],
    }
    stats.update(summarize_walls(walls))
    stats["speedup"] = stats["python_wall_s"] / stats["native_wall_s"]
    return stats


def bench_ckpt_plan() -> Dict[str, object]:
    """CKPTSOME's cut vectors and segment spans for every cell of one
    GENOME-300 group on 18 processors (3 pfails x 7 CCRs; GENOME-50 on 5
    and one cell in smoke mode), two ways, interleaved: the array
    program (one :func:`plan_group` call, which also prices CKPTALL's
    slices, then each cell's spans gathered) and per cell, a
    :class:`SuperchainCostModel` per superchain with
    :func:`dp_from_table` on its table and ``span`` per segment.  Both
    give the same cuts and spans."""
    size, procs = (50, 5) if SMOKE else (300, 18)
    pfails = (1e-3,) if SMOKE else (1e-2, 1e-3, 1e-4)
    ccrs = (1e-3,) if SMOKE else log_grid(1e-4, 1e-2, 7)
    pipe = Pipeline()
    wf = pipe.prepare("genome", size, stable_seed(2017, "genome", size))
    schedule = pipe.schedule_for(
        wf, procs, seed=stable_seed(2017, "genome", size, procs),
        tree=pipe.mspg_tree(wf),
    )
    platforms = [pipe.platform_for(wf, procs, pfail, 100e6) for pfail in pfails]
    scaled = [pipe.scale(wf, platforms[0], ccr) for ccr in ccrs]
    cells = [(p, c) for p in range(len(pfails)) for c in range(len(ccrs))]
    incidence = ScheduleIncidence(wf, schedule)
    sizes = [[w.file_size(f) for f in incidence.files] for w in scaled]

    def segments(cuts):
        return [
            (chain, start, end)
            for chain, ends in enumerate(cuts)
            for start, end in zip((0,) + tuple(e + 1 for e in ends), ends)
        ]

    def array_program():
        costs = GroupCosts(
            incidence, sizes, 100e6, True,
            [c for _p, c in cells],
            [platforms[p].failure_rate for p, _c in cells],
        )
        plans = plan_group(costs)
        out = []
        for k, cuts in enumerate(plans.some):
            chain, start, end = np.array(segments(cuts)).reshape(-1, 3).T
            out.append((cuts, plans.spans(np.array([k]), chain, start, end)[0]))
        return out

    def per_cell():
        out = []
        for p, c in cells:
            models = [
                SuperchainCostModel(scaled[c], sc, platforms[p])
                for sc in schedule.superchains
            ]
            cuts = tuple(
                tuple(dp_from_table(model.expected_time_table())[0])
                for model in models
            )
            spans = [
                models[chain].span(start, end)
                for chain, start, end in segments(cuts)
            ]
            out.append((cuts, np.array(spans)))
        return out

    walls: Dict[str, List[float]] = {"per_cell_wall_s": [], "array_wall_s": []}
    for _ in range(REPEATS):
        ref = timed(per_cell, walls["per_cell_wall_s"])
        got = timed(array_program, walls["array_wall_s"])
        assert [cuts for cuts, _ in got] == [cuts for cuts, _ in ref], "cuts"
        assert all(
            g.tobytes() == r.tobytes() for (_, g), (_, r) in zip(got, ref)
        ), "segment spans"
    stats: Dict[str, object] = {
        "cells": len(cells),
        "superchains": len(schedule.superchains),
        "segments": sum(len(spans) for _, spans in got),
        "repeats": REPEATS,
    }
    stats.update(summarize_walls(walls))
    stats["speedup"] = stats["per_cell_wall_s"] / stats["array_wall_s"]
    return stats


def kbest_template() -> ParamDAG:
    """MONTAGE-50 on 5 processors."""
    if SMOKE:
        return ckptall_template("montage", 50, 5, (0.01,), (1e-2,))
    return ckptall_template(
        "montage", 50, 5, (1e-2, 1e-3, 1e-4), log_grid(1e-3, 1e0, 7)
    )


def bench_k_best(template: ParamDAG) -> Dict[str, object]:
    """The k-best path DP over a template at each budget of the adaptive
    schedule (32 to 512), with rank masks by variance order as
    PathApprox builds them: the numpy DP (native off) against the C DP,
    interleaved, masks equal."""
    from repro.makespan import native

    budgets = (32, 64) if SMOKE else (32, 64, 128, 256, 512)
    var_rank = np.argsort(
        np.argsort(template.variances, axis=1, kind="stable"), axis=1
    )
    args = (template.preds, template.sinks(), template.means)

    def enumerate_paths():
        return [_k_best_paths_cells(*args, k, var_rank) for k in budgets]

    was_enabled = native.enabled()
    walls: Dict[str, List[float]] = {"python_wall_s": [], "native_wall_s": []}
    try:
        for _ in range(REPEATS):
            native.set_enabled(True)
            got = timed(enumerate_paths, walls["native_wall_s"])
            native.set_enabled(False)
            ref = timed(enumerate_paths, walls["python_wall_s"])
            assert got == ref, "k-best masks"
    finally:
        native.set_enabled(was_enabled)
    stats: Dict[str, object] = {
        "cells": template.n_cells,
        "nodes": template.n,
        "edges": sum(len(ps) for ps in template.preds),
        "budgets": list(budgets),
        "paths": sum(len(paths) for cells in ref for paths in cells),
        "repeats": REPEATS,
        "backend": native.status()["ops"]["kbest"],
    }
    stats.update(summarize_walls(walls))
    stats["speedup"] = stats["python_wall_s"] / stats["native_wall_s"]
    return stats


def bench_fold(template: ParamDAG) -> Dict[str, Dict[str, float]]:
    """Per-cell scalar fold vs compiled plan replay.  Each replay prices
    a fresh copy of the template, as a sweep dispatches each template
    once, so no repeat reuses state an earlier one left on it."""
    walls: Dict[str, List[float]] = {"scalar_wall_s": [], "plan_wall_s": []}
    for _ in range(REPEATS):
        scalar = timed(
            lambda: np.array(
                [pathapprox(template.cell(c)) for c in range(template.n_cells)]
            ),
            walls["scalar_wall_s"],
        )
        fresh = ParamDAG(
            template.names, template.preds, template.succs,
            template.base, template.long, template.p,
        )
        replayed = timed(lambda: pathapprox_batch(fresh), walls["plan_wall_s"])
        assert np.array_equal(scalar, replayed), "fold"
    stats: Dict[str, float] = {"cells": template.n_cells, "repeats": REPEATS}
    stats.update(summarize_walls(walls))
    stats["speedup"] = stats["scalar_wall_s"] / stats["plan_wall_s"]
    stats["cells_per_s"] = template.n_cells / stats["plan_wall_s"]
    return {"adaptive": stats}


def bench_fold_compile(template: ParamDAG) -> Dict[str, object]:
    """The fold compile alone: every :func:`compile_fold_plan` call of
    one :func:`pathapprox_batch` call over the template (each cell's
    every budget round), recorded once and compiled again into a fresh
    step table per repeat, interleaved with whole calls on fresh copies
    of the template (``call_wall_s``).  No two slots of the table may
    share a ``(kind, a, b)`` triple."""
    calls = []
    real = foldplan.compile_fold_plan

    def record(order, paths):
        calls.append((order.node, list(paths)))
        return real(order, paths)

    foldplan.compile_fold_plan = record
    try:
        pathapprox_batch(template)
    finally:
        foldplan.compile_fold_plan = real

    def compile_all():
        table = foldplan._StepTable(template.n)
        orders: Dict[tuple, foldplan._Order] = {}
        for node, paths in calls:
            order = orders.get(node)
            if order is None:
                order = orders[node] = foldplan._Order(table, node)
            foldplan.compile_fold_plan(order, paths)
        return table

    walls: Dict[str, List[float]] = {"compile_wall_s": [], "call_wall_s": []}
    for _ in range(REPEATS):
        table = timed(compile_all, walls["compile_wall_s"])
        fresh = ParamDAG(
            template.names, template.preds, template.succs,
            template.base, template.long, template.p,
        )
        timed(lambda: pathapprox_batch(fresh), walls["call_wall_s"])
    steps = table.steps[3 * (template.n + 1):]
    triples = [tuple(steps[i : i + 3]) for i in range(0, len(steps), 3)]
    stats: Dict[str, object] = {
        "cells": template.n_cells,
        "nodes": template.n,
        "compiles": len(calls),
        "slots": len(triples),
        "distinct_slots": len(set(triples)),
        "repeats": REPEATS,
    }
    assert stats["distinct_slots"] == stats["slots"], "repeated step triple"
    stats.update(summarize_walls(walls))
    stats["compile_share"] = stats["compile_wall_s"] / stats["call_wall_s"]
    return stats


def bench_native() -> Dict[str, object]:
    """Compiled vs pure-python scalar kernels, bit-parity asserted.

    Times one pass of the per-row scalar loop for each primitive twice —
    native kernels enabled and disabled — per repeat, asserting the
    results identical before reporting.  When no compiler is available both passes run
    the python reference and the block records ``available: false``
    (speedups ~1.0), so the JSON shape is stable either way.
    """
    from repro.makespan import native

    a_rows = random_rows(1, N_CELLS, N_ATOMS)
    b_rows = random_rows(2, N_CELLS, N_ATOMS)
    ops: Dict[str, Callable[[], List[DiscreteDistribution]]] = {
        "convolve": lambda: [
            x.convolve(y, BUDGET) for x, y in zip(a_rows, b_rows)
        ],
        "max": lambda: [x.max_with(y, BUDGET) for x, y in zip(a_rows, b_rows)],
        "truncate": lambda: [x.truncate(BUDGET) for x in a_rows],
    }
    was_enabled = native.enabled()
    status = native.status()
    walls: Dict[str, Dict[str, List[float]]] = {
        name: {"python_wall_s": [], "native_wall_s": []} for name in ops
    }
    try:
        for _ in range(REPEATS):
            for name, fn in ops.items():
                native.set_enabled(True)
                native_res = timed(fn, walls[name]["native_wall_s"])
                native.set_enabled(False)
                python_res = timed(fn, walls[name]["python_wall_s"])
                _assert_rows_equal(python_res, native_res, f"native/{name}")
    finally:
        native.set_enabled(was_enabled)
    out_ops: Dict[str, Dict[str, float]] = {}
    for name, columns in walls.items():
        stats = summarize_walls(columns)
        stats["speedup"] = stats["python_wall_s"] / stats["native_wall_s"]
        out_ops[name] = stats
    return {
        "available": status["available"],
        "backend": status["backend"],
        "compiler": status["compiler"],
        "repeats": REPEATS,
        "ops": out_ops,
    }


def profiled_replay(template: ParamDAG) -> Dict[str, object]:
    """One profiled plan-replay pass: the kernel counters."""
    prof = kernel_profile.enable()
    try:
        pathapprox_batch(template)
        snap = prof.snapshot()
    finally:
        kernel_profile.disable()
    return snap


def compare() -> str:
    native = bench_native()
    ckpt_plan = bench_ckpt_plan()
    clark = bench_clark(clark_template())
    k_best = bench_k_best(kbest_template())
    template = fold_template()
    fold = bench_fold(template)
    fold_compile = bench_fold_compile(template)
    snap = profiled_replay(template)

    lines = [
        f"kernel microbenchmark — {N_CELLS} rows x {N_ATOMS} atoms, "
        f"budget {BUDGET}, median of {REPEATS}",
        f"  native kernels: {native['backend']}"
        + (f" ({native['compiler']})" if native["compiler"] else ""),
    ]
    for name, stats in native["ops"].items():
        lines.append(
            f"  {name:<9} native   python {stats['python_wall_s']*1e3:8.2f}ms  "
            f"native  {stats['native_wall_s']*1e3:8.2f}ms  "
            f"speedup {stats['speedup']:5.2f}x"
        )
    lines.append(
        f"  ckpt plan array    "
        f"cells  {ckpt_plan['per_cell_wall_s']*1e3:8.2f}ms  "
        f"array   {ckpt_plan['array_wall_s']*1e3:8.2f}ms  "
        f"speedup {ckpt_plan['speedup']:5.2f}x  "
        f"({ckpt_plan['cells']} cells x {ckpt_plan['superchains']} "
        f"superchains)"
    )
    lines.append(
        f"  clark     {clark['backend']:<8} "
        f"python {clark['python_wall_s']*1e3:8.2f}ms  "
        f"native  {clark['native_wall_s']*1e3:8.2f}ms  "
        f"speedup {clark['speedup']:5.2f}x  "
        f"({clark['cells']} cells x {clark['nodes']} nodes)"
    )
    lines.append(
        f"  k-best    {k_best['backend']:<8} "
        f"python {k_best['python_wall_s']*1e3:8.2f}ms  "
        f"native  {k_best['native_wall_s']*1e3:8.2f}ms  "
        f"speedup {k_best['speedup']:5.2f}x  "
        f"({k_best['cells']} cells x {k_best['nodes']} nodes, "
        f"{k_best['paths']} paths)"
    )
    lines.append(
        f"  fold compile       "
        f"compile {fold_compile['compile_wall_s']*1e3:7.2f}ms  "
        f"call    {fold_compile['call_wall_s']*1e3:8.2f}ms  "
        f"share   {fold_compile['compile_share']:5.2f}   "
        f"({fold_compile['compiles']} compiles, "
        f"{fold_compile['slots']} slots)"
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
        "ckpt_plan": ckpt_plan,
        "clark_fold": clark,
        "k_best": k_best,
        "fold": fold,
        "fold_compile": fold_compile,
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
