"""The paper's Figure 5/6/7 grids (§VI-C), executed by the pipeline engine.

Each figure compares the relative expected makespan of CKPTALL and of
CKPTNONE against CKPTSOME for one workflow family, sweeping:

* workflow size ∈ {50, 300, 1000} tasks,
* per-task failure probability pfail ∈ {0.01, 0.001, 0.0001},
* processor count per size — {3, 5, 7, 10} / {18, 35, 52, 70} /
  {61, 123, 184, 245} (the paper's values),
* CCR over a log grid — GENOME over ``[1e-4, 1e-2]`` (it is compute-
  heavy), MONTAGE and LIGO over ``[1e-3, 1e0]``.

Methodology mirrors §VI-A: one workflow instance per (family, size) seed;
one schedule per (instance, p) — the scheduler ignores storage costs, so
schedules are CCR-independent and reused across the sweep; λ is chosen so
a task of average weight fails with probability pfail; checkpoint plans
and evaluations are redone per CCR point (CKPTNONE's estimator contains
no I/O and is evaluated once per schedule).

Since the engine refactor, :func:`run_figure` is a declarative adapter:
the grid is converted to a :class:`repro.engine.SweepSpec` (with the
historical ``stable_seed`` derivation, so figure numbers are unchanged)
and executed by :func:`repro.engine.run_sweep` — pass ``jobs>1`` to fan
the grid out over a process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.pipeline import Pipeline
from repro.engine.records import CellResult
from repro.engine.sweep import SweepSpec, run_sweep
from repro.errors import ExperimentError
from repro.util.rng import stable_seed

__all__ = ["FigureSpec", "PAPER_FIGURES", "run_cell", "run_figure", "log_grid"]


def log_grid(lo: float, hi: float, points: int) -> Tuple[float, ...]:
    """``points`` log-spaced values spanning ``[lo, hi]``."""
    if not (0 < lo <= hi) or points < 1:
        raise ExperimentError(f"bad log grid ({lo}, {hi}, {points})")
    if points == 1:
        return (lo,)
    return tuple(
        float(v) for v in np.logspace(math.log10(lo), math.log10(hi), points)
    )


#: The paper's processor counts per workflow size.
PAPER_PROCESSORS: Dict[int, Tuple[int, ...]] = {
    50: (3, 5, 7, 10),
    300: (18, 35, 52, 70),
    1000: (61, 123, 184, 245),
}

#: The paper's per-task failure probabilities.
PAPER_PFAILS: Tuple[float, ...] = (0.01, 0.001, 0.0001)


@dataclass(frozen=True)
class FigureSpec:
    """One figure's full parameter grid."""

    name: str
    family: str
    sizes: Tuple[int, ...] = (50, 300, 1000)
    pfails: Tuple[float, ...] = PAPER_PFAILS
    ccrs: Tuple[float, ...] = ()
    processors: Mapping[int, Tuple[int, ...]] = field(
        default_factory=lambda: dict(PAPER_PROCESSORS)
    )
    method: str = "pathapprox"
    seed: int = 2017  # CLUSTER 2017 vintage
    bandwidth: float = 100e6

    def shrink(
        self,
        sizes: Optional[Sequence[int]] = None,
        pfails: Optional[Sequence[float]] = None,
        ccr_points: Optional[int] = None,
        processors_per_size: Optional[int] = None,
    ) -> "FigureSpec":
        """A reduced grid (used by the CI-sized benchmark defaults)."""
        new_sizes = tuple(sizes) if sizes is not None else self.sizes
        new_pfails = tuple(pfails) if pfails is not None else self.pfails
        new_ccrs = self.ccrs
        if ccr_points is not None and self.ccrs:
            new_ccrs = log_grid(min(self.ccrs), max(self.ccrs), ccr_points)
        procs = {k: tuple(v) for k, v in self.processors.items()}
        if processors_per_size is not None:
            procs = {
                k: tuple(v[:processors_per_size]) for k, v in procs.items()
            }
        return replace(
            self, sizes=new_sizes, pfails=new_pfails, ccrs=new_ccrs, processors=procs
        )


#: The three paper figures with their published grids.
PAPER_FIGURES: Dict[str, FigureSpec] = {
    "fig5": FigureSpec(name="fig5", family="genome", ccrs=log_grid(1e-4, 1e-2, 7)),
    "fig6": FigureSpec(name="fig6", family="montage", ccrs=log_grid(1e-3, 1e0, 7)),
    "fig7": FigureSpec(name="fig7", family="ligo", ccrs=log_grid(1e-3, 1e0, 7)),
}


def run_cell(
    family: str,
    ntasks: int,
    processors: int,
    pfail: float,
    ccr: float,
    seed: int = 2017,
    method: str = "pathapprox",
    bandwidth: float = 100e6,
    save_final_outputs: bool = True,
) -> CellResult:
    """Run one experiment cell from scratch (convenience entry point).

    :func:`run_figure` amortises generation/scheduling across the grid;
    this standalone version runs a fresh pipeline end to end through the
    per-cell route (the engine's bit-exactness oracle), with the
    ``"stable"`` workflow and schedule seeds a 1×1 grid derives.  (The
    CLI's ``evaluate`` sub-command does not call it: it calls
    :func:`repro.api.run_strategies` with the root seed itself.)
    """
    pipe = Pipeline()
    wf_seed = stable_seed(seed, family, ntasks)
    workflow = pipe.prepare(family, ntasks, wf_seed)
    tree = pipe.mspg_tree(workflow)
    platform = pipe.platform_for(workflow, processors, pfail, bandwidth)
    schedule = pipe.schedule_for(
        workflow,
        processors,
        seed=stable_seed(seed, family, ntasks, processors),
        tree=tree,
    )
    return pipe.evaluate_cell(
        family=family,
        ntasks_requested=ntasks,
        workflow=workflow,
        schedule=schedule,
        platform=platform,
        pfail=pfail,
        ccr=ccr,
        method=method,
        seed=wf_seed,
        save_final_outputs=save_final_outputs,
    )


def run_figure(
    spec: FigureSpec,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[CellResult]:
    """Run a full figure grid; returns one :class:`CellResult` per point.

    Workflow generation is amortised per (family, size) and scheduling per
    (size, p) by the engine's artifact cache; the CKPTNONE estimate is
    reused across the CCR sweep (it contains no I/O).  ``jobs`` selects
    the engine's process-pool width (``1`` = in-process serial; records
    are identical either way).
    """
    return run_sweep(SweepSpec.from_figure(spec), jobs=jobs, progress=progress)
