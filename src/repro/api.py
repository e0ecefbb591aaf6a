"""High-level one-call pipeline: generate/transform → schedule → checkpoint
→ evaluate all three strategies.

This is the back-compat facade the examples and the CLI use; since the
engine refactor it is a thin wrapper over the staged
:class:`repro.engine.Pipeline` — each stage remains available
individually there, and sweep-shaped workloads should use
:func:`repro.engine.run_sweep`, which reuses the M-SPG tree and schedule
across grid cells instead of recomputing them per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ccr import ccr_of
from repro.checkpoint.plan import CheckpointPlan
from repro.engine.pipeline import Pipeline
from repro.makespan.probdag import ProbDAG
from repro.mspg.expr import MSPG
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.scheduling.schedule import Schedule
from repro.util.rng import SeedLike

__all__ = ["StrategyOutcome", "run_strategies"]


@dataclass
class StrategyOutcome:
    """Everything produced by one :func:`run_strategies` call."""

    workflow: Workflow
    platform: Platform
    tree: MSPG
    schedule: Schedule
    plan_some: CheckpointPlan
    plan_all: CheckpointPlan
    dag_some: ProbDAG
    dag_all: ProbDAG
    em_some: float
    em_all: float
    em_none: float

    @property
    def ratio_all(self) -> float:
        """``EM(CKPTALL) / EM(CKPTSOME)`` — > 1 means CKPTSOME wins."""
        return self.em_all / self.em_some

    @property
    def ratio_none(self) -> float:
        """``EM(CKPTNONE) / EM(CKPTSOME)`` — > 1 means CKPTSOME wins."""
        return self.em_none / self.em_some

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        wf, plat = self.workflow, self.platform
        lines = [
            f"workflow  : {wf.name} ({wf.n_tasks} tasks, {wf.n_edges} edges, "
            f"CCR={ccr_of(wf, plat):.4g})",
            f"platform  : p={plat.processors}, λ={plat.failure_rate:.3g}/s, "
            f"bw={plat.bandwidth:.3g} B/s",
            f"schedule  : {len(self.schedule.superchains)} superchains on "
            f"{len(self.schedule.used_processors())} processors",
            f"checkpoints: CKPTSOME {self.plan_some.n_segments} / "
            f"CKPTALL {self.plan_all.n_segments}",
            f"E[makespan]: some={self.em_some:.6g}s  all={self.em_all:.6g}s  "
            f"none={self.em_none:.6g}s",
            f"relative  : all/some={self.ratio_all:.4f}  "
            f"none/some={self.ratio_none:.4f}",
        ]
        return "\n".join(lines)


def run_strategies(
    workflow: Workflow,
    processors: int,
    pfail: float = 1e-3,
    ccr: Optional[float] = None,
    seed: SeedLike = None,
    method: str = "pathapprox",
    bandwidth: float = 100e6,
    linearizer: str = "random",
    save_final_outputs: bool = True,
    pipeline: Optional[Pipeline] = None,
    eval_seed: Optional[int] = None,
) -> StrategyOutcome:
    """Run the full paper pipeline on one workflow.

    Parameters mirror §VI-A: ``pfail`` fixes λ via the workflow's mean
    task weight; ``ccr`` (if given) rescales file sizes to the target
    Communication-to-Computation Ratio; ``method`` selects the
    expected-makespan estimator.  ``eval_seed`` pins the sampling
    stream of stochastic estimators (Monte Carlo); the default ``None``
    keeps the historical fresh-entropy draw (closed-form methods ignore
    it either way).  ``repro evaluate --eval-seed-policy content``
    derives it through the :func:`repro.engine.sweep.cell_eval_seed`
    contract.

    Pass an existing :class:`repro.engine.Pipeline` via ``pipeline`` to
    share its artifact cache across calls: repeat calls on the same
    workflow then skip the ``mspgify`` stage, and — when ``seed`` is an
    int — the ``allocate`` stage too (``seed=None`` asks for a fresh
    random schedule, which is never cached).  By default each call runs
    on a fresh pipeline and behaves exactly like the historical
    monolithic implementation.
    """
    pipe = pipeline if pipeline is not None else Pipeline()
    base = workflow  # unscaled: keys the CCR-invariant stage caches
    platform = pipe.platform_for(workflow, processors, pfail, bandwidth)
    if ccr is not None:
        workflow = pipe.scale(workflow, platform, ccr)
    # The tree and schedule are file-size-invariant (the M-SPG is pure
    # structure; the scheduler ignores storage costs), so they are built
    # from — and cached against — the unscaled workflow: a CCR sweep
    # over a shared pipeline reuses both across the axis, exactly like
    # the engine's sweep executor.
    tree = pipe.mspg_tree(base)
    schedule = pipe.schedule_for(
        base, processors, seed=seed, linearizer=linearizer, tree=tree
    )
    plan_some, plan_all = pipe.plans(
        workflow, schedule, platform, save_final_outputs
    )
    dag_some = pipe.segment_dag(workflow, schedule, plan_some, platform)
    dag_all = pipe.segment_dag(workflow, schedule, plan_all, platform)
    return StrategyOutcome(
        workflow=workflow,
        platform=platform,
        tree=tree,
        schedule=schedule,
        plan_some=plan_some,
        plan_all=plan_all,
        dag_some=dag_some,
        dag_all=dag_all,
        em_some=pipe.evaluate(dag_some, method, eval_seed),
        em_all=pipe.evaluate(dag_all, method, eval_seed),
        em_none=pipe.evaluate_none(
            base, schedule, platform, cacheable=isinstance(seed, int)
        ),
    )
