"""Checkpoint strategies: CKPTALL and CKPTSOME (§I, §II-C).

* **CKPTALL** — the production default: every task's output is saved, every
  input read from stable storage; each task is its own segment.
* **CKPTSOME** — the paper's contribution: Algorithm 2 picks the optimal
  checkpoint positions inside every superchain (the superchain's last task
  is always checkpointed, which removes crossover dependencies).
* **CKPTNONE** — no plan exists by design: nothing is checkpointed and the
  expected makespan is estimated with Theorem 1
  (:mod:`repro.makespan.ckptnone`) or simulated with the restart model
  (:mod:`repro.simulation`).

Both plan builders share the segment cost model, so CKPTALL is exactly the
"all segments are singletons" point of CKPTSOME's search space; Algorithm 2
can therefore never produce a superchain whose expected time exceeds
CKPTALL's (tested property).

:func:`cuts_from_costs` gives either plan as its cut vector (:data:`Cuts`,
the checkpoint positions of each superchain) from a schedule's shared
:class:`~repro.checkpoint.segments.ScheduleCosts` instead of fresh cost
models — the engine's batched path, which builds no segment objects and
cuts exactly where the builders above do.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.checkpoint.dp import dp_from_table, optimal_checkpoint_positions
from repro.checkpoint.plan import CheckpointPlan
from repro.checkpoint.segments import (
    ScheduleCosts,
    SuperchainCostModel,
    expected_times,
)
from repro.errors import CheckpointError
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.scheduling.schedule import Schedule, Superchain

__all__ = [
    "ckpt_all_plan",
    "ckpt_some_plan",
    "cuts_from_costs",
    "Cuts",
    "plan_for_strategy",
    "STRATEGIES",
]

#: A plan as the batched path holds it: per superchain, in schedule
#: order, the 0-based positions after which a checkpoint is taken.
Cuts = Tuple[Tuple[int, ...], ...]


def _check_cover(sc: Superchain, positions: Sequence[int]) -> None:
    """Checkpoint positions must cut ``sc`` into contiguous non-empty
    slices that end at its last task."""
    start = 0
    for end in positions:
        if end < start:
            start = -1
            break
        start = end + 1
    if start != len(sc.tasks):
        raise CheckpointError(
            f"checkpoint positions {list(positions)} do not cover superchain "
            f"{sc.index} of length {len(sc.tasks)}"
        )


def _emit_segments(
    plan: CheckpointPlan,
    sc: Superchain,
    positions: List[int],
    costs: Callable[[int, int], Tuple[float, float, float]],
) -> None:
    """Cut ``sc`` after each of ``positions``; ``costs(i, j)`` gives the
    slice's ``(R, W, C)``."""
    _check_cover(sc, positions)
    start = 0
    for end in positions:
        read_cost, compute, ckpt_cost = costs(start, end)
        plan.add_segment(
            superchain_index=sc.index,
            processor=sc.processor,
            tasks=sc.tasks[start : end + 1],
            read_cost=read_cost,
            compute=compute,
            ckpt_cost=ckpt_cost,
        )
        start = end + 1


def _model_costs(
    cost: SuperchainCostModel,
) -> Callable[[int, int], Tuple[float, float, float]]:
    return lambda i, j: (
        cost.read_cost(i, j),
        cost.compute(i, j),
        cost.ckpt_cost(i, j),
    )


def ckpt_all_plan(
    workflow: Workflow,
    schedule: Schedule,
    platform: Platform,
    save_final_outputs: bool = True,
) -> CheckpointPlan:
    """CKPTALL: one segment (and one checkpoint) per task."""
    plan = CheckpointPlan("ckpt_all")
    for sc in schedule.superchains:
        cost = SuperchainCostModel(
            workflow, sc, platform, save_final_outputs=save_final_outputs
        )
        positions = list(range(len(sc.tasks)))
        _emit_segments(plan, sc, positions, _model_costs(cost))
    return plan


def ckpt_some_plan(
    workflow: Workflow,
    schedule: Schedule,
    platform: Platform,
    save_final_outputs: bool = True,
) -> CheckpointPlan:
    """CKPTSOME: Algorithm 2 per superchain."""
    plan = CheckpointPlan("ckpt_some")
    for sc in schedule.superchains:
        cost = SuperchainCostModel(
            workflow, sc, platform, save_final_outputs=save_final_outputs
        )
        positions, _ = optimal_checkpoint_positions(cost)
        _emit_segments(plan, sc, positions, _model_costs(cost))
    return plan


def cuts_from_costs(
    costs: ScheduleCosts, strategy: str, failure_rate: float
) -> Cuts:
    """The ``ckpt_all`` or ``ckpt_some`` plan's cut vector from a
    schedule's shared costs.

    Per superchain: ``range(n)`` for CKPTALL, Algorithm 2's positions
    for CKPTSOME, on the span tables of ``costs`` with ``failure_rate``
    as the platform's λ — where :func:`ckpt_all_plan` /
    :func:`ckpt_some_plan` cut on the workflow the costs were priced
    on.  Positions that do not cover a superchain raise the
    :class:`CheckpointError` :func:`_emit_segments` raises.
    """
    if strategy not in STRATEGIES:
        raise CheckpointError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        )
    cuts = []
    for k, chain in enumerate(costs.incidence.chains):
        if strategy == "ckpt_all":
            positions = tuple(range(chain.n))
        else:
            table = expected_times(costs.span_table(k), failure_rate)
            positions = tuple(dp_from_table(table)[0])
            _check_cover(chain.superchain, positions)
        cuts.append(positions)
    return tuple(cuts)


STRATEGIES: Dict[str, Callable[..., CheckpointPlan]] = {
    "ckpt_all": ckpt_all_plan,
    "ckpt_some": ckpt_some_plan,
}


def plan_for_strategy(
    strategy: str,
    workflow: Workflow,
    schedule: Schedule,
    platform: Platform,
    save_final_outputs: bool = True,
) -> CheckpointPlan:
    """Build the plan of the named strategy (``ckpt_all`` or ``ckpt_some``)."""
    try:
        builder = STRATEGIES[strategy]
    except KeyError:
        raise CheckpointError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)} "
            f"(ckpt_none has no checkpoint plan)"
        ) from None
    return builder(
        workflow, schedule, platform, save_final_outputs=save_final_outputs
    )
