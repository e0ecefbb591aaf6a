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

:func:`plan_group` plans every cell of a batched group under both
strategies in one array program: Algorithm 2 runs once per column over
all (cell, superchain) rows of every CCR's span tables
(:class:`~repro.checkpoint.segments.GroupCosts`), each plan is held as
its cut vector (:data:`Cuts`, the checkpoint positions of each
superchain), and every slice a plan cuts is priced once.  It cuts
exactly where the builders above do, without segment objects.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.checkpoint.dp import dp_columns, optimal_checkpoint_positions
from repro.checkpoint.plan import CheckpointPlan, check_segment_costs
from repro.checkpoint.segments import (
    GroupCosts,
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
    "plan_group",
    "GroupPlans",
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


class GroupPlans:
    """Both strategies' plans for every cell of a batched group.

    ``some[k]`` is cell ``k``'s CKPTSOME cut vector (cells that cut alike
    share one object) and ``all`` CKPTALL's, every cell's.  ``rates[k]``
    is cell ``k``'s failure rate; :meth:`spans` gives the spans of the
    slices the plans cut, priced once per CCR.
    """

    __slots__ = ("some", "all", "rates", "_ccr", "_slot", "_costs", "_good",
                 "_spans")

    def __init__(
        self,
        some: List[Cuts],
        every: Cuts,
        costs: GroupCosts,
        slot: np.ndarray,
        priced: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        self.some = some
        self.all = every
        self.rates = costs.rates
        self._ccr = costs.ccr
        self._slot = slot
        self._costs = priced
        read_cost, compute, ckpt_cost = priced
        self._good = (read_cost >= 0) & (compute >= 0) & (ckpt_cost >= 0)
        with np.errstate(invalid="ignore", over="ignore"):
            self._spans = read_cost + compute + ckpt_cost

    def spans(
        self,
        cells: np.ndarray,
        chain: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
    ) -> np.ndarray:
        """``X = (R + W) + C`` of each slice ``[start..end]`` of
        superchain ``chain``, one row per cell of ``cells``.

        Summed as :attr:`~repro.checkpoint.plan.Segment.span` sums them;
        a negative or NaN cost raises the :class:`CheckpointError` of the
        segment's own cost check, for the first such slice in row order.
        """
        slot = self._slot[self._ccr[cells][:, None], chain, start, end]
        good = self._good[slot]
        if not good.all():
            first = slot.flat[np.argmin(good)]
            check_segment_costs(*(float(cost[first]) for cost in self._costs))
        return self._spans[slot]


def _cuts_of(cut: np.ndarray) -> Cuts:
    """The cut vector of a ``(chains, width)`` mask of positions."""
    positions = np.nonzero(cut)[1].tolist()
    cuts = []
    start = 0
    for count in cut.sum(axis=1).tolist():
        cuts.append(tuple(positions[start : start + count]))
        start += count
    return tuple(cuts)


def plan_group(costs: GroupCosts) -> GroupPlans:
    """CKPTSOME and CKPTALL for every cell of a batched group.

    Per cell, the cut vectors :func:`ckpt_some_plan` /
    :func:`ckpt_all_plan` give on the cell's CCR-scaled workflow with its
    failure rate as λ.  One array program prices every CCR's span
    tables, runs Algorithm 2 once per column over all (cell, superchain)
    rows (:func:`~repro.checkpoint.dp.dp_columns`), and prices each slice
    either strategy cuts once per CCR.  Positions that do not cover a
    superchain raise the :class:`CheckpointError` :func:`_emit_segments`
    raises.
    """
    incidence = costs.incidence
    lengths = incidence.lengths
    width = incidence.width
    cells, chains = len(costs.rates), len(lengths)
    spans, reads = costs.span_tables()
    rates = costs.rates[:, None, None, None]

    def columns(lo: int, hi: int) -> np.ndarray:
        table = expected_times(spans[costs.ccr, :, :, lo:hi], rates)
        return table.reshape(cells * chains, width, hi - lo)

    cut = dp_columns(columns, np.tile(lengths, cells), width)[0]
    cut = cut.reshape(cells, chains, width)
    # Pricing needs only the read sums: free the tables first.
    shape = spans.shape
    del spans
    position = np.arange(width)
    uncovered = ~cut[:, np.arange(chains), lengths - 1] | (
        cut & (position >= lengths[:, None])
    ).any(axis=2)
    if uncovered.any():
        k, s = np.argwhere(uncovered)[0]
        _check_cover(incidence.superchains[s], np.flatnonzero(cut[k, s]).tolist())

    some: List[Cuts] = []
    seen: Dict[bytes, Cuts] = {}
    for k in range(cells):
        key = cut[k].tobytes()
        if key not in seen:
            seen[key] = _cuts_of(cut[k])
        some.append(seen[key])
    every = tuple(tuple(range(n)) for n in lengths.tolist())

    # Every slice a plan cuts: CKPTSOME's start after the previous cut,
    # CKPTALL's are the single tasks.
    previous = np.maximum.accumulate(np.where(cut, position, -1), axis=2)
    cell, chain, end = np.nonzero(cut)
    start = np.where(end > 0, previous[cell, chain, end - 1] + 1, 0)
    used = np.zeros(shape, dtype=bool)
    used[costs.ccr[cell], chain, start, end] = True
    chain, task = np.nonzero(position < lengths[:, None])
    used[:, chain, task, task] = True
    slices = np.nonzero(used)
    slot = np.full(shape, -1, dtype=np.int32)
    slot[slices] = np.arange(len(slices[0]))
    # One CCR row at a time, which bounds the pricing's scratch arrays.
    rows = np.searchsorted(slices[0], np.arange(shape[0] + 1))
    priced = zip(*(
        costs.slice_costs(reads, *(axis[lo:hi] for axis in slices))
        for lo, hi in zip(rows[:-1], rows[1:])
    ))
    return GroupPlans(
        some, every, costs, slot, tuple(map(np.concatenate, priced))
    )


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
