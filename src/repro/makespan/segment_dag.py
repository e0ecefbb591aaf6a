"""Coalescing checkpointed segments into a 2-state macro-DAG (§II-C).

Once a checkpoint plan cuts every superchain into segments, each segment
becomes one macro-task of deterministic cost ``X = R + W + C``, and
Equation (1) turns it into a 2-state variable (``X`` w.p. ``1 − λX``,
``1.5·X`` w.p. ``λX``).  The macro-DAG's edges are:

* per-processor serialisation — consecutive segments of each processor's
  execution sequence (this covers both intra-superchain sequencing and
  superchain ordering);
* data dependencies — for every workflow edge whose endpoints live in
  different segments.

Because superchains are always checkpointed (their exit data is on stable
storage before any dependent entry task runs), these edges capture the
full recovery semantics: no macro-task ever re-executes because of a
failure elsewhere — exactly the crossover-freedom argument of §IV-A.

:func:`build_segment_dag` builds one cell's :class:`ProbDAG` from its
:class:`~repro.checkpoint.plan.CheckpointPlan` (the per-cell oracle).
Cells whose plans cut the schedule the same way share every edge, so
:class:`SegmentDagSkeleton` builds that structure once from the plans'
cut vector (:data:`~repro.checkpoint.strategies.Cuts`) and gathers a
:class:`ParamDAG` row per cell from the spans its group's
:class:`~repro.checkpoint.strategies.GroupPlans` priced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.checkpoint.plan import CheckpointPlan
from repro.errors import CheckpointError, EvaluationError
from repro.makespan.paramdag import ParamDAG
from repro.makespan.probdag import ProbDAG
from repro.makespan.two_state import RETRY_FACTOR, _P_MAX, two_state_from_span
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.scheduling.schedule import Schedule
from repro.util.toposort import topological_order

if TYPE_CHECKING:  # repro.checkpoint imports repro.makespan
    from repro.checkpoint.strategies import GroupPlans

__all__ = ["build_segment_dag", "segment_name", "SegmentDagSkeleton"]


def segment_name(index: int) -> str:
    """Canonical node name of segment ``index`` in the macro-DAG."""
    return f"seg{index:06d}"


def _segment_edges(
    workflow: Workflow,
    segment_of: Dict[str, int],
    processors: Sequence[int],
    extra_edges: Sequence[Tuple[str, str]] = (),
) -> Tuple[Dict[int, Set[int]], List[int]]:
    """Successor sets of the segments and their topological order.

    ``segment_of`` maps each task to its segment's index and
    ``processors[i]`` is segment ``i``'s processor; segment indices
    follow each processor's execution order.
    """
    if len(segment_of) != workflow.n_tasks:
        raise EvaluationError(
            f"plan covers {len(segment_of)} tasks, workflow has "
            f"{workflow.n_tasks}"
        )
    nseg = len(processors)
    succs: Dict[int, Set[int]] = {i: set() for i in range(nseg)}

    # Per-processor serialisation edges.
    proc_last: Dict[int, int] = {}
    for index, processor in enumerate(processors):
        prev = proc_last.get(processor)
        if prev is not None:
            succs[prev].add(index)
        proc_last[processor] = index

    # Data edges (plus any extra task-level edges).
    def lift(u: str, v: str) -> None:
        try:
            su = segment_of[u]
            sv = segment_of[v]
        except KeyError as exc:
            raise CheckpointError(
                f"task {exc.args[0]!r} is not in the plan"
            ) from None
        if su != sv:
            succs[su].add(sv)

    for u, v in workflow.edges():
        lift(u, v)
    for u, v in extra_edges:
        lift(u, v)

    return succs, topological_order(list(range(nseg)), succs)


def build_segment_dag(
    workflow: Workflow,
    schedule: Schedule,
    plan: CheckpointPlan,
    platform: Platform,
    extra_edges: Sequence[Tuple[str, str]] = (),
    clamp: bool = True,
) -> ProbDAG:
    """Build the 2-state macro-DAG of a checkpointed schedule.

    ``extra_edges`` accepts additional task-level dependencies (e.g. the
    dummy synchronisation edges of ``mspgify`` for the structural-sync
    ablation); they are lifted to segment level like data edges.
    """
    segment_of = {t: seg.index for seg in plan.segments for t in seg.tasks}
    succs, order = _segment_edges(
        workflow,
        segment_of,
        [seg.processor for seg in plan.segments],
        extra_edges,
    )
    lam = platform.failure_rate
    dag = ProbDAG()
    preds: Dict[int, List[int]] = {i: [] for i in range(plan.n_segments)}
    for u, vs in succs.items():
        for v in vs:
            preds[v].append(u)
    for idx in order:
        seg = plan.segments[idx]
        t = two_state_from_span(segment_name(idx), seg.span, lam, clamp=clamp)
        dag.add_task(t, preds=[segment_name(q) for q in preds[idx]])
    return dag


class SegmentDagSkeleton:
    """The structure of one segmentation's macro-DAG, built once.

    ``cuts`` holds, per superchain of ``schedule``, the positions after
    which a checkpoint is taken (:data:`~repro.checkpoint.strategies.
    Cuts`).  Node names, predecessor/successor lists and the topological
    order are exactly those :func:`build_segment_dag` gives the plan
    that cuts there; ``slices`` names each node's superchain slice
    ``(chain, i, j)``.  :meth:`template` then fills the 2-state rows of
    many cells straight from their segment costs, without a plan or a
    :class:`ProbDAG` per cell.
    """

    __slots__ = ("order", "names", "preds", "succs", "slices")

    def __init__(
        self,
        workflow: Workflow,
        schedule: Schedule,
        cuts: Sequence[Sequence[int]],
    ) -> None:
        segment_of: Dict[str, int] = {}
        processors: List[int] = []
        slices: List[Tuple[int, int, int]] = []
        for chain, (sc, positions) in enumerate(
            zip(schedule.superchains, cuts)
        ):
            start = 0
            for end in positions:
                for task in sc.tasks[start : end + 1]:
                    segment_of[task] = len(slices)
                processors.append(sc.processor)
                slices.append((chain, start, end))
                start = end + 1
        succs, order = _segment_edges(workflow, segment_of, processors)
        node_of = {idx: node for node, idx in enumerate(order)}
        preds: List[Set[int]] = [set() for _ in order]
        for u, vs in succs.items():
            for v in vs:
                preds[node_of[v]].add(node_of[u])
        self.order: List[int] = order
        self.names: List[str] = [segment_name(idx) for idx in order]
        self.slices: List[Tuple[int, int, int]] = [slices[idx] for idx in order]
        self.preds: List[List[int]] = [sorted(ps) for ps in preds]
        self.succs: List[List[int]] = [[] for _ in order]
        for node, ps in enumerate(self.preds):
            for q in ps:
                self.succs[q].append(node)

    def template(self, plans: GroupPlans, cells: Sequence[int]) -> ParamDAG:
        """One :class:`ParamDAG` row per cell ``cells[k]`` of ``plans``.

        Each row is Equation (1) of the skeleton's segment spans on the
        cell's CCR (:meth:`GroupPlans.spans`, under the segment's cost
        check) with the cell's failure rate, the probability clamped
        below 1, bit-identical to :func:`build_segment_dag` on the plan
        that cuts there.
        """
        chain, start, end = np.array(self.slices, dtype=np.intp).reshape(-1, 3).T
        cells = np.asarray(cells, dtype=np.intp)
        spans = plans.spans(cells, chain, start, end)
        with np.errstate(invalid="ignore", over="ignore"):
            p = plans.rates[cells][:, None] * spans
            p[p >= 1.0] = _P_MAX
            long = RETRY_FACTOR * spans
        return ParamDAG(self.names, self.preds, self.succs, spans, long, p)
