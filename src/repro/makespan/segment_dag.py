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

:func:`build_segment_dag` builds one cell's :class:`ProbDAG` (the
per-cell oracle).  Cells whose plans cut the schedule the same way share
every edge, so :class:`SegmentDagSkeleton` builds that structure once
and fills a :class:`ParamDAG` row per cell from its segment spans.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.checkpoint.plan import CheckpointPlan
from repro.errors import EvaluationError
from repro.makespan.paramdag import ParamDAG
from repro.makespan.probdag import ProbDAG
from repro.makespan.two_state import RETRY_FACTOR, _P_MAX, two_state_from_span
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.scheduling.schedule import Schedule
from repro.util.toposort import topological_order

__all__ = ["build_segment_dag", "segment_name", "SegmentDagSkeleton"]


def segment_name(index: int) -> str:
    """Canonical node name of segment ``index`` in the macro-DAG."""
    return f"seg{index:06d}"


def _segment_edges(
    workflow: Workflow,
    plan: CheckpointPlan,
    extra_edges: Sequence[Tuple[str, str]] = (),
) -> Tuple[Dict[int, Set[int]], List[int]]:
    """Successor sets of the plan's segments and their topological order."""
    if plan.n_tasks != workflow.n_tasks:
        raise EvaluationError(
            f"plan covers {plan.n_tasks} tasks, workflow has {workflow.n_tasks}"
        )
    nseg = plan.n_segments
    succs: Dict[int, Set[int]] = {i: set() for i in range(nseg)}

    # Per-processor serialisation edges.
    proc_last: Dict[int, int] = {}
    for seg in plan.segments:
        prev = proc_last.get(seg.processor)
        if prev is not None:
            succs[prev].add(seg.index)
        proc_last[seg.processor] = seg.index

    # Data edges (plus any extra task-level edges).
    def lift(u: str, v: str) -> None:
        su = plan.segment_of(u).index
        sv = plan.segment_of(v).index
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
    succs, order = _segment_edges(workflow, plan, extra_edges)
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

    Node names, predecessor/successor lists and the topological order
    are exactly those :func:`build_segment_dag` gives any plan that cuts
    the schedule's superchains the same way; :meth:`template` then fills
    the 2-state rows of many such plans straight from their segment
    spans, without a :class:`ProbDAG` per cell.
    """

    __slots__ = ("order", "names", "preds", "succs")

    def __init__(self, workflow: Workflow, plan: CheckpointPlan) -> None:
        succs, order = _segment_edges(workflow, plan)
        node_of = {idx: node for node, idx in enumerate(order)}
        preds: List[Set[int]] = [set() for _ in order]
        for u, vs in succs.items():
            for v in vs:
                preds[node_of[v]].add(node_of[u])
        self.order: List[int] = order
        self.names: List[str] = [segment_name(idx) for idx in order]
        self.preds: List[List[int]] = [sorted(ps) for ps in preds]
        self.succs: List[List[int]] = [[] for _ in order]
        for node, ps in enumerate(self.preds):
            for q in ps:
                self.succs[q].append(node)

    def template(
        self, cells: Sequence[Tuple[CheckpointPlan, float]]
    ) -> ParamDAG:
        """One :class:`ParamDAG` row per ``(plan, failure_rate)`` cell.

        Every plan must share this skeleton's segmentation.  Each row is
        Equation (1) of the cell's segment spans with the probability
        clamped below 1, bit-identical to :func:`build_segment_dag`.
        """
        spans = np.array(
            [[plan.segments[i].span for i in self.order] for plan, _ in cells],
            dtype=float,
        ).reshape(len(cells), len(self.order))
        rates = np.array([rate for _, rate in cells], dtype=float)
        p = rates[:, None] * spans
        p[p >= 1.0] = _P_MAX
        return ParamDAG(
            self.names, self.preds, self.succs, spans, RETRY_FACTOR * spans, p
        )
