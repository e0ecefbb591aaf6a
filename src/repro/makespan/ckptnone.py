"""CKPTNONE: the Theorem 1 estimator (§V of the paper).

Nothing is checkpointed; on the first failure the whole execution
restarts from scratch.  Computing the true expected makespan of
CKPTNONE is #P-complete (the paper's headline complexity result), so the
paper evaluates the strategy with the first-order estimate

.. math::

   EM(G) = (1 - pλW_{par})·W_{par} + pλW_{par}·\\tfrac{3}{2} W_{par}

where ``W_par`` is the failure-free parallel time of the schedule and
``p`` the number of processors: with probability ``pλW_par`` some
processor fails during the run (expected loss ``W_par/2``) and the run is
re-executed.  The paper notes the formula "is likely to be inaccurate"
but knows no better approximation; our restart-model simulator
(:func:`repro.simulation.batch.simulate_ckptnone`) quantifies exactly how
inaccurate (see ``benchmarks/bench_theorem1_ckptnone.py``).

``W_par`` contains no I/O: CKPTNONE keeps all data in memory, which is
the zero-overhead end of the paper's trade-off space.  Idle processors
cannot lose state, so by default only processors that execute at least
one task count toward ``p`` (set ``count_idle_processors=True`` for the
verbatim formula).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import EvaluationError
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.scheduling.schedule import Schedule
from repro.util.toposort import topological_order

__all__ = [
    "failure_free_makespan",
    "ckptnone_expected_makespan",
    "theorem1_makespan",
]


def failure_free_makespan(workflow: Workflow, schedule: Schedule) -> float:
    """``W_par``: failure-free makespan of the schedule, without any I/O.

    Longest path over the task DAG augmented with each processor's
    serialisation edges (consecutive scheduled tasks).
    """
    succs: Dict[str, List[str]] = {t: list(workflow.succs(t)) for t in workflow.task_ids}
    for proc in range(schedule.n_processors):
        seq = schedule.task_sequence(proc)
        for u, v in zip(seq, seq[1:]):
            succs[u].append(v)
    order = topological_order(workflow.task_ids, succs)
    completion: Dict[str, float] = {}
    preds: Dict[str, List[str]] = {t: [] for t in workflow.task_ids}
    for u, vs in succs.items():
        for v in vs:
            preds[v].append(u)
    makespan = 0.0
    for v in order:
        start = max((completion[u] for u in preds[v]), default=0.0)
        completion[v] = start + workflow.weight(v)
        makespan = max(makespan, completion[v])
    return makespan


def ckptnone_expected_makespan(
    workflow: Workflow,
    schedule: Schedule,
    platform: Platform,
    count_idle_processors: bool = False,
) -> float:
    """Theorem 1's first-order expected makespan of CKPTNONE.

    ``(1 − pλW)·W + pλW·(3/2)W = W·(1 + pλW/2)`` — applied *verbatim*
    even when ``pλW >= 1``, where it is no longer a probability mix: the
    paper uses the formula throughout its grids (it is what pushes the
    CKPTNONE curves out of the plotted range for large failure rates and
    workflows), explicitly conceding it "is likely to be inaccurate".
    The restart-model simulator bounds the true value from above:
    ``W·(e^{pλW} − 1)/(pλW) >= W·(1 + pλW/2)`` for all rates.
    """
    return theorem1_makespan(
        failure_free_makespan(workflow, schedule),
        schedule,
        platform,
        count_idle_processors,
    )


def theorem1_makespan(
    wpar: float,
    schedule: Schedule,
    platform: Platform,
    count_idle_processors: bool = False,
) -> float:
    """:func:`ckptnone_expected_makespan` from the schedule's ``W_par``.

    ``W_par`` depends on neither file sizes nor λ, so a caller pricing
    many failure rates computes it once.
    """
    p = (
        platform.processors
        if count_idle_processors
        else len(schedule.used_processors())
    )
    if p == 0:
        return 0.0
    q = p * platform.failure_rate * wpar
    return wpar * (1.0 + 0.5 * q)
