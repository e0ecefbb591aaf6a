"""Sculli's normal approximation (the paper's NORMAL method, §II-B).

Every completion time is approximated by a normal distribution:

* a node's completion = max of its predecessors' completions + its own
  duration (mean/variance of the 2-state law used exactly);
* the max of two normals is replaced by a normal matching the exact first
  two moments of the max, via Clark's formulas (1961), assuming
  independence;
* multi-way maxima fold pairwise.

Cheap (``O(E)`` scalar work) but biased on graphs with many correlated
paths — exactly the behaviour the §VI-B accuracy study quantifies.

:func:`normal` prices one DAG; :func:`normal_batch` prices every cell
of a :class:`~repro.makespan.paramdag.ParamDAG` template.  With native
kernels live the whole template is one C call
(:func:`repro.makespan.native.normal_fold`), which folds the same
formulas with libm's ``erf`` and ``exp`` once the loader has checked
them against ``math.erf`` and ``math.exp``; otherwise, or when the C
fold declines, the scalar fold of :func:`normal` runs once per cell.
That scalar fold is the one python implementation and the
bit-exactness oracle.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.makespan import native as _native
from repro.makespan.probdag import ProbDAG

__all__ = ["normal", "normal_batch", "clark_max"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    """Standard normal pdf."""
    return _INV_SQRT2PI * math.exp(-0.5 * x * x)


def _Phi(x: float) -> float:
    """Standard normal cdf."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def clark_max(
    m1: float, v1: float, m2: float, v2: float, rho: float = 0.0
) -> Tuple[float, float]:
    """Clark's moment-matching for ``max(X1, X2)`` of correlated normals.

    Returns the exact mean and variance of the max of two jointly normal
    variables with means ``m1, m2``, variances ``v1, v2`` and correlation
    ``rho``; the method then *treats* the max as normal with those moments.
    """
    a2 = v1 + v2 - 2.0 * rho * math.sqrt(v1 * v2)
    if a2 <= 1e-300:
        # (near-)perfectly correlated equal-variance case: max is the
        # larger mean's variable.
        if m1 >= m2:
            return m1, v1
        return m2, v2
    a = math.sqrt(a2)
    alpha = (m1 - m2) / a
    cdf_pos = _Phi(alpha)
    cdf_neg = _Phi(-alpha)
    pdf = _phi(alpha)
    mean = m1 * cdf_pos + m2 * cdf_neg + a * pdf
    second = (
        (m1 * m1 + v1) * cdf_pos
        + (m2 * m2 + v2) * cdf_neg
        + (m1 + m2) * a * pdf
    )
    var = max(0.0, second - mean * mean)
    return mean, var


def _fold(
    preds: Sequence[Sequence[int]],
    sinks: Sequence[int],
    task_means: Sequence[float],
    task_vars: Sequence[float],
) -> float:
    """Sculli's estimate of one DAG, given its structure and task moments.

    Walks the nodes in order: a node's ready time is the Clark max of its
    predecessors' completions in list order, its completion that plus
    the task's moments; the estimate is the Clark max of the sinks.
    """
    n = len(task_means)
    means: List[float] = [0.0] * n
    variances: List[float] = [0.0] * n
    for v in range(n):
        m_ready, v_ready = 0.0, 0.0
        first = True
        for q in preds[v]:
            if first:
                m_ready, v_ready = means[q], variances[q]
                first = False
            else:
                m_ready, v_ready = clark_max(m_ready, v_ready, means[q], variances[q])
        means[v] = m_ready + task_means[v]
        variances[v] = v_ready + task_vars[v]

    m_out, v_out = 0.0, 0.0
    first = True
    for s in sinks:
        if first:
            m_out, v_out = means[s], variances[s]
            first = False
        else:
            m_out, v_out = clark_max(m_out, v_out, means[s], variances[s])
    return m_out


def normal(dag: ProbDAG) -> float:
    """Sculli's estimate of the expected makespan of a 2-state DAG."""
    tasks = dag.tasks()
    return _fold(
        dag.preds,
        dag.sinks(),
        [t.mean for t in tasks],
        [t.variance for t in tasks],
    )


def normal_batch(template) -> np.ndarray:
    """Sculli's estimates for every cell of a parameterised DAG.

    ``template`` is a :class:`~repro.makespan.paramdag.ParamDAG`.  With
    native kernels live, one C call folds every cell
    (:func:`repro.makespan.native.normal_fold`).  Otherwise the scalar
    fold of :func:`normal` runs once per cell on its rows of the
    template's task moments, which hold the values the materialised
    cell's tasks report, so either way each estimate is bit-identical
    to :func:`normal` of that cell (pinned by the batch-parity tests
    and the native differential fuzz).
    """
    if template.n == 0:
        return np.zeros(template.n_cells)
    folded = _native.normal_fold(template, _SQRT2, _INV_SQRT2PI)
    if folded is not None:
        return folded
    preds = template.preds
    sinks = template.sinks()
    return np.array(
        [
            _fold(preds, sinks, means, variances)
            for means, variances in zip(
                template.means.tolist(), template.variances.tolist()
            )
        ],
        dtype=float,
    )
