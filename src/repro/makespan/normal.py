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
fold declines, the numpy fold below runs.  The scalar :func:`normal`
and that numpy fold are the bit-exactness oracles.
"""

from __future__ import annotations

import math
from typing import List, Tuple

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


def normal(dag: ProbDAG) -> float:
    """Sculli's estimate of the expected makespan of a 2-state DAG."""
    n = dag.n
    if n == 0:
        return 0.0
    means: List[float] = [0.0] * n
    variances: List[float] = [0.0] * n
    for v in range(n):
        t = dag.task(v)
        m_ready, v_ready = 0.0, 0.0
        first = True
        for q in dag.preds[v]:
            if first:
                m_ready, v_ready = means[q], variances[q]
                first = False
            else:
                m_ready, v_ready = clark_max(m_ready, v_ready, means[q], variances[q])
        means[v] = m_ready + t.mean
        variances[v] = v_ready + t.variance

    m_out, v_out = 0.0, 0.0
    first = True
    for s in dag.sinks():
        if first:
            m_out, v_out = means[s], variances[s]
            first = False
        else:
            m_out, v_out = clark_max(m_out, v_out, means[s], variances[s])
    return m_out


# --------------------------------------------------------------------- #
# batched evaluation over a parameterised DAG template
# --------------------------------------------------------------------- #

# math.erf has no NumPy counterpart and np.exp is not guaranteed to
# round identically to libm's exp, so the transcendental pieces of the
# numpy Clark fold go through the *scalar* functions element-wise;
# everything algebraic around them is one NumPy pass over the cell axis.
# The C fold calls libm's erf and exp, which the native loader checks
# against these python functions before it lets the fold run.
_ERF = np.frompyfunc(math.erf, 1, 1)
_EXP = np.frompyfunc(math.exp, 1, 1)


def _clark_max_cells(
    m1: np.ndarray, v1: np.ndarray, m2: np.ndarray, v2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`clark_max` (``rho=0``) over a leading cell axis.

    Element-wise bit-identical to the scalar function: every arithmetic
    step mirrors its expression (down to association order), and the
    degenerate branch is applied by mask after computing both sides.
    """
    rho = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a2 = v1 + v2 - 2.0 * rho * np.sqrt(v1 * v2)
        degenerate = a2 <= 1e-300
        a = np.sqrt(a2)
        alpha = (m1 - m2) / a
        cdf_pos = 0.5 * (1.0 + _ERF(alpha / _SQRT2).astype(float))
        cdf_neg = 0.5 * (1.0 + _ERF((-alpha) / _SQRT2).astype(float))
        pdf = _INV_SQRT2PI * _EXP(-0.5 * alpha * alpha).astype(float)
        mean = m1 * cdf_pos + m2 * cdf_neg + a * pdf
        second = (
            (m1 * m1 + v1) * cdf_pos
            + (m2 * m2 + v2) * cdf_neg
            + (m1 + m2) * a * pdf
        )
        spread = second - mean * mean
        # Python's max(0.0, x) keeps x only when x > 0 (NaN falls back
        # to 0.0); np.maximum would propagate NaN instead.
        var = np.where(spread > 0.0, spread, 0.0)
        larger_first = m1 >= m2
        mean = np.where(degenerate, np.where(larger_first, m1, m2), mean)
        var = np.where(degenerate, np.where(larger_first, v1, v2), var)
    return mean, var


def normal_batch(template) -> np.ndarray:
    """Sculli's estimates for every cell of a parameterised DAG.

    ``template`` is a :class:`~repro.makespan.paramdag.ParamDAG`.  With
    native kernels live, one C call folds every cell
    (:func:`repro.makespan.native.normal_fold`).  Otherwise the moment
    propagation below runs with a leading cell axis — one vectorised
    Clark fold per edge instead of one scalar fold per edge per cell.
    Both are bit-identical to evaluating each materialised cell with
    :func:`normal` (pinned by the batch-parity tests and the native
    differential fuzz).
    """
    n = template.n
    n_cells = template.n_cells
    if n == 0:
        return np.zeros(n_cells)
    folded = _native.normal_fold(template, _SQRT2, _INV_SQRT2PI)
    if folded is not None:
        return folded
    task_means = template.means
    task_vars = template.variances
    means: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    variances: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    for v in range(n):
        preds = template.preds[v]
        if preds:
            m_ready, v_ready = means[preds[0]], variances[preds[0]]
            for q in preds[1:]:
                m_ready, v_ready = _clark_max_cells(
                    m_ready, v_ready, means[q], variances[q]
                )
        else:
            m_ready = np.zeros(n_cells)
            v_ready = np.zeros(n_cells)
        means[v] = m_ready + task_means[:, v]
        variances[v] = v_ready + task_vars[:, v]

    sinks = template.sinks()
    m_out, v_out = means[sinks[0]], variances[sinks[0]]
    for s in sinks[1:]:
        m_out, v_out = _clark_max_cells(m_out, v_out, means[s], variances[s])
    return np.asarray(m_out, dtype=float)
