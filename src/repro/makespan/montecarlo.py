"""Monte Carlo expected-makespan estimation (§II-B, §VI-B).

The paper uses 300,000-trial Monte Carlo as ground truth: sample each
task's 2-state duration, compute the longest path, average.  Sampling and
longest-path propagation are fully vectorised; trials are processed in
batches to bound memory.  Each batch's durations are written straight
into the ``(n, batch)`` layout of the one longest-path kernel,
:func:`repro.makespan.probdag._propagate_transposed`, whose per-node
passes stream contiguous rows.

:func:`montecarlo_batch` is the batched entry point over a
:class:`~repro.makespan.paramdag.ParamDAG` template: every cell keeps
its own independent sampling stream (one
:class:`numpy.random.Generator` per cell), while the same kernel runs
once per trial sub-chunk over every cell's columns stacked side by
side.  Because sampling, duration construction and propagation are
element-for-element the operations the per-cell path performs, the
batched result is **bit-identical** to evaluating each cell through
:func:`montecarlo` with its own seed — the batch contract the engine's
batched sweep stage relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import EvaluationError
from repro.makespan.probdag import ProbDAG, _propagate_transposed
from repro.util.rng import SeedLike, as_rng

__all__ = [
    "montecarlo",
    "montecarlo_batch",
    "montecarlo_result",
    "MonteCarloResult",
    "sample_makespans",
]

#: Memory bound for the batched trial tensor: cells are processed in
#: chunks such that one cell chunk's live float blocks (the per-cell
#: uniform draws plus the stacked transposed duration/completion
#: matrices) stay under this many bytes.
MC_BATCH_MAX_BYTES = 256 * 1024 * 1024

#: Trial sub-chunk of the batched longest-path propagation.  Each
#: cell's ``(sub, n)`` uniform slice is transposed into the stacked
#: ``(n, cells·sub)`` duration matrix while it is still cache-resident.
#: Sub-chunking is column-local, so it never changes a sample.
MC_PROPAGATE_SUB = 512


@dataclass(frozen=True)
class MonteCarloResult:
    """Estimate with sampling error.

    ``stderr`` is the standard error of ``mean``; a ~95% confidence
    interval is ``mean ± 1.96·stderr``.  For antithetic runs the
    standard error is computed over the independent sampling *units* —
    pair averages (plus the lone final draw of an odd-trials run) —
    because the raw samples inside a pair are negatively correlated and
    ``sqrt(var/trials)`` over them overstates the error.  ``variance``
    always reports the raw per-sample variance.
    """

    mean: float
    stderr: float
    trials: int
    variance: float

    @property
    def ci95(self) -> Tuple[float, float]:
        """Approximate 95% confidence interval for the expected makespan."""
        delta = 1.96 * self.stderr
        return (self.mean - delta, self.mean + delta)


def sample_makespans(
    dag: ProbDAG,
    trials: int,
    seed: SeedLike = None,
    antithetic: bool = False,
    batch: int = 16384,
) -> np.ndarray:
    """Sample ``trials`` makespans of the 2-state DAG.

    With ``antithetic=True``, trials are drawn in pairs ``(U, 1-U)`` —
    a classical variance-reduction device (each pair is negatively
    correlated through the shared uniforms), benchmarked in
    ``benchmarks/bench_ablation_montecarlo.py``.  Samples ``2k`` and
    ``2k+1`` of the returned array are one pair, for *any*
    ``trials``/``batch`` combination: uniforms are drawn in whole pairs
    per batch (batch sizes are rounded down to even counts), so a pair
    never straddles a batch boundary and no complement is lost to batch
    truncation.  Only an odd ``trials``'s final sample is a lone ``U``
    (its complement would be trial ``trials + 1``).
    """
    if trials < 1:
        raise EvaluationError(f"trials must be >= 1, got {trials}")
    rng = as_rng(seed)
    base = dag.base
    extra = dag.long - base
    p = dag.p
    if antithetic:
        # Whole pairs per batch: an odd batch size would orphan one
        # complement per batch and shift every later pair off its mate.
        batch = max(2, batch - batch % 2)
    base_T, extra_T, p_T = base[:, None], extra[:, None], p[:, None]
    out = np.empty(trials)
    done = 0
    while done < trials:
        m = min(batch, trials - done)
        u = _draw_uniforms(rng, m, dag.n, antithetic)
        # The block's durations, written straight into the kernel's
        # (n, m) layout: the same elementwise `base + extra * (u < p)`.
        durations = np.empty((dag.n, m))
        np.multiply(extra_T, u.T < p_T, out=durations)
        np.add(base_T, durations, out=durations)
        out[done : done + m] = _propagate_transposed(dag.preds, durations)
        done += m
    return out


def _draw_uniforms(
    rng: np.random.Generator, m: int, n: int, antithetic: bool
) -> np.ndarray:
    """One ``(m, n)`` uniform block, antithetic pairs adjacent."""
    if not antithetic:
        return rng.random((m, n))
    half = (m + 1) // 2
    u = rng.random((half, n))
    paired = np.empty((2 * half, n))
    paired[0::2] = u
    paired[1::2] = 1.0 - u
    return paired[:m]


def _antithetic_stderr(samples: np.ndarray) -> float:
    """Standard error of the mean of an antithetic sample array.

    The independent units of an antithetic run are the pair averages
    (samples ``2k``/``2k+1`` share their uniforms), plus the lone final
    draw when ``trials`` is odd.  The overall mean weights each pair
    ``2/trials`` and the lone draw ``1/trials``, so::

        Var(mean) = (2/T)^2 · m · Var(pair average)  [+ (1/T)^2 · Var(lone)]

    with ``m = T // 2`` pairs; pair-average variance is estimated from
    the pair averages (ddof=1) and the lone draw's variance from the raw
    samples.  For even ``T`` this reduces to the textbook
    ``sqrt(var(pair averages) / m)``.
    """
    trials = len(samples)
    m = trials // 2
    pair_avg = 0.5 * (samples[0 : 2 * m : 2] + samples[1 : 2 * m : 2])
    var_pairs = float(pair_avg.var(ddof=1)) if m > 1 else 0.0
    var_mean = 4.0 * m * var_pairs / (trials * trials)
    if trials % 2:
        var_raw = float(samples.var(ddof=1)) if trials > 1 else 0.0
        var_mean += var_raw / (trials * trials)
    return sqrt(var_mean)


def montecarlo_result(
    dag: ProbDAG,
    trials: int = 100_000,
    seed: SeedLike = None,
    antithetic: bool = False,
    batch: int = 16384,
) -> MonteCarloResult:
    """Monte Carlo estimate with its standard error.

    Under ``antithetic=True`` the standard error is computed over pair
    averages (see :func:`_antithetic_stderr`): the raw samples inside a
    pair are negatively correlated, so ``sqrt(var/trials)`` over them
    would overstate the error and hide the variance reduction the
    pairing buys.
    """
    samples = sample_makespans(
        dag, trials, seed=seed, antithetic=antithetic, batch=batch
    )
    mean = float(samples.mean())
    var = float(samples.var(ddof=1)) if trials > 1 else 0.0
    if antithetic:
        stderr = _antithetic_stderr(samples)
    else:
        stderr = sqrt(var / trials)
    return MonteCarloResult(
        mean=mean, stderr=stderr, trials=trials, variance=var
    )


def montecarlo(
    dag: ProbDAG,
    trials: int = 100_000,
    seed: SeedLike = None,
    antithetic: bool = False,
    batch: int = 16384,
) -> float:
    """Monte Carlo expected makespan (point estimate)."""
    return montecarlo_result(
        dag, trials=trials, seed=seed, antithetic=antithetic, batch=batch
    ).mean


def _cell_seeds(
    seed: Union[SeedLike, Sequence[SeedLike]], n_cells: int
) -> Optional[List[SeedLike]]:
    """Normalise the batch ``seed`` option to one seed per cell.

    ``None`` → fresh entropy per cell; a scalar int → every cell gets
    its own generator seeded with that value (matching the per-cell
    loop, where each :func:`montecarlo` call constructs a fresh
    ``default_rng(seed)``); a sequence → one seed per cell (the engine
    passes the grid's per-cell ``eval_seed`` streams this way).
    Returns ``None`` for stateful seeds (an already-constructed
    Generator/SeedSequence), where only the sequential per-cell loop
    reproduces the single-stream semantics.
    """
    if isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        return None
    if isinstance(seed, (list, tuple, np.ndarray)):
        if len(seed) != n_cells:
            raise EvaluationError(
                f"montecarlo batch got {len(seed)} seeds for "
                f"{n_cells} cells (pass one seed per cell, or a scalar)"
            )
        return [None if s is None else int(s) for s in seed]
    return [seed] * n_cells


def montecarlo_batch(
    template,
    trials: int = 100_000,
    seed: Union[SeedLike, Sequence[SeedLike]] = None,
    antithetic: bool = False,
    batch: int = 16384,
) -> np.ndarray:
    """Monte Carlo expected makespans of every cell of a parameterised DAG.

    ``template`` is a :class:`~repro.makespan.paramdag.ParamDAG`; the
    result is bit-identical to
    ``[montecarlo(template.cell(i), trials, seeds[i], antithetic, batch)]``
    where ``seeds`` is the per-cell expansion of ``seed`` (see
    :func:`_cell_seeds`): each cell draws from its own generator in the
    exact block sizes of the per-cell path, durations are built with the
    same elementwise expression, and the longest-path kernel
    (:func:`~repro.makespan.probdag._propagate_transposed`) — run once
    per trial sub-chunk over all cells' columns stacked side by side —
    performs the same elementwise adds and exact maxima, so batching
    cannot move a single bit.  Cells are processed in chunks sized to
    keep the live blocks under :data:`MC_BATCH_MAX_BYTES`; the per-cell
    trial ``batch`` (which shapes the RNG draws) is never altered.
    """
    if trials < 1:
        raise EvaluationError(f"trials must be >= 1, got {trials}")
    n_cells = template.n_cells
    if n_cells == 0:
        return np.empty(0)
    seeds = _cell_seeds(seed, n_cells)
    if seeds is None:
        # A shared stateful stream is consumed cell by cell in the
        # per-cell path; only that sequential order reproduces it.
        return np.array(
            [
                montecarlo(
                    template.cell(i),
                    trials=trials,
                    seed=seed,
                    antithetic=antithetic,
                    batch=batch,
                )
                for i in range(n_cells)
            ],
            dtype=float,
        )
    n = template.n
    if antithetic:
        batch = max(2, batch - batch % 2)
    sub = MC_PROPAGATE_SUB
    # Live floats per cell: its (m, n) uniform block, its share of the
    # (n, cells·sub) transposed duration + completion matrices, and its
    # (trials,) row of the samples accumulator (which scales with
    # trials, not batch — dominant for small-n/many-trial runs).
    per_cell = (
        (min(batch, trials) + 3 * sub) * max(n, 1) + trials
    ) * 8
    cell_chunk = max(1, int(MC_BATCH_MAX_BYTES // max(per_cell, 1)))
    # Transposed (n, 1) parameter columns, ready to broadcast against
    # each cell's (n, w) transposed uniform sub-block.
    base_T = template.base[:, :, None]
    extra_T = (template.long - template.base)[:, :, None]
    p_T = template.p[:, :, None]
    out = np.empty(n_cells)
    for c0 in range(0, n_cells, cell_chunk):
        c1 = min(c0 + cell_chunk, n_cells)
        cells = c1 - c0
        rngs = [as_rng(seeds[i]) for i in range(c0, c1)]
        samples = np.empty((cells, trials))
        done = 0
        while done < trials:
            m = min(batch, trials - done)
            blocks = [_draw_uniforms(rng, m, n, antithetic) for rng in rngs]
            for t0 in range(0, m, sub):
                t1 = min(t0 + sub, m)
                w = t1 - t0
                dur_T = np.empty((n, cells * w))
                for j, u in enumerate(blocks):
                    # (w, n) row slice → cache-resident transpose; the
                    # duration expression is elementwise, so values
                    # equal the per-cell `base + extra * (u < p)`.
                    dur_T[:, j * w : (j + 1) * w] = base_T[c0 + j] + (
                        extra_T[c0 + j] * (u[t0:t1].T < p_T[c0 + j])
                    )
                ms = _propagate_transposed(template.preds, dur_T)
                samples[:, done + t0 : done + t1] = ms.reshape(cells, w)
            done += m
        for j in range(cells):
            # Row-by-row means: the same contiguous pairwise summation
            # the per-cell path applies to its (trials,) sample vector.
            out[c0 + j] = samples[j].mean()
    return out
