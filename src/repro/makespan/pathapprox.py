"""Longest-path approximation (the paper's PATHAPPROX method, §II-B, §VI-B).

The paper adopts the path-based estimator of Casanova, Herrmann & Robert
(P2S2 2016) as its method of choice: fast, and the most accurate of the
non-sampling estimators on workflow-shaped DAGs.  The reconstruction here:

1. enumerate the ``k`` *longest paths by expected duration* (a K-best
   dynamic program over the DAG — distinct paths, not just distinct
   lengths);
2. compute each path's length distribution **exactly**: the sum of the
   path's independent 2-state durations, as a discrete distribution with
   moment-preserving truncation — this is what lets the method stay
   accurate when many tasks fail per run (large ``n·λ·w``), where naive
   0/1-failure enumeration collapses;
3. fold the path-sum maxima **with recursive common-task factoring**: the
   tasks shared by every path in a group are pulled out exactly (the max
   distributes over a common additive term); the group is then split on
   the highest-variance task still shared by *some* paths, and the two
   halves are folded recursively, with independence assumed only across
   the final exclusive remainders.

Step 3 is what keeps the estimator honest on fork-join workflows: a naive
CDF product counts a shared heavy spine's randomness once per path and
overestimates by ``O(σ_spine·√log k)`` (set ``factor_common=False`` to
reproduce the naive estimator — benchmarked in
``benchmarks/bench_ablation_pathapprox.py``).  The remaining error
sources — ignored non-candidate paths (underestimate) and residual
correlation between exclusive parts (overestimate) — are quantified by
the §VI-B accuracy bench.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EvaluationError
from repro.makespan import native as _native
from repro.makespan.distribution import DEFAULT_MAX_ATOMS, DiscreteDistribution
from repro.makespan.probdag import ProbDAG

__all__ = [
    "pathapprox",
    "pathapprox_batch",
    "k_longest_paths",
]

#: Starting path budget of the adaptive schedule.
INITIAL_PATHS = 32
#: Relative-change threshold at which the adaptive schedule stops.
ADAPTIVE_RTOL = 2e-4
#: Consecutive sub-tolerance doublings required before stopping.  In the
#: many-near-critical-paths regime the estimate grows like σ·sqrt(ln k),
#: whose per-doubling increments decay very slowly — a single small delta
#: is not yet convergence.
ADAPTIVE_STALLS = 2
#: Above this node count the adaptive loop is replaced by one k = 2n shot.
SINGLE_SHOT_N = 256
#: Kept for the explicit-k API (tests/ablations).
DEFAULT_PATHS = 20


def k_longest_paths(dag: ProbDAG, k: int) -> List[List[int]]:
    """The ``k`` distinct source-to-sink paths of largest expected length.

    K-best DP, vectorised: each node keeps NumPy arrays of its top-``k``
    (expected length, predecessor, predecessor-rank) entries; candidates
    from all predecessors are concatenated and selected with
    ``argpartition`` (``O(E·k)`` instead of ``O(E·k·log k)`` sorting),
    and only the winning entries are ordered.  Reconstruction walks the
    rank pointers back, so paths are distinct by construction.
    """
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    preds = dag.preds
    means = np.array([dag.task(i).mean for i in range(dag.n)])
    n = len(preds)
    # per node: lengths (desc), pred node ids, pred ranks
    best_len: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    best_pred: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    best_rank: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    minus_one = np.array([-1], dtype=np.int64)

    for v in range(n):
        ps = preds[v]
        if not ps:
            best_len[v] = means[v : v + 1].copy()
            best_pred[v] = minus_one
            best_rank[v] = minus_one
            continue
        lengths = np.concatenate([best_len[q] for q in ps]) + means[v]
        pred_ids = np.concatenate(
            [np.full(best_len[q].size, q, dtype=np.int64) for q in ps]
        )
        ranks = np.concatenate(
            [np.arange(best_len[q].size, dtype=np.int64) for q in ps]
        )
        if lengths.size > k:
            top = np.argpartition(-lengths, k - 1)[:k]
        else:
            top = np.arange(lengths.size)
        order = top[np.argsort(-lengths[top], kind="stable")]
        best_len[v] = lengths[order]
        best_pred[v] = pred_ids[order]
        best_rank[v] = ranks[order]

    finals: List[Tuple[float, int, int]] = []
    for s in dag.sinks():
        for rank in range(best_len[s].size):
            finals.append((float(best_len[s][rank]), s, rank))
    finals.sort(key=lambda e: -e[0])

    paths: List[List[int]] = []
    for _, node, rank in finals[:k]:
        path: List[int] = []
        v, r = node, rank
        while v != -1:
            path.append(v)
            v, r = int(best_pred[v][r]), int(best_rank[v][r])
        path.reverse()
        paths.append(path)
    return paths


def _k_best_paths_cells(
    preds: Sequence[Sequence[int]],
    sinks: Sequence[int],
    means: np.ndarray,
    k: int,
    var_rank: np.ndarray,
) -> List[List[int]]:
    """:func:`k_longest_paths` for many cells sharing one structure,
    each path returned as a node mask in its cell's rank space.

    ``means`` has shape ``(cells, n)``.  ``var_rank`` has the same shape
    and holds a permutation of ``range(n)`` per row: node ``v`` of cell
    ``c`` is bit ``var_rank[c, v]`` of that cell's masks, so the result
    holds, per cell, one python int per path in the scalar call's path
    order.

    With native kernels live, one C call
    (:func:`~repro.makespan.native.k_best_paths`) runs the DP of every
    cell: each node merges its predecessors' descending lists in the
    order of numpy's stable descending sort of their concatenation, so
    the values alone fix the order on any CPU.  A cell declines where
    they do not: equal values among the first ``k + 1`` candidates of a
    node that truncates (numpy keeps such entries in ``argpartition``'s
    order, which depends on the CPU), or a NaN.  :func:`_k_best_masks`,
    the numpy DP, prices the declined rows (rows are independent), and
    every row when kernels are off; it and the scalar
    :func:`k_longest_paths` are the oracles.
    """
    if k < 1:
        raise EvaluationError(f"k must be >= 1, got {k}")
    got = _native.k_best_paths(preds, sinks, means, k, var_rank)
    if got is None:
        return _mask_ints(_k_best_masks(preds, sinks, means, k, var_rank))
    masks, served = got
    if not served.all():
        miss = np.flatnonzero(~served)
        masks[:, miss] = _k_best_masks(
            preds, sinks, means[miss], k, var_rank[miss]
        )
    return _mask_ints(masks)


def _mask_ints(masks: np.ndarray) -> List[List[int]]:
    """Per cell, each path's mask as one python int, from the words
    ``masks[w, c, j]`` (bits ``63 w`` to ``63 w + 62`` of cell ``c``'s
    path ``j``)."""
    out = masks[0].tolist()
    for w in range(1, masks.shape[0]):
        shift = 63 * w
        out = [
            [low | (high << shift) for low, high in zip(row, high_row)]
            for row, high_row in zip(out, masks[w].tolist())
        ]
    return out


def _k_best_masks(
    preds: Sequence[Sequence[int]],
    sinks: Sequence[int],
    means: np.ndarray,
    k: int,
    var_rank: np.ndarray,
) -> np.ndarray:
    """The numpy k-best DP of :func:`_k_best_paths_cells`, as mask words
    of shape ``(words, cells, paths)``.

    The K-best DP runs with a leading cell axis — the entry counts kept
    per node are structure-determined, so every cell's arrays stack —
    and each row's ``argpartition``/stable ``argsort`` applies the
    scalar call's algorithm to the scalar call's data, so the enumerated
    paths match the per-cell reference exactly (pinned by the evaluator
    parity tests).  The walk back from the sinks ORs each node's bit
    into its path's mask in numpy, over 63-bit words (an int64 holds
    each word exactly), so any ``n`` works.
    """
    c, n = means.shape
    best_len: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    best_pred: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    best_rank: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    minus_one = np.full((c, 1), -1, dtype=np.int64)

    for v in range(n):
        ps = preds[v]
        if not ps:
            best_len[v] = means[:, v : v + 1].copy()
            best_pred[v] = minus_one
            best_rank[v] = minus_one
            continue
        lengths = np.concatenate(
            [best_len[q] for q in ps], axis=1
        ) + means[:, v : v + 1]
        pred_ids = np.concatenate(
            [np.full(best_len[q].shape[1], q, dtype=np.int64) for q in ps]
        )
        ranks = np.concatenate(
            [np.arange(best_len[q].shape[1], dtype=np.int64) for q in ps]
        )
        m = lengths.shape[1]
        if m > k:
            top = np.argpartition(-lengths, k - 1, axis=1)[:, :k]
        else:
            top = np.broadcast_to(np.arange(m), (c, m))
        sel = np.take_along_axis(lengths, top, axis=1)
        suborder = np.argsort(-sel, axis=1, kind="stable")
        chosen = np.take_along_axis(top, suborder, axis=1)
        best_len[v] = np.take_along_axis(sel, suborder, axis=1)
        best_pred[v] = pred_ids[chosen]
        best_rank[v] = ranks[chosen]

    # Reconstruction, vectorised across every cell's top-k entries: the
    # per-node tables pad into (n, cells, kmax) arrays so one fancy
    # index per walk step advances all paths at once; the stable
    # descending argsort over sink entries (sink-major, rank-ascending
    # column order) reproduces the scalar finals sort exactly.
    kmax = max(a.shape[1] for a in best_len)
    pred_tab = np.full((n, c, kmax), -1, dtype=np.int64)
    rank_tab = np.zeros((n, c, kmax), dtype=np.int64)
    for v in range(n):
        wv = best_pred[v].shape[1]
        pred_tab[v, :, :wv] = best_pred[v]
        rank_tab[v, :, :wv] = best_rank[v]
    node_col = np.concatenate(
        [np.full(best_len[s].shape[1], s, dtype=np.int64) for s in sinks]
    )
    rank_col = np.concatenate(
        [np.arange(best_len[s].shape[1], dtype=np.int64) for s in sinks]
    )
    final_len = np.concatenate([best_len[s] for s in sinks], axis=1)
    kk = min(k, final_len.shape[1])
    cols = np.argsort(-final_len, axis=1, kind="stable")[:, :kk]
    v_cur = node_col[cols]
    r_cur = rank_col[cols]
    ci_idx = np.arange(c)[:, None]
    # Each node's bit in its cell's mask words: bit[w, c, v] is node v's
    # bit if word w holds it, else 0; column n, the walk's -1 padding,
    # stays 0.  Path nodes are distinct, so adding their bits is the OR.
    words = -(-n // 63)
    bit = np.zeros((words, c, n + 1), dtype=np.int64)
    bit[var_rank // 63, ci_idx, np.arange(n)] = np.left_shift(1, var_rank % 63)
    masks = np.zeros((words, c, kk), dtype=np.int64)
    while True:
        active = v_cur != -1
        if not active.any():
            break
        masks += bit[:, ci_idx, v_cur]
        safe_v = np.where(active, v_cur, 0)
        safe_r = np.where(active, r_cur, 0)
        v_cur = np.where(active, pred_tab[safe_v, ci_idx, safe_r], -1)
        r_cur = rank_tab[safe_v, ci_idx, safe_r]
    return masks


def _path_sum(
    dag: ProbDAG, nodes: Sequence[int], max_atoms: int
) -> DiscreteDistribution:
    dist = DiscreteDistribution.point(0.0)
    for v in nodes:
        t = dag.task(v)
        dist = dist.convolve(
            DiscreteDistribution.two_state(t.base, t.long, t.p), max_atoms
        )
    return dist


def _fold_factored(
    dag: ProbDAG, paths: List[FrozenSet[int]], max_atoms: int
) -> DiscreteDistribution:
    """max over path sums with recursive common-task factoring.

    Tasks common to every path are additive and leave the max exactly.
    The remaining paths are bisected on the highest-variance task shared
    by a strict subset of them; the two halves share fewer tasks, so
    recursing drives residual correlation down before independence is
    finally assumed at the ``max_with`` folds.
    """
    common = frozenset.intersection(*paths)
    rest = [p - common for p in paths]
    nonempty = [p for p in rest if p]

    if not nonempty:
        folded = DiscreteDistribution.point(0.0)
    elif len(nonempty) == 1:
        folded = _path_sum(dag, sorted(nonempty[0]), max_atoms)
    else:
        variances = {v: dag.task(v).variance for p in nonempty for v in p}
        split = max(variances, key=lambda v: (variances[v], v))
        with_split = [p for p in nonempty if split in p]
        without = [p for p in nonempty if split not in p]
        if not without:
            # split is common to all non-empty remainders; recurse (their
            # intersection is non-empty, so the recursion strips it).
            folded = _fold_factored(dag, with_split, max_atoms)
        else:
            folded = _fold_factored(dag, with_split, max_atoms).max_with(
                _fold_factored(dag, without, max_atoms), max_atoms
            )
    if common:
        folded = folded.convolve(
            _path_sum(dag, sorted(common), max_atoms), max_atoms
        )
    return folded


def _estimate_with_k(
    dag: ProbDAG, k: int, max_atoms: int, factor_common: bool
) -> Tuple[float, bool]:
    """Estimate with a fixed budget; also reports path-supply exhaustion."""
    paths = k_longest_paths(dag, k)
    if not paths:
        raise EvaluationError("DAG has no source-to-sink path")
    exhausted = len(paths) < k
    if factor_common:
        return (
            _fold_factored(dag, [frozenset(p) for p in paths], max_atoms).mean(),
            exhausted,
        )
    folded: DiscreteDistribution = None  # type: ignore[assignment]
    for path in paths:
        dist = _path_sum(dag, path, max_atoms)
        folded = dist if folded is None else folded.max_with(dist, max_atoms)
    return folded.mean(), exhausted


def _adaptive_estimate(
    n: int,
    k: Optional[int],
    rtol: float,
    estimate_with_k: Callable[[int], Tuple[float, bool]],
) -> float:
    """The adaptive path-budget schedule of the scalar estimator
    (:func:`repro.makespan.foldplan.pathapprox_plan_batch` replays it
    cell by cell, and the parity tests pin the two together).

    ``estimate_with_k`` returns ``(estimate, exhausted)`` for a budget.
    With ``k=None`` the budget doubles from :data:`INITIAL_PATHS` until
    the estimate stalls; above :data:`SINGLE_SHOT_N` nodes the loop is
    replaced by one ``k = 2n`` shot.
    """
    if k is not None:
        return estimate_with_k(k)[0]

    if n > SINGLE_SHOT_N:
        # Wide DAGs (hundreds of near-critical parallel chains, e.g.
        # CKPTALL segment graphs) genuinely need O(n) candidate paths:
        # the top of the enumeration is near-duplicates of the heavy
        # chain, and stall-based stopping false-converges during that
        # plateau.  k = 2n is past the plateau on every family we
        # validated against Monte Carlo (the accuracy bench pins this
        # down); paths beyond it are order statistics with strictly
        # smaller means whose marginal effect on the factored max decays
        # like the tail of sqrt(ln k).
        return estimate_with_k(2 * n)[0]

    budget = INITIAL_PATHS
    estimate, exhausted = estimate_with_k(budget)
    cap = max(8 * n, 2 * INITIAL_PATHS)
    stalls = 0
    while budget < cap and not exhausted:
        budget *= 2
        refined, exhausted = estimate_with_k(budget)
        if abs(refined - estimate) <= rtol * max(abs(estimate), 1e-300):
            stalls += 1
            if stalls >= ADAPTIVE_STALLS:
                return refined
        else:
            stalls = 0
        estimate = refined
    return estimate


def pathapprox(
    dag: ProbDAG,
    k: Optional[int] = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    factor_common: bool = True,
    rtol: float = ADAPTIVE_RTOL,
) -> float:
    """Path-based estimate of the expected makespan of a 2-state DAG.

    With ``k=None`` (default) the path budget adapts to the DAG: it
    doubles from :data:`INITIAL_PATHS` until the estimate moves by less
    than ``rtol`` (adding candidate paths only ever raises the estimated
    maximum, so the first stall is convergence).  Wide DAGs with many
    near-critical parallel chains — e.g. a CKPTALL segment graph of a
    1000-task workflow on hundreds of processors — genuinely need
    hundreds of paths; narrow ones stop at the first doubling.  Pass an
    explicit ``k`` to pin the budget (used by the ablation benchmarks).

    Every convolution and max keeps at most ``max_atoms`` atoms through
    the mean-preserving equal-probability binning of
    :mod:`repro.makespan.distribution`.
    """
    if dag.n == 0:
        return 0.0
    return _adaptive_estimate(
        dag.n,
        k,
        rtol,
        lambda budget: _estimate_with_k(dag, budget, max_atoms, factor_common),
    )


# --------------------------------------------------------------------- #
# batched evaluation over a parameterised DAG template
# --------------------------------------------------------------------- #


def pathapprox_batch(
    template,
    k: Optional[int] = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    factor_common: bool = True,
    rtol: float = ADAPTIVE_RTOL,
) -> np.ndarray:
    """Path-based estimates for every cell of a parameterised DAG.

    ``template`` is a :class:`~repro.makespan.paramdag.ParamDAG`; the
    result array is **bit-identical** to evaluating each materialised
    cell with :func:`pathapprox` (pinned by the batch-parity tests).

    The heavy lifting happens in :mod:`repro.makespan.foldplan`: each
    cell's fold is compiled into one step table per call, through memos
    shared by every budget round and by the cells of a variance order,
    and each cell's root is evaluated on demand through the scalar
    kernels.  The adaptive-k schedule runs the batch in lockstep with
    per-cell stall/exhaustion tracking, replicating the scalar
    :func:`_adaptive_estimate` control flow exactly.
    """
    n_cells = template.n_cells
    if template.n == 0:
        return np.zeros(n_cells)
    if not factor_common:
        # Ablation path (naive CDF-product fold): the fold is ordered by
        # path rank rather than set-driven, so run the scalar reference.
        return np.array(
            [
                pathapprox(
                    template.cell(c),
                    k=k,
                    max_atoms=max_atoms,
                    factor_common=False,
                    rtol=rtol,
                )
                for c in range(n_cells)
            ]
        )
    from repro.makespan.foldplan import pathapprox_plan_batch

    return pathapprox_plan_batch(template, k=k, max_atoms=max_atoms, rtol=rtol)

