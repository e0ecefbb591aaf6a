"""Compiled fold plans: execute-many replay of the pathapprox recursion.

The scalar PATHAPPROX estimator (:mod:`repro.makespan.pathapprox`)
spends its time in two python-level recursions that are determined
entirely by DAG *structure* — the common-task factoring of
``_fold_factored`` and the node walks of ``_path_sum`` — yet re-derives
them for every cell and every adaptive-k budget doubling.  This module
lifts that work into a **compile-once, execute-many** layer:

* :func:`compile_fold_plan` runs the recursion *symbolically* once per
  (path set, variance order) signature and records a flat post-order op
  tape — CONVOLVE and MAX steps over semantic slots — as a
  :class:`FoldPlan`.  Plans are cached on the
  :class:`~repro.makespan.paramdag.ParamDAG` template
  (:meth:`~repro.makespan.paramdag.ParamDAG.plan_cache`), so the cells
  of a sweep group that share a signature share one compilation.

* :func:`execute_plans` replays each cell's tape in order through the
  scalar :class:`~repro.makespan.distribution.DiscreteDistribution`
  kernels (native when live).  Results land in a per-cell value store
  keyed by the tape's *semantic* slot names, so they survive across
  budget doublings (the 64-path plan skips every step the 32-path plan
  already computed).

* :func:`pathapprox_plan_batch` drives a template's cells through the
  adaptive-k schedule in lockstep, replicating ``_adaptive_estimate``'s
  per-cell control flow exactly while every round's tapes replay in
  one :func:`execute_plans` pass.

**Bit-identity.**  The tape records exactly the operations the scalar
recursion performs, keyed so that equal inputs share one slot: path-sum
chains are memoised by node-tuple *prefix* (the scalar chain prefix
computation is the identical op sequence, so a prefix hit returns the
identical object), fold subtrees by their frozenset of path sets (the
recursion's result depends only on that set).  Each step's operands are
therefore bit-identical to the scalar path's, and the replay runs the
scalar kernels themselves, so the replayed estimates equal the scalar
reference bit for bit — pinned by the evaluator parity tests.

The Clark-fold tape of the NORMAL method (:class:`ClarkPlan`) lives
here too: a flat (node, predecessors) schedule plus the sink fold,
cached on the template so repeated ``normal_batch`` calls skip the
structure scans.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EvaluationError
from repro.makespan import profile as _profile
from repro.makespan.distribution import (
    DEFAULT_MAX_ATOMS,
    MODE_ADAPTIVE,
    DiscreteDistribution,
    two_state_rows,
)
from repro.makespan.pathapprox import (
    ADAPTIVE_STALLS,
    INITIAL_PATHS,
    SINGLE_SHOT_N,
    _k_best_paths_cells,
)

__all__ = [
    "FoldPlan",
    "ClarkPlan",
    "compile_fold_plan",
    "execute_plans",
    "pathapprox_plan_batch",
    "clark_plan",
]

#: Leaf slot: the Dirac distribution at 0 (every path sum's seed).
_P0: Tuple[str, ...] = ("p0",)

#: Step kinds on the tape.
_CONV = "conv"
_MAX = "max"

#: Slot reference — a leaf (``("p0",)`` / ``("law", node)``) or a step
#: key (``("s", node_prefix)`` / ``("m", path_key)`` / ``("c",
#: path_key)``).  Semantic by construction: equal refs denote equal
#: distributions for a given cell, across plans and budgets.
Ref = Tuple


class FoldPlan:
    """A compiled fold: a flat post-order op tape.

    ``steps[i] = (key, kind, a, b)`` computes slot ``key`` as
    ``a kind b``; operands are earlier steps or leaves, so the tape is
    topologically ordered and replays front to back.  ``root`` is the
    slot holding the folded maximum.  Plans are immutable and shared
    across cells — all per-cell state lives in the cell's value store.
    """

    __slots__ = ("steps", "root")

    def __init__(self, steps: List[Tuple], root: Ref) -> None:
        self.steps: Tuple[Tuple, ...] = tuple(steps)
        self.root = root

    def __repr__(self) -> str:
        return f"FoldPlan(steps={len(self.steps)}, root={self.root!r})"


def compile_fold_plan(
    paths: Sequence[int], var_rank: Sequence[int]
) -> FoldPlan:
    """Compile the factored fold of ``paths`` into a :class:`FoldPlan`.

    ``paths`` are node-set **bitmasks** (bit ``v`` set iff node ``v`` is
    on the path) — set algebra on python ints is an order of magnitude
    cheaper than on frozensets, and a mask is its own canonical form, so
    masks double as the memo keys.  Runs exactly the recursion of
    ``_fold_factored`` (same intersection stripping, same
    highest-variance split, same memo granularity), but emits tape steps
    instead of computing distributions.  ``var_rank[v]`` must rank nodes
    by the scalar split key ``(variance, id)`` ascending — a strict
    total order, so ``max`` by rank picks the same split node.
    """
    steps: List[Tuple] = []
    index: Dict[Ref, int] = {}
    sum_memo: Dict[Tuple[int, ...], Ref] = {}
    fold_memo: Dict[FrozenSet[int], Ref] = {}

    def emit(key: Ref, kind: str, a: Ref, b: Ref) -> Ref:
        if key not in index:
            index[key] = len(steps)
            steps.append((key, kind, a, b))
        return key

    def nodes_of(mask: int) -> List[int]:
        # Set bits, ascending == the scalar recursion's sorted() order.
        out: List[int] = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def sum_ref(nodes: Tuple[int, ...]) -> Ref:
        ref = sum_memo.get(nodes)
        if ref is not None:
            return ref
        # Chain convolutions seeded at point(0), memoised per *prefix*:
        # the scalar chain computes every prefix anyway, so a prefix hit
        # reuses the identical intermediate.
        prev: Ref = _P0
        for j in range(len(nodes)):
            prefix = nodes[: j + 1]
            ref = sum_memo.get(prefix)
            if ref is None:
                ref = emit(("s", prefix), _CONV, prev, ("law", nodes[j]))
                sum_memo[prefix] = ref
            prev = ref
        return prev

    def fold_ref(group: Tuple[int, ...]) -> Ref:
        key = frozenset(group)
        ref = fold_memo.get(key)
        if ref is not None:
            return ref
        common = group[0]
        for q in group[1:]:
            common &= q
        rest = [q & ~common for q in group]
        nonempty = [q for q in rest if q]
        if not nonempty:
            folded: Ref = _P0
        elif len(nonempty) == 1:
            folded = sum_ref(tuple(nodes_of(nonempty[0])))
        else:
            union = 0
            for q in nonempty:
                union |= q
            split = max(nodes_of(union), key=var_rank.__getitem__)
            bit = 1 << split
            with_split = tuple(q for q in nonempty if q & bit)
            without = tuple(q for q in nonempty if not q & bit)
            if not without:
                folded = fold_ref(with_split)
            else:
                folded = emit(
                    ("m", key), _MAX, fold_ref(with_split), fold_ref(without)
                )
        if common:
            folded = emit(
                ("c", key), _CONV, folded, sum_ref(tuple(nodes_of(common)))
            )
        fold_memo[key] = folded
        return folded

    root = fold_ref(tuple(paths))
    return FoldPlan(steps, root)


class _CellRun:
    """Per-cell replay state: the slot store (seeded with the leaf laws)
    and the cell's place in the adaptive-k schedule."""

    __slots__ = (
        "values",
        "means",
        "var_rank",
        "var_key",
        "estimate",
        "stalls",
        "exhausted",
    )

    def __init__(
        self,
        leaves: Dict[Ref, DiscreteDistribution],
        means: np.ndarray,
        variances: np.ndarray,
    ) -> None:
        self.values = leaves
        self.means = means
        n = len(means)
        order = sorted(range(n), key=lambda v: (variances[v], v))
        rank = [0] * n
        for r, v in enumerate(order):
            rank[v] = r
        self.var_rank = rank
        self.var_key = tuple(order)
        self.estimate = 0.0
        self.stalls = 0
        self.exhausted = False


def execute_plans(
    work: Sequence[Tuple[_CellRun, FoldPlan]], max_atoms: int, mode: str
) -> None:
    """Replay each cell's plan in tape order through the scalar kernels.

    A step whose slot is already in the cell's store was computed by an
    earlier budget's plan and is skipped; every other step runs
    :meth:`~repro.makespan.distribution.DiscreteDistribution.convolve`
    or :meth:`~repro.makespan.distribution.DiscreteDistribution.max_with`
    on operands the tape order has already filled in (native kernels
    when live).  Each step's operands are fixed by the tape, so the
    replay is bit-identical to the scalar recursion.
    """
    prof = _profile.ACTIVE
    if prof is not None:
        prof.record("pool_exec", len(work))
    for state, plan in work:
        values = state.values
        for key, kind, a, b in plan.steps:
            if key in values:
                continue
            if kind == _CONV:
                values[key] = values[a].convolve(values[b], max_atoms, mode)
            else:
                values[key] = values[a].max_with(values[b], max_atoms, mode)


def pathapprox_plan_batch(
    template,
    k: Optional[int] = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    rtol: float = 2e-4,
    mode: str = MODE_ADAPTIVE,
) -> np.ndarray:
    """PATHAPPROX over every cell of a template via compiled fold plans.

    Every active cell shares the same lockstep budget sequence (32, 64,
    ...): each round enumerates the cells' paths, compiles or reuses
    their plans, and replays them through one :func:`execute_plans`
    pass.  Per-cell control flow — stall counting, exhaustion, the
    ``k=None`` / explicit-k / wide-DAG single-shot branches — replicates
    ``_adaptive_estimate`` exactly, so results are bit-identical to the
    scalar reference.
    """
    n = template.n
    sinks = template.sinks()
    cache = template.plan_cache()
    point0 = DiscreteDistribution.point(0.0)
    law_keys = [("law", v) for v in range(n)]
    node_rows = [
        two_state_rows(template.base[:, j], template.long[:, j], template.p[:, j])
        for j in range(n)
    ]
    states = []
    for c in range(template.n_cells):
        leaves: Dict[Ref, DiscreteDistribution] = {_P0: point0}
        leaves.update(zip(law_keys, (rows[c] for rows in node_rows)))
        states.append(
            _CellRun(leaves, template.means[c], template.variances[c])
        )
    adaptive = k is None and n <= SINGLE_SHOT_N
    if k is not None:
        budget = k
    elif n > SINGLE_SHOT_N:
        budget = 2 * n
    else:
        budget = INITIAL_PATHS
    cap = max(8 * n, 2 * INITIAL_PATHS)
    first = True
    pending = states
    while pending:
        paths_cells = _k_best_paths_cells(
            template.preds, sinks, np.stack([st.means for st in pending]), budget
        )
        work: List[Tuple[_CellRun, FoldPlan]] = []
        for st, paths in zip(pending, paths_cells):
            if not paths:
                raise EvaluationError("DAG has no source-to-sink path")
            st.exhausted = len(paths) < budget
            # Path nodes are distinct, so summing their powers of two is
            # the OR; a plain loop beats functools.reduce on this path.
            masks = []
            for p in paths:
                m = 0
                for v in p:
                    m += 1 << v
                masks.append(m)
            pathset = tuple(masks)
            sig = ("fold", frozenset(pathset), st.var_key)
            plan = cache.get(sig)
            if plan is None:
                plan = cache[sig] = compile_fold_plan(pathset, st.var_rank)
            work.append((st, plan))
        execute_plans(work, max_atoms, mode)
        # Fold the round into each cell's schedule, as _adaptive_estimate
        # does: a refinement within rtol counts a stall, ADAPTIVE_STALLS
        # consecutive stalls stop the cell, and exhaustion or the cap
        # stop it after this budget.
        still = []
        for st, plan in work:
            refined = st.values[plan.root].mean()
            if adaptive and not first:
                if abs(refined - st.estimate) <= rtol * max(
                    abs(st.estimate), 1e-300
                ):
                    st.stalls += 1
                    if st.stalls >= ADAPTIVE_STALLS:
                        st.estimate = refined
                        continue
                else:
                    st.stalls = 0
            st.estimate = refined
            if adaptive and budget < cap and not st.exhausted:
                still.append(st)
        first = False
        pending = still
        budget *= 2
    return np.array([st.estimate for st in states])


# --------------------------------------------------------------------- #
# the NORMAL method's Clark-fold tape
# --------------------------------------------------------------------- #


class ClarkPlan:
    """Flat schedule of the Sculli/Clark moment propagation.

    ``steps[i] = (node, predecessors)`` in topological order; ``sinks``
    is the final fold.  Pure structure — the batched replay streams the
    template's parameter matrices through it.
    """

    __slots__ = ("steps", "sinks")

    def __init__(
        self, steps: Tuple[Tuple[int, Tuple[int, ...]], ...], sinks: Tuple[int, ...]
    ) -> None:
        self.steps = steps
        self.sinks = sinks

    def __repr__(self) -> str:
        return f"ClarkPlan(steps={len(self.steps)}, sinks={len(self.sinks)})"


def clark_plan(template) -> ClarkPlan:
    """The template's Clark-fold tape, compiled once and cached."""
    cache = template.plan_cache()
    plan = cache.get("clark")
    if plan is None:
        plan = ClarkPlan(
            steps=tuple(
                (v, tuple(template.preds[v])) for v in range(template.n)
            ),
            sinks=tuple(template.sinks()),
        )
        cache["clark"] = plan
    return plan
