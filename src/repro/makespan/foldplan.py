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

* :func:`execute_plans` replays each cell's tape in order.  Results
  land in a per-cell store keyed by the tape's *semantic* slot names,
  so they survive across budget doublings (the 64-path plan skips every
  step the 32-path plan already computed).  With native kernels live,
  each plan is lowered once onto its template's slot table (one int per
  semantic key) and a cell's whole tape replays in one C call
  (:func:`~repro.makespan.native.replay_tape`) into the cell's arena,
  which holds its leaf laws and every slot filled so far.  The python
  loop over the scalar
  :class:`~repro.makespan.distribution.DiscreteDistribution` kernels is
  the oracle: it replays every cell under ``REPRO_NATIVE=0``, and
  finishes any cell the C replay declined.

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
therefore bit-identical to the scalar path's, and either replay runs
the scalar kernels' own code (the C replay calls the routines behind the
per-op native kernels), so the replayed estimates equal the scalar
reference bit for bit — pinned by the evaluator parity tests.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EvaluationError
from repro.makespan import native as _native
from repro.makespan import profile as _profile
from repro.makespan.distribution import (
    DEFAULT_MAX_ATOMS,
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
    "compile_fold_plan",
    "execute_plans",
    "pathapprox_plan_batch",
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


#: Plan-cache key of a template's :class:`_SlotTable`.
_SLOTS = ("slots",)

#: Atoms a cell's arena holds at first (more if its leaf laws need it);
#: the arena grows whenever a step's output might not fit.  A MONTAGE-50
#: cell fills 21k atoms in the median and 35k at the 90th percentile.
#: Starting at twice the leaf atoms instead grew each cell about 7 times
#: and cost 5% of ``montage-pathapprox`` cells/s (4 alternating 30-s
#: pairs, 2-core x86-64) without lowering peak RSS: a page is resident
#: only once written.
_ARENA_ATOMS = 1 << 15


class _SlotTable:
    """One template's numbering of the tapes' semantic slot keys.

    ``index`` maps each key to its slot in insertion order: slot 0 is
    ``("p0",)`` and slot ``1 + v`` node ``v``'s law, and each step key
    gets the next number the first time a plan is lowered, so equal keys
    share a slot across every plan, budget and cell of the template.
    :meth:`lower` turns a plan into the int32 ``(kind, a, b, out)``
    quadruples the C replay reads (kind 0 convolve, 1 max), once per
    plan.
    """

    __slots__ = ("index", "tapes")

    def __init__(self, n: int) -> None:
        leaves = [_P0] + [("law", v) for v in range(n)]
        self.index: Dict[Ref, int] = {k: i for i, k in enumerate(leaves)}
        self.tapes: Dict[FoldPlan, np.ndarray] = {}

    def lower(self, plan: FoldPlan) -> np.ndarray:
        tape = self.tapes.get(plan)
        if tape is None:
            index = self.index
            quads: List[int] = []
            for key, kind, a, b in plan.steps:
                out = index.get(key)
                if out is None:
                    out = index[key] = len(index)
                quads += (kind is _MAX, index[a], index[b], out)
            tape = self.tapes[plan] = np.array(quads, dtype=np.int32)
        return tape


class _Arena:
    """A cell's slot store for the C replay: slot ``i`` holds
    ``length[i]`` atoms at ``off[i]`` of the ``values`` and ``probs``
    planes, and ``length[i] == 0`` marks it unfilled.  ``cursor`` is the
    C entry's (step, atoms used, atoms needed)."""

    __slots__ = ("off", "length", "values", "probs", "cursor")

    def __init__(self, leaves: Sequence[DiscreteDistribution]) -> None:
        self.length = np.array([d.values.size for d in leaves], dtype=np.int64)
        self.off = np.cumsum(self.length) - self.length
        used = int(self.length.sum())
        cap = max(_ARENA_ATOMS, used)
        self.values = np.empty(cap)
        self.probs = np.empty(cap)
        self.values[:used] = np.concatenate([d.values for d in leaves])
        self.probs[:used] = np.concatenate([d.probs for d in leaves])
        self.cursor = np.array([0, used, 0], dtype=np.int64)

    def replay(self, tape: np.ndarray, slots: int, max_atoms: int, ran) -> bool:
        """Run ``tape`` into the arena, growing it as the C entry asks;
        ``False`` when a step declined (``cursor[0]`` is that step)."""
        have = self.length.size
        if have < slots:
            pad = np.zeros(max(slots, 2 * have) - have, dtype=np.int64)
            self.length = np.concatenate([self.length, pad])
            self.off = np.concatenate([self.off, pad])
        cursor = self.cursor
        cursor[0] = 0
        while True:
            status = _native.replay_tape(
                tape, self.off, self.length, self.values, self.probs,
                max_atoms, cursor, ran,
            )
            if status != _native.TAPE_GROW:
                return status == _native.TAPE_DONE
            used = int(cursor[1])
            spare = np.empty(max(2 * self.values.size, int(cursor[2])) - used)
            self.values = np.concatenate((self.values[:used], spare))
            self.probs = np.concatenate((self.probs[:used], spare))

    def dist(self, slot: int) -> DiscreteDistribution:
        """Slot ``slot`` as a distribution (views of the planes)."""
        o = int(self.off[slot])
        end = o + int(self.length[slot])
        return DiscreteDistribution._wrap(self.values[o:end], self.probs[o:end])


class _CellRun:
    """Per-cell replay state: the leaf laws (in slot order), the slot
    store — the C replay's :class:`_Arena`, or the python loop's dict,
    built from the leaves or the arena the first time the cell runs on
    it — and the cell's place in the adaptive-k schedule."""

    __slots__ = (
        "leaves",
        "table",
        "arena",
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
        leaves: List[DiscreteDistribution],
        table: _SlotTable,
        means: np.ndarray,
        variances: np.ndarray,
    ) -> None:
        self.leaves = leaves
        self.table = table
        self.arena: Optional[_Arena] = None
        self.values: Optional[Dict[Ref, DiscreteDistribution]] = None
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

    def store(self) -> Dict[Ref, DiscreteDistribution]:
        """The python loop's slot store.  A cell moves onto it for good:
        its filled arena slots (or its leaves) seed the dict."""
        values = self.values
        if values is None:
            arena = self.arena
            if arena is None:
                values = dict(zip(self.table.index, self.leaves))
            else:
                keys = list(self.table.index)
                values = {
                    keys[s]: arena.dist(s) for s in np.flatnonzero(arena.length)
                }
                self.arena = None
            self.values = values
        return values

    def mean(self, ref: Ref) -> float:
        """Mean of the distribution in slot ``ref``."""
        if self.values is not None:
            return self.values[ref].mean()
        return self.arena.dist(self.table.index[ref]).mean()


def _replay_native(work, max_atoms: int, prof) -> List[Tuple[_CellRun, FoldPlan]]:
    """One C call per cell (more only when its arena grows); returns the
    pairs left to the python loop: cells already on it, and cells a step
    declined on."""
    left = []
    ran = np.zeros(2, dtype=np.int64)
    wall = 0.0
    for state, plan in work:
        if state.values is not None:
            left.append((state, plan))
            continue
        if state.arena is None:
            state.arena = _Arena(state.leaves)
        table = state.table
        tape = table.lower(plan)
        t0 = time.perf_counter() if prof is not None else 0.0
        done = state.arena.replay(tape, len(table.index), max_atoms, ran)
        if prof is not None:
            wall += time.perf_counter() - t0
        if not done:
            left.append((state, plan))
    if prof is not None:
        # One call serves both ops; its time is split by step count.
        steps = int(ran[0] + ran[1])
        for op, count in (("native_convolve", ran[0]), ("native_max", ran[1])):
            if count:
                prof.record(op, int(count), 0, wall * int(count) / steps)
    return left


def execute_plans(
    work: Sequence[Tuple[_CellRun, FoldPlan]], max_atoms: int
) -> None:
    """Replay each cell's plan in tape order.

    With native kernels live, each cell's plan is lowered onto its
    template's slot table and replayed into the cell's arena by one
    :func:`~repro.makespan.native.replay_tape` call, which skips slots an
    earlier budget filled; the steps run are recorded as
    ``native_convolve``/``native_max`` rows.  The python loop below is
    the oracle: it runs every cell under ``REPRO_NATIVE=0``, and a cell
    whose step the C replay declined finishes on it from the slots the
    arena filled, so the declined step meets the python kernels exactly
    as the per-op path does.  It skips a step whose slot is already in
    the cell's store and runs
    :meth:`~repro.makespan.distribution.DiscreteDistribution.convolve`
    or :meth:`~repro.makespan.distribution.DiscreteDistribution.max_with`
    on operands the tape order has already filled in.  Each step's
    operands are fixed by the tape, so either replay is bit-identical to
    the scalar recursion.
    """
    prof = _profile.ACTIVE
    if prof is not None:
        prof.record("pool_exec", len(work))
    if _native.enabled():
        work = _replay_native(work, max_atoms, prof)
    for state, plan in work:
        values = state.store()
        for key, kind, a, b in plan.steps:
            if key in values:
                continue
            if kind == _CONV:
                values[key] = values[a].convolve(values[b], max_atoms)
            else:
                values[key] = values[a].max_with(values[b], max_atoms)


def pathapprox_plan_batch(
    template,
    k: Optional[int] = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    rtol: float = 2e-4,
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
    table = cache.get(_SLOTS)
    if table is None:
        table = cache[_SLOTS] = _SlotTable(n)
    point0 = DiscreteDistribution.point(0.0)
    node_rows = [
        two_state_rows(template.base[:, j], template.long[:, j], template.p[:, j])
        for j in range(n)
    ]
    states = [
        _CellRun(
            [point0, *(rows[c] for rows in node_rows)],
            table,
            template.means[c],
            template.variances[c],
        )
        for c in range(template.n_cells)
    ]
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
        execute_plans(work, max_atoms)
        # Fold the round into each cell's schedule, as _adaptive_estimate
        # does: a refinement within rtol counts a stall, ADAPTIVE_STALLS
        # consecutive stalls stop the cell, and exhaustion or the cap
        # stop it after this budget.  A stopped cell keeps only its
        # estimate: its slot store is dropped.
        still = []
        for st, plan in work:
            refined = st.mean(plan.root)
            stalled = False
            if adaptive and not first:
                if abs(refined - st.estimate) <= rtol * max(
                    abs(st.estimate), 1e-300
                ):
                    st.stalls += 1
                    stalled = st.stalls >= ADAPTIVE_STALLS
                else:
                    st.stalls = 0
            st.estimate = refined
            if adaptive and budget < cap and not st.exhausted and not stalled:
                still.append(st)
            else:
                st.arena = st.values = None
        first = False
        pending = still
        budget *= 2
    return np.array([st.estimate for st in states])
