"""Compiled folds: one step table per call, replayed by demand.

The scalar PATHAPPROX estimator (:mod:`repro.makespan.pathapprox`)
spends its time in two python-level recursions that are determined
entirely by DAG *structure* and variance order — the common-task
factoring of ``_fold_factored`` and the node walks of ``_path_sum`` —
yet re-derives them for every cell and every adaptive-k budget
doubling.  This module compiles that work once per call and replays it:

* :func:`pathapprox_plan_batch` builds one :class:`_StepTable` per call.
  Slot ``s`` of the table is a triple ``(kind, a, b)``: the convolve or
  max of two earlier slots; the leaves come first (slot 0 the Dirac at
  0, slot ``1 + v`` node ``v``'s law).  The table is hash-consed: a
  triple it already holds is not emitted again, so no op runs twice on
  the same operands.

* :func:`compile_fold_plan` compiles one cell's fold for one budget
  round into that table and returns the root slot.  It runs the
  recursion *symbolically* through memos that live for the whole call:
  path-sum prefixes keyed by their node mask (shared by every variance
  order), and, per variance order (:class:`_Order`), fold groups and
  leaf chains keyed by path masks in *rank space* — bit ``r`` is the
  node of variance rank ``r``.  A fold group is a sorted tuple of masks
  (its own memo key): the split node is the highest bit of its largest
  mask, and the paths holding it are a suffix of the group, found by one
  bisection.  A subtree compiled in an earlier round or for another cell
  of the same variance order is a dict hit, so every slot is compiled
  once.

* :func:`execute_plans` evaluates each cell's root on demand: a
  depth-first walk runs only the root's unfilled closure (operand ``a``
  before ``b``) and keeps every slot it fills, so a later round runs
  only the steps its larger fold adds.  With native kernels live, each
  cell's walk is one C call (:func:`~repro.makespan.native.replay_tape`)
  into the cell's arena, which holds its leaf laws (copied from the
  call's atom planes, with no distribution object per node and cell)
  and every slot filled so far.  The python loop over the scalar
  :class:`~repro.makespan.distribution.DiscreteDistribution` kernels
  walks the table the same way and is the oracle: it evaluates every
  cell under ``REPRO_NATIVE=0``, and finishes any cell the C replay
  declined.

* :func:`pathapprox_plan_batch` drives a template's cells through the
  adaptive-k schedule in lockstep, replicating ``_adaptive_estimate``'s
  per-cell control flow exactly while every round's roots evaluate in
  one :func:`execute_plans` pass.

The compile state is plain objects without reference cycles, dropped
when the call returns; nothing is cached on the template.

**Bit-identity.**  Each slot records exactly one operation the scalar
recursion performs, on the operands it uses: path-sum chains are
memoised by node *prefix* (the scalar chain computes every prefix, so a
prefix hit is the identical intermediate), fold subtrees by their set
of paths under one variance order (the recursion's result depends only
on that set and the split order), and slots by their triple (the same
op on bit-identical operands is bit-identical).  Each step's operands
are therefore bit-identical to the scalar path's, and either replay
runs the scalar kernels' own code (the C replay calls the routines
behind the per-op native kernels), so the replayed estimates equal the
scalar reference bit for bit — pinned by the evaluator parity tests.  A cell runs each
distinct step of its folds once across all its rounds, so its kernel
calls are the same with native kernels on and off.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

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
    "compile_fold_plan",
    "execute_plans",
    "pathapprox_plan_batch",
]

#: Step kinds of the table (the C replay's ``kind``).
_CONV = 0
_MAX = 1


class _StepTable:
    """One call's step table, hash-consed, and its path-sum prefix memo.

    Slot ``s`` is ``steps[3s:3s+3] == [kind, a, b]``, the distribution
    ``a kind b`` of two earlier slots.  The ``n + 1`` leaf slots come
    first as ``[-1, -1, -1]`` (never computed: no earlier operands).
    ``slots`` maps each emitted triple to its slot, so a triple is
    emitted once: the same op on the same operands gives the same bits,
    and every fold that asks for it shares the slot.  ``prefix`` maps a
    node mask to the slot of the path sum over those nodes, the chain of
    convolutions seeded at the Dirac at 0 in ascending node order that
    the scalar ``_path_sum`` computes; every variance order shares it.
    """

    __slots__ = ("steps", "slots", "prefix", "_array")

    def __init__(self, n: int) -> None:
        self.steps: List[int] = [-1] * (3 * (n + 1))
        self.slots: Dict[Tuple[int, int, int], int] = {}
        self.prefix: Dict[int, int] = {0: 0}
        self._array = np.empty(0, dtype=np.int32)

    def emit(self, kind: int, a: int, b: int) -> int:
        """Slot of ``a kind b``: the one an earlier emit of the same
        triple made, else a new slot appended."""
        key = (kind, a, b)
        slot = self.slots.get(key)
        if slot is None:
            steps = self.steps
            steps += key
            slot = self.slots[key] = len(steps) // 3 - 1
        return slot

    def path_sum(self, nodes: int) -> int:
        """Slot of the path sum over node mask ``nodes``.

        Memoised per prefix: the scalar chain computes every prefix
        anyway, so a prefix hit reuses the identical intermediate.  The
        highest nodes are stripped until a known prefix (at worst the
        empty one, slot 0) remains, then convolved back on in ascending
        order.
        """
        prefix = self.prefix
        slot = prefix.get(nodes)
        if slot is not None:
            return slot
        stripped = []
        rest = nodes
        while slot is None:
            top = rest.bit_length() - 1
            stripped.append(top)
            rest ^= 1 << top
            slot = prefix.get(rest)
        for v in reversed(stripped):
            rest |= 1 << v
            slot = prefix[rest] = self.emit(_CONV, slot, 1 + v)
        return slot

    def array(self) -> np.ndarray:
        """The table as the C replay's int32 triples; each slot is
        converted once, when the first replay after its compile asks."""
        done = self._array.size
        if done < len(self.steps):
            tail = np.array(self.steps[done:], dtype=np.int32)
            self._array = np.concatenate((self._array, tail))
        return self._array


class _Order:
    """The compile memos of one variance order within a call.

    ``node[r]`` is the node of variance rank ``r`` (ascending by the
    scalar split key ``(variance, id)``).  Masks here are in rank space
    (bit ``r`` is ``node[r]``), so a group's split node — the highest
    variance in its union — is the highest bit of its largest mask.  A
    fold group is a *sorted* tuple of distinct rank masks, its own
    canonical form: the paths holding the split bit are exactly the
    masks at or above it, a suffix found by one bisection.  ``chains``
    maps a rank mask to its path-sum slot, ``folds`` a group to its
    fold's slot.
    """

    __slots__ = ("table", "node", "chains", "folds")

    def __init__(self, table: _StepTable, node: Tuple[int, ...]) -> None:
        self.table = table
        self.node = node
        self.chains: Dict[int, int] = {}
        self.folds: Dict[Tuple[int, ...], int] = {}

    def chain(self, mask: int) -> int:
        """Slot of the path sum over the nodes of rank mask ``mask``."""
        slot = self.chains.get(mask)
        if slot is None:
            node = self.node
            nodes = 0
            rest = mask
            while rest:
                low = rest & -rest
                nodes |= 1 << node[low.bit_length() - 1]
                rest ^= low
            slot = self.chains[mask] = self.table.path_sum(nodes)
        return slot

    def fold(self, group: Tuple[int, ...]) -> int:
        """Slot of ``_fold_factored`` over ``group`` (distinct non-empty
        rank masks, ascending): the same intersection stripping,
        highest-variance split and memo granularity, emitting slots
        instead of computing distributions."""
        slot = self.folds.get(group)
        if slot is not None:
            return slot
        common = group[0]
        for q in group:
            common &= q
        # common is a subset of every path: XOR strips it and keeps the
        # order, and only the smallest path can equal it.
        rest = tuple([q ^ common for q in group]) if common else group
        if not rest[0]:
            rest = rest[1:]
        if not rest:
            slot = 0
        elif len(rest) == 1:
            slot = self.chain(rest[0])
        else:
            # The split bit is the largest mask's highest; the masks
            # holding it are those at or above it.
            split = bisect_left(rest, 1 << (rest[-1].bit_length() - 1))
            if split:
                slot = self.table.emit(
                    _MAX, self.fold(rest[split:]), self.fold(rest[:split])
                )
            else:
                slot = self.fold(rest)
        if common:
            slot = self.table.emit(_CONV, slot, self.chain(common))
        self.folds[group] = slot
        return slot


def compile_fold_plan(order: _Order, paths: Sequence[int]) -> int:
    """Compile the factored fold of ``paths`` into ``order``'s step
    table; returns the root slot.

    ``paths`` are node masks in ``order``'s rank space, as
    :func:`~repro.makespan.pathapprox._k_best_paths_cells` returns them
    (set algebra on python ints is an order of magnitude cheaper than on
    frozensets); sorted, they are the fold group's canonical form.  Runs
    exactly the recursion of ``_fold_factored``, through memos that live
    for the whole :func:`pathapprox_plan_batch` call: a subtree an
    earlier round or another cell of the same variance order compiled is
    not compiled again, and a fold compiled before returns its root at
    once.
    """
    return order.fold(tuple(sorted(paths)))


#: Atoms a cell's arena holds at first (more if its leaf laws need it);
#: the arena grows whenever a step's output might not fit.  A MONTAGE-50
#: cell fills 21k atoms in the median and 35k at the 90th percentile.
#: Starting at twice the leaf atoms instead grew each cell about 7 times
#: and cost 5% of ``montage-pathapprox`` cells/s (4 alternating 30-s
#: pairs, 2-core x86-64) without lowering peak RSS: a page is resident
#: only once written.
_ARENA_ATOMS = 1 << 15


class _Leaves:
    """Every cell's leaf slots for one call, as planes: slot 0 the Dirac
    at 0, slot ``1 + v`` node ``v``'s 2-state law, every (cell, node)
    law from one :func:`~repro.makespan.distribution.two_state_rows`
    pass over the template's planes.  The C replay's arenas copy a
    cell's atoms straight from the planes; distributions are built only
    for a cell whose first run is on the python loop."""

    __slots__ = ("rows", "length", "values", "probs", "used")

    def __init__(self, template) -> None:
        rows = self.rows = two_state_rows(
            template.base, template.long, template.p
        )
        cells, n = rows.size.shape
        self.length = np.ones((cells, n + 1), dtype=np.int64)
        self.length[:, 1:] = rows.size
        self.values = np.zeros((cells, n + 1, 2))
        self.values[:, 1:] = rows.values
        self.probs = np.zeros((cells, n + 1, 2))
        self.probs[:, 0, 0] = 1.0
        self.probs[:, 1:] = rows.probs
        self.used = np.arange(2) < self.length[:, :, None]

    def arena(self, c: int) -> "_Arena":
        """Cell ``c``'s arena, its leaf slots filled."""
        used = self.used[c]
        return _Arena(self.length[c], self.values[c][used], self.probs[c][used])

    def dists(self, c: int) -> Dict[int, DiscreteDistribution]:
        """Cell ``c``'s leaf slots as distributions."""
        values = {0: DiscreteDistribution.point(0.0)}
        for v in range(self.length.shape[1] - 1):
            values[1 + v] = self.rows[c, v]
        return values


class _Arena:
    """A cell's slot store for the C replay: slot ``i`` holds
    ``length[i]`` atoms at ``off[i]`` of the ``values`` and ``probs``
    planes, and ``length[i] == 0`` marks it unfilled.  ``cursor`` is the
    C entry's (atoms used, atoms needed).  Built from the leaf slots'
    atom counts and their atoms, in slot order."""

    __slots__ = ("off", "length", "values", "probs", "cursor")

    def __init__(
        self, length: Sequence[int], values: np.ndarray, probs: np.ndarray
    ) -> None:
        self.length = np.array(length, dtype=np.int64)
        self.off = np.cumsum(self.length) - self.length
        used = values.size
        cap = max(_ARENA_ATOMS, used)
        self.values = np.empty(cap)
        self.probs = np.empty(cap)
        self.values[:used] = values
        self.probs[:used] = probs
        self.cursor = np.array([used, 0], dtype=np.int64)

    def replay(self, table: np.ndarray, root: int, max_atoms: int, ran) -> bool:
        """Fill slot ``root`` by demand over ``table``, growing the arena
        as the C entry asks; ``False`` when a step declined."""
        slots = table.size // 3
        have = self.length.size
        if have < slots:
            pad = np.zeros(max(slots, 2 * have) - have, dtype=np.int64)
            self.length = np.concatenate([self.length, pad])
            self.off = np.concatenate([self.off, pad])
        cursor = self.cursor
        while True:
            status = _native.replay_tape(
                table, root, self.off, self.length, self.values, self.probs,
                max_atoms, cursor, ran,
            )
            if status != _native.TAPE_GROW:
                return status == _native.TAPE_DONE
            used = int(cursor[0])
            spare = np.empty(max(2 * self.values.size, int(cursor[1])) - used)
            self.values = np.concatenate((self.values[:used], spare))
            self.probs = np.concatenate((self.probs[:used], spare))

    def dist(self, slot: int) -> DiscreteDistribution:
        """Slot ``slot`` as a distribution (views of the planes)."""
        o = int(self.off[slot])
        end = o + int(self.length[slot])
        return DiscreteDistribution._wrap(self.values[o:end], self.probs[o:end])


class _CellRun:
    """Per-cell replay state: the call's leaf planes and the cell's row
    in them, the compile memos of the cell's variance order, the slot
    store — the C replay's :class:`_Arena`, or the python loop's dict,
    built from the leaves or the arena the first time the cell runs on
    it — and the cell's place in the adaptive-k schedule."""

    __slots__ = (
        "leaves",
        "cell",
        "order",
        "arena",
        "values",
        "estimate",
        "stalls",
        "exhausted",
    )

    def __init__(self, leaves: _Leaves, cell: int, order: _Order) -> None:
        self.leaves = leaves
        self.cell = cell
        self.order = order
        self.arena: Optional[_Arena] = None
        self.values: Optional[Dict[int, DiscreteDistribution]] = None
        self.estimate = 0.0
        self.stalls = 0
        self.exhausted = False

    def store(self) -> Dict[int, DiscreteDistribution]:
        """The python loop's slot store.  A cell moves onto it for good:
        its filled arena slots (or its leaves) seed the dict."""
        values = self.values
        if values is None:
            arena = self.arena
            if arena is None:
                values = self.leaves.dists(self.cell)
            else:
                values = {
                    s: arena.dist(s)
                    for s in np.flatnonzero(arena.length).tolist()
                }
                self.arena = None
            self.values = values
        return values

    def mean(self, slot: int) -> float:
        """Mean of the distribution in slot ``slot``."""
        if self.values is not None:
            return self.values[slot].mean()
        return self.arena.dist(slot).mean()


def _replay_native(
    work, table: np.ndarray, max_atoms: int, prof
) -> List[Tuple[_CellRun, int]]:
    """One C call per cell (more only when its arena grows); returns the
    pairs left to the python loop: cells already on it, and cells a step
    declined on."""
    left = []
    ran = np.zeros(2, dtype=np.int64)
    wall = 0.0
    for state, root in work:
        if state.values is not None:
            left.append((state, root))
            continue
        if state.arena is None:
            state.arena = state.leaves.arena(state.cell)
        t0 = time.perf_counter() if prof is not None else 0.0
        done = state.arena.replay(table, root, max_atoms, ran)
        if prof is not None:
            wall += time.perf_counter() - t0
        if not done:
            left.append((state, root))
    if prof is not None:
        # One call serves both ops; its time is split by step count.
        steps = int(ran[0] + ran[1])
        for op, count in (("native_convolve", ran[0]), ("native_max", ran[1])):
            if count:
                prof.record(op, int(count), 0, wall * int(count) / steps)
    return left


def execute_plans(
    work: Sequence[Tuple[_CellRun, int]], table: _StepTable, max_atoms: int
) -> None:
    """Evaluate each cell's root slot on demand over ``table``.

    ``work`` pairs each cell with the root :func:`compile_fold_plan`
    returned for it.  Each walk is depth first from the root and runs
    only the unfilled closure, operand ``a`` before ``b``, keeping every
    slot it fills for the cell's later rounds.  With native kernels live
    each cell's walk is one :func:`~repro.makespan.native.replay_tape`
    call into the cell's arena, and the steps run are recorded as
    ``native_convolve``/``native_max`` rows.  The python loop below is
    the oracle: it walks every cell under ``REPRO_NATIVE=0``, and a cell
    whose step the C replay declined finishes on it from the slots the
    arena filled, so the declined step meets the python kernels exactly
    as the per-op path does.  It runs
    :meth:`~repro.makespan.distribution.DiscreteDistribution.convolve`
    or :meth:`~repro.makespan.distribution.DiscreteDistribution.max_with`
    on operands already in the cell's store.  Each slot's operands are
    fixed by the table, so either walk is bit-identical to the scalar
    recursion.
    """
    prof = _profile.ACTIVE
    if prof is not None:
        prof.record("pool_exec", len(work))
    if _native.enabled():
        work = _replay_native(work, table.array(), max_atoms, prof)
    steps = table.steps
    for state, root in work:
        values = state.store()
        if root in values:
            continue
        stack = [root]
        while stack:
            s = stack[-1]
            kind, a, b = steps[3 * s : 3 * s + 3]
            if a not in values:
                stack.append(a)
            elif b not in values:
                stack.append(b)
            else:
                if kind == _CONV:
                    values[s] = values[a].convolve(values[b], max_atoms)
                else:
                    values[s] = values[a].max_with(values[b], max_atoms)
                stack.pop()


def pathapprox_plan_batch(
    template,
    k: Optional[int] = None,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    rtol: float = 2e-4,
) -> np.ndarray:
    """PATHAPPROX over every cell of a template via one step table.

    Every active cell shares the same lockstep budget sequence (32, 64,
    ...): each round enumerates the cells' paths as rank-space masks,
    compiles each cell's fold into the call's step table (one
    :func:`compile_fold_plan` call per cell and round, through memos
    shared by every round and, per variance order, by every cell), and
    evaluates the roots through one :func:`execute_plans` pass.  The
    table, memos and slot stores are dropped on return.  Per-cell
    control flow — stall counting, exhaustion, the ``k=None`` /
    explicit-k / wide-DAG single-shot branches — replicates
    ``_adaptive_estimate`` exactly, so results are bit-identical to the
    scalar reference.
    """
    n = template.n
    n_cells = template.n_cells
    sinks = template.sinks()
    table = _StepTable(n)
    orders: Dict[Tuple[int, ...], _Order] = {}
    leaves = _Leaves(template)
    variances = template.variances
    var_rank = np.empty((n_cells, n), dtype=np.int64)
    states = []
    for c in range(n_cells):
        var = variances[c]
        node = tuple(sorted(range(n), key=lambda v: (var[v], v)))
        var_rank[c, node] = np.arange(n)
        order = orders.get(node)
        if order is None:
            order = orders[node] = _Order(table, node)
        states.append(_CellRun(leaves, c, order))
    adaptive = k is None and n <= SINGLE_SHOT_N
    if k is not None:
        budget = k
    elif n > SINGLE_SHOT_N:
        budget = 2 * n
    else:
        budget = INITIAL_PATHS
    cap = max(8 * n, 2 * INITIAL_PATHS)
    first = True
    pending = list(range(n_cells))
    while pending:
        paths_cells = _k_best_paths_cells(
            template.preds, sinks, template.means[pending], budget,
            var_rank[pending],
        )
        work: List[Tuple[_CellRun, int]] = []
        for c, paths in zip(pending, paths_cells):
            if not paths:
                raise EvaluationError("DAG has no source-to-sink path")
            st = states[c]
            st.exhausted = len(paths) < budget
            work.append((st, compile_fold_plan(st.order, paths)))
        execute_plans(work, table, max_atoms)
        # Fold the round into each cell's schedule, as _adaptive_estimate
        # does: a refinement within rtol counts a stall, ADAPTIVE_STALLS
        # consecutive stalls stop the cell, and exhaustion or the cap
        # stop it after this budget.  A stopped cell keeps only its
        # estimate: its slot store is dropped.
        still = []
        for c, (st, root) in zip(pending, work):
            refined = st.mean(root)
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
                still.append(c)
            else:
                st.arena = st.values = None
        first = False
        pending = still
        budget *= 2
    return np.array([st.estimate for st in states])
