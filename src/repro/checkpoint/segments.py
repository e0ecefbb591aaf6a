"""Segment cost model: ``R_i^j``, ``W_i^j``, ``C_i^j`` (§IV-B).

For a contiguous slice ``[i..j]`` of a superchain:

* ``R_i^j`` — seconds to read from stable storage every *distinct* file
  consumed by a task of the slice but produced outside it (by an earlier
  segment, another superchain — always already checkpointed, see §IV-A —
  or a workflow input);
* ``W_i^j`` — the slice's total task weight;
* ``C_i^j`` — seconds to checkpoint every *distinct* file produced inside
  the slice and still needed by a task outside it (later in this
  superchain or anywhere else).  With ``save_final_outputs`` (default, the
  production-WMS semantics), workflow output files count as needed.

Deduplication follows the paper (§VI-A): "a task may generate the same
file for two successors — a checkpoint will save the file only once"; we
apply the same rule to reads within one segment.

The model exposes an ``O(n²)`` table of the first-order expected times
``T(i, j)`` of Equation (2), built with two incremental sweeps per start
index (reads only ever grow with ``j``; checkpoint contents are maintained
with per-file outside-consumer counters), so the whole table costs
``O(n·F)`` set operations where ``F`` is the file-degree of the chain.

:class:`SuperchainCostModel` prices one superchain on one platform from
the workflow's own file maps: the per-cell reference.  The engine's
batched path prices a whole group of cells as arrays instead:

* :class:`ScheduleIncidence` compiles every superchain of a (workflow,
  schedule) pair once into *ops* — each position's input files, then its
  output files, in the model's loop order — and gives each op its kind
  for every start row ``i`` of the table: a read, a drop (the last
  consumer inside the slice retires the file from the checkpoint set), a
  checkpoint, a final output (a checkpoint with ``save_final_outputs``),
  or nothing;
* :class:`GroupCosts` prices those ops at each distinct CCR's file
  sizes: every span table ``X(i, j)`` at once, as running sums over the
  ops (Eq. (2) uses λ only through ``T = X(1 + λX/2)``, so one table
  serves every pfail of its CCR), and the ``(R, W, C)`` of any slices.

The arrays walk every float in the model's order.  Running sums go left
to right (``np.cumsum``, never the pairwise ``np.sum``) from ``0.0``, and
an op the loop skips adds ``+0.0``, which leaves every sum the loops can
reach unchanged (a sum that starts at ``+0.0`` never becomes ``-0.0``).
The table's incremental add-then-subtract checkpoint sum and the direct
sum of :meth:`SuperchainCostModel.ckpt_cost` can differ in the last bit,
so each keeps its own; ``R`` is the table's own read sum, because a
producer precedes its consumers in a chain, so both sums skip the same
files.  Tables and segment costs are bit-identical to the model's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError
from repro.makespan.two_state import first_order_expected_time
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.scheduling.schedule import Schedule, Superchain

__all__ = [
    "SuperchainCostModel",
    "ScheduleIncidence",
    "GroupCosts",
    "expected_times",
]


def expected_times(spans: np.ndarray, failure_rate: float) -> np.ndarray:
    """``T(i, j)`` of Equation (2) from a span table ``X(i, j)``."""
    with np.errstate(invalid="ignore"):
        p = np.clip(failure_rate * spans, 0.0, 1.0 - 1e-12)
        return spans * (1.0 + 0.5 * p)


class SuperchainCostModel:
    """Costs of contiguous segments ``[i..j]`` of one superchain.

    Indices are positions within ``superchain.tasks`` (0-based, inclusive).
    """

    def __init__(
        self,
        workflow: Workflow,
        superchain: Superchain,
        platform: Platform,
        save_final_outputs: bool = True,
    ) -> None:
        self.workflow = workflow
        self.superchain = superchain
        self.platform = platform
        self.save_final_outputs = save_final_outputs

        self.tasks: Tuple[str, ...] = superchain.tasks
        self.n = len(self.tasks)
        self._pos = {t: k for k, t in enumerate(self.tasks)}

        self._weights = np.array(
            [workflow.weight(t) for t in self.tasks], dtype=float
        )
        self._wprefix = np.concatenate(([0.0], np.cumsum(self._weights)))

        # Per-task input/output file lists, resolved once.
        self._inputs: List[List[str]] = [
            sorted(workflow.inputs(t)) for t in self.tasks
        ]
        self._outputs: List[List[str]] = [
            sorted(workflow.outputs(t)) for t in self.tasks
        ]
        self._files: Optional[Tuple[Dict[str, float], Dict[str, int]]] = None

    # ------------------------------------------------------------------ #
    # elementary costs
    # ------------------------------------------------------------------ #

    def compute(self, i: int, j: int) -> float:
        """``W_i^j``: failure-free compute seconds of slice ``[i..j]``."""
        self._check(i, j)
        return float(self._wprefix[j + 1] - self._wprefix[i])

    def read_cost(self, i: int, j: int) -> float:
        """``R_i^j``: seconds reading the slice's external inputs."""
        self._check(i, j)
        return self._read_bytes(i, j) / self.platform.bandwidth

    def ckpt_cost(self, i: int, j: int) -> float:
        """``C_i^j``: seconds checkpointing the slice's live outputs."""
        self._check(i, j)
        return self._ckpt_bytes(i, j) / self.platform.bandwidth

    def span(self, i: int, j: int) -> float:
        """``X = R + W + C`` of slice ``[i..j]`` (seconds)."""
        return self.read_cost(i, j) + self.compute(i, j) + self.ckpt_cost(i, j)

    def expected_time(self, i: int, j: int) -> float:
        """``T(i, j)`` of Equation (2): first-order expected slice time."""
        return first_order_expected_time(
            self.span(i, j), self.platform.failure_rate
        )

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i <= j < self.n):
            raise CheckpointError(
                f"invalid slice [{i}..{j}] of superchain with {self.n} tasks"
            )

    def _read_bytes(self, i: int, j: int) -> float:
        inside = set(self.tasks[i : j + 1])
        seen: set = set()
        total = 0.0
        wf = self.workflow
        for k in range(i, j + 1):
            for f in self._inputs[k]:
                if f in seen:
                    continue
                producer = wf.producer(f)
                if producer is None or producer not in inside:
                    seen.add(f)
                    total += wf.file_size(f)
        return total

    def _ckpt_bytes(self, i: int, j: int) -> float:
        inside = set(self.tasks[i : j + 1])
        total = 0.0
        wf = self.workflow
        for k in range(i, j + 1):
            for f in self._outputs[k]:
                consumers = wf.consumers(f)
                if consumers - inside:
                    total += wf.file_size(f)
                elif not consumers and self.save_final_outputs:
                    total += wf.file_size(f)
        return total

    # ------------------------------------------------------------------ #
    # table construction (incremental sweeps)
    # ------------------------------------------------------------------ #

    def _chain_files(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Sizes of the chain's own files and consumer counts of its
        outputs, resolved once per model."""
        if self._files is None:
            wf = self.workflow
            sizes = {
                f: wf.file_size(f)
                for files in (*self._inputs, *self._outputs)
                for f in files
            }
            consumers = {
                f: len(wf.consumers(f))
                for files in self._outputs
                for f in files
            }
            self._files = (sizes, consumers)
        return self._files

    def span_table(self) -> np.ndarray:
        """``X(i, j)`` for all ``i <= j`` (upper-triangular, else NaN)."""
        n = self.n
        sizes, consumers = self._chain_files()
        spans = np.full((n, n), np.nan)
        for i in range(n):
            read_b = 0.0
            ckpt_b = 0.0
            read_seen: set = set()
            # live[f] = remaining consumers of f outside the current slice
            # (a virtual consumer stands in for workflow outputs).
            live: Dict[str, int] = {}
            produced_at: Dict[str, int] = {}
            for j in range(i, n):
                t = self.tasks[j]
                # Inputs: count files produced outside [i..j].  A file
                # produced inside would have producer position in [i..j-1]
                # (producers precede consumers in the chain).
                for f in self._inputs[j]:
                    if f in produced_at:
                        # produced inside this slice: consumed from memory,
                        # and one fewer outside consumer to checkpoint for.
                        live[f] -= 1
                        if live[f] == 0:
                            ckpt_b -= sizes[f]
                        continue
                    if f not in read_seen:
                        read_seen.add(f)
                        read_b += sizes[f]
                # Outputs: enter the checkpoint set if anyone outside
                # still needs them.
                for f in self._outputs[j]:
                    produced_at[f] = j
                    count = consumers[f]
                    if count == 0:
                        count = 1 if self.save_final_outputs else 0
                    live[f] = count
                    if count > 0:
                        ckpt_b += sizes[f]
                spans[i, j] = (
                    (read_b + ckpt_b) / self.platform.bandwidth
                    + self._wprefix[j + 1]
                    - self._wprefix[i]
                )
        return spans

    def expected_time_table(self) -> np.ndarray:
        """``T(i, j)`` of Equation (2) for all ``i <= j``."""
        return expected_times(self.span_table(), self.platform.failure_rate)


# ---------------------------------------------------------------------- #
# compiled ops: structure once per (workflow, schedule)
# ---------------------------------------------------------------------- #

#: Kinds of a compiled op for one start row ``i`` of the span table.
SKIP, READ, DROP, CKPT, FINAL = range(5)


def _chain_ops(
    workflow: Workflow, superchain: Superchain, ids: Dict[str, int]
) -> List[Tuple[int, ...]]:
    """One superchain's ops in the model's loop order: per position, its
    inputs then its outputs, each sorted by file name.

    An op is ``(position, file, producer, drop, previous, kind, hi)``.
    For an input: the producer's position in this chain (``-1`` outside
    it); whether this is the read by the last of the file's consumers
    when all of them follow its producer in this chain (it retires the
    file from a slice holding both); and the position of this chain's
    previous read of the file (``-1`` if none).  For an output: ``CKPT``
    or ``FINAL`` (no consumers), and the last consumer position when
    every consumer is in this chain (``n`` when one is not).
    """
    tasks = superchain.tasks
    n = len(tasks)
    pos = {t: k for k, t in enumerate(tasks)}

    def file_id(f: str) -> int:
        return ids.setdefault(f, len(ids))

    drop_at: Dict[str, int] = {}
    outputs = []
    for k, t in enumerate(tasks):
        row = []
        for f in sorted(workflow.outputs(t)):
            consumers = [pos.get(c) for c in workflow.consumers(f)]
            later = [q for q in consumers if q is not None and q > k]
            if consumers and len(later) == len(consumers):
                drop_at[f] = max(later)
            hi = max(consumers) if consumers and None not in consumers else n
            row.append((k, file_id(f), -1, 0, -1, CKPT if consumers else FINAL, hi))
        outputs.append(row)
    ops = []
    last_read: Dict[str, int] = {}
    for k, t in enumerate(tasks):
        for f in sorted(workflow.inputs(t)):
            producer = pos.get(workflow.producer(f), -1)
            drop = int(drop_at.get(f) == k)
            ops.append((k, file_id(f), producer, drop, last_read.get(f, -1), SKIP, 0))
            last_read[f] = k
        ops.extend(outputs[k])
    return ops


class ScheduleIncidence:
    """Every superchain's file ops, compiled once per (workflow, schedule).

    Chain ``s`` has ``lengths[s]`` tasks; arrays are padded to the
    longest chain (``width`` positions) and to the most ops of a chain,
    with the op axis first.  Ops follow :func:`_chain_ops`; ``op_files``
    holds their file ids (into ``files``).  ``kinds[o, s, i]`` is op
    ``o``'s kind when the slice starts at position ``i``:

    * ``READ`` — an input produced before ``i`` or outside the chain, at
      this chain's first read of the file at or after ``i``;
    * ``DROP`` — an input produced at or after ``i`` whose read retires
      the file from the checkpoint set;
    * ``CKPT`` / ``FINAL`` — an output at or after ``i``;
    * ``SKIP`` — every other op (one before ``i``, a repeated read, the
      read of a file produced inside the slice that does not retire it)
      and the padding.

    ``ends[s, j]`` counts chain ``s``'s ops at positions ``<= j``, and
    ``wprefix[s]`` holds its weights' prefix sums.  The outputs alone,
    in op order, for the direct checkpoint sums: ``out_files``,
    ``out_final`` (no consumers) and ``out_hi``, the last consumer's
    position (``n`` when a consumer is outside the chain);
    ``out_starts[s, k]`` counts chain ``s``'s outputs at positions
    ``< k``.  Only structure and task weights enter, so CCR-rescaled
    copies of the workflow share it.
    """

    __slots__ = (
        "superchains",
        "files",
        "lengths",
        "width",
        "wprefix",
        "op_files",
        "kinds",
        "ends",
        "out_files",
        "out_final",
        "out_hi",
        "out_starts",
    )

    def __init__(self, workflow: Workflow, schedule: Schedule) -> None:
        ids: Dict[str, int] = {}
        chains = tuple(schedule.superchains)
        ops = [_chain_ops(workflow, sc, ids) for sc in chains]
        self.superchains: Tuple[Superchain, ...] = chains
        self.files: Tuple[str, ...] = tuple(ids)
        self.lengths = np.array([len(sc.tasks) for sc in chains], dtype=np.intp)
        width = self.width = int(self.lengths.max(initial=0))
        nops = max(map(len, ops), default=0)

        self.wprefix = np.zeros((len(chains), width + 1))
        # Padding ops sit at position -1, which no start row reaches.
        table = np.zeros((nops, len(chains), 7), dtype=np.int32)
        table[:, :, 0] = -1
        for s, (sc, chain_ops) in enumerate(zip(chains, ops)):
            weights = [workflow.weight(t) for t in sc.tasks]
            self.wprefix[s, : len(weights) + 1] = np.concatenate(
                ([0.0], np.cumsum(weights))
            )
            if chain_ops:
                table[: len(chain_ops), s] = chain_ops
        position, files, producer, drop, previous, kind, hi = np.moveaxis(
            table, 2, 0
        )
        self.op_files = files
        row = np.arange(width)
        at_or_before = (position[:, :, None] <= row) & (position >= 0)[:, :, None]
        self.ends = at_or_before.sum(axis=0)
        read = np.where(
            row <= producer[:, :, None],
            np.where(drop[:, :, None] == 1, DROP, SKIP),
            np.where(row > previous[:, :, None], READ, SKIP),
        )
        self.kinds = np.where(
            row <= position[:, :, None],
            np.where(kind[:, :, None] == SKIP, read, kind[:, :, None]),
            SKIP,
        ).astype(np.int8)

        outputs = kind != SKIP
        nout = int(outputs.sum(axis=0).max(initial=0))
        order = np.argsort(~outputs, axis=0, kind="stable")[:nout]
        self.out_files = np.take_along_axis(files, order, axis=0)
        self.out_final = np.take_along_axis(kind, order, axis=0) == FINAL
        self.out_hi = np.take_along_axis(hi, order, axis=0)
        self.out_starts = np.zeros((len(chains), width + 1), dtype=np.intp)
        self.out_starts[:, 1:] = (
            outputs[:, :, None] & at_or_before
        ).sum(axis=0)


class GroupCosts:
    """One batched group's segment costs: a schedule's ops priced at each
    distinct CCR's file sizes.

    ``sizes[c]`` holds CCR row ``c``'s file sizes by file id.  Cell ``k``
    of the group prices on row ``ccr[k]`` with failure rate ``rates[k]``.
    """

    __slots__ = (
        "incidence",
        "sizes",
        "bandwidth",
        "save_final_outputs",
        "ccr",
        "rates",
    )

    def __init__(
        self,
        incidence: ScheduleIncidence,
        sizes: Sequence[Sequence[float]],
        bandwidth: float,
        save_final_outputs: bool,
        ccr: Sequence[int],
        rates: Sequence[float],
    ) -> None:
        self.incidence = incidence
        self.sizes = np.asarray(sizes, dtype=float).reshape(
            -1, len(incidence.files)
        )
        self.bandwidth = bandwidth
        self.save_final_outputs = save_final_outputs
        self.ccr = np.asarray(ccr, dtype=np.intp)
        self.rates = np.asarray(rates, dtype=float)

    def span_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every CCR row's span tables and their read sums.

        Both have shape ``(CCRs, chains, width, width)``: ``spans[c, s]``
        is :meth:`SuperchainCostModel.span_table` of chain ``s`` at row
        ``c``'s sizes (NaN outside ``i <= j < lengths[s]``), and
        ``reads[c, s, i, j]`` the bytes its slice ``[i..j]`` reads.
        Each start row sums its ops left to right along the op axis, one
        CCR row at a time.
        """
        incidence = self.incidence
        kinds = incidence.kinds
        nops, nchains, width = kinds.shape
        read = kinds == READ
        drop = kinds == DROP
        checkpoint = (kinds == CKPT) | ((kinds == FINAL) & self.save_final_outputs)
        # The running sums after position j's last op, as (j, s, i).
        at = (incidence.ends.T, np.arange(nchains))
        shape = (len(self.sizes), nchains, width, width)
        spans = np.empty(shape)
        reads = np.empty(shape)
        wprefix = incidence.wprefix
        with np.errstate(invalid="ignore", over="ignore"):
            for row, sizes in enumerate(self.sizes):
                op_sizes = sizes[incidence.op_files][:, :, None]
                sums = np.zeros((nops + 1, nchains, width))
                np.copyto(sums[1:], op_sizes, where=read)
                reads[row] = np.cumsum(sums, axis=0, out=sums)[at].transpose(1, 2, 0)
                sums = np.zeros((nops + 1, nchains, width))
                np.copyto(sums[1:], op_sizes, where=checkpoint)
                np.copyto(sums[1:], -op_sizes, where=drop)
                ckpts = np.cumsum(sums, axis=0, out=sums)[at].transpose(1, 2, 0)
                spans[row] = (
                    (reads[row] + ckpts) / self.bandwidth
                    + wprefix[:, None, 1:]
                    - wprefix[:, :-1, None]
                )
        position = np.arange(width)
        inside = (position[:, None] <= position) & (
            position < incidence.lengths[:, None, None]
        )
        spans[:, ~inside] = np.nan
        return spans, reads

    def slice_costs(
        self,
        reads: np.ndarray,
        ccr: np.ndarray,
        chain: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(R, W, C)`` of each slice ``[start..end]`` of superchain
        ``chain`` at CCR row ``ccr``, as :meth:`SuperchainCostModel.
        read_cost` / ``compute`` / ``ckpt_cost`` give them; ``reads`` is
        :meth:`span_tables`'s.

        ``C`` sums, left to right, the slice's outputs that a task after
        it still needs: a consumer follows its producer in a chain, so
        that is a consumer outside the chain or past ``end``.
        """
        incidence = self.incidence
        starts = incidence.out_starts
        # An output stays live while a consumer lies past the slice's end;
        # a final output, to the end of every slice or of none.
        final = incidence.width if self.save_final_outputs else -1
        until = np.where(incidence.out_final, final, incidence.out_hi)
        output = np.arange(len(until))[:, None]
        live = (
            (output >= starts[chain, start])
            & (output < starts[chain, end + 1])
            & (until[:, chain] > end)
        )
        op, cell = np.nonzero(live)
        ckpts = np.zeros((len(until) + 1, len(chain)))
        with np.errstate(invalid="ignore", over="ignore"):
            ckpts[op + 1, cell] = self.sizes[
                ccr[cell], incidence.out_files[op, chain[cell]]
            ]
            np.cumsum(ckpts, axis=0, out=ckpts)
            ckpt_cost = ckpts[-1] / self.bandwidth
            read_cost = reads[ccr, chain, start, end] / self.bandwidth
            compute = (
                incidence.wprefix[chain, end + 1]
                - incidence.wprefix[chain, start]
            )
        return read_cost, compute, ckpt_cost
