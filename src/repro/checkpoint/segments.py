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

Two implementations share these semantics:

* :class:`SuperchainCostModel` prices one superchain on one platform
  from the workflow's own file maps — the per-cell reference;
* :class:`ScheduleIncidence` compiles every superchain's file incidence
  of a (workflow, schedule) pair once into integer file ids, producer
  positions and consumer counts, and :class:`ScheduleCosts` prices it at
  one set of file sizes (one CCR).  Eq. (2) uses λ only through
  ``T = X(1 + λX/2)``, so one span table ``X(i, j)`` serves every pfail
  of that CCR.

Both walk every float in the same order — the table's incremental
add-then-subtract checkpoint sums and the direct sums of
:meth:`SuperchainCostModel.read_cost` / :meth:`~SuperchainCostModel.ckpt_cost`
can differ in the last bit, so each keeps its own — and produce
bit-identical tables and segment costs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.checkpoint.plan import check_segment_costs
from repro.errors import CheckpointError
from repro.makespan.two_state import first_order_expected_time
from repro.mspg.graph import Workflow
from repro.platform import Platform
from repro.scheduling.schedule import Schedule, Superchain

__all__ = [
    "SuperchainCostModel",
    "ScheduleIncidence",
    "ChainIncidence",
    "ScheduleCosts",
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
# compiled incidence: structure once per (workflow, schedule)
# ---------------------------------------------------------------------- #


class ChainIncidence:
    """One superchain's file incidence, in integer file ids.

    Per task position ``k`` (files in the same sorted order as
    :class:`SuperchainCostModel`):

    * ``inputs[k]`` — ``(file, producer, drop)``: ``producer`` is the
      producing task's position in this chain (``-1`` if it lies outside
      it), and ``drop`` marks the read by the last of the file's
      consumers when all of them follow its producer in this chain — a
      slice holding that read and the producer need not checkpoint it;
    * ``outputs[k]`` — ``(file, consumers, lo, hi)``: the consumer count,
      and the span ``[lo, hi]`` of consumer positions when every
      consumer is in this chain (``lo = hi = n`` when one is not).
    """

    __slots__ = ("superchain", "n", "wprefix", "inputs", "outputs")

    def __init__(
        self, workflow: Workflow, superchain: Superchain, ids: Dict[str, int]
    ) -> None:
        tasks = superchain.tasks
        n = len(tasks)
        pos = {t: k for k, t in enumerate(tasks)}
        weights = np.array([workflow.weight(t) for t in tasks], dtype=float)
        self.superchain = superchain
        self.n = n
        self.wprefix: List[float] = np.concatenate(
            ([0.0], np.cumsum(weights))
        ).tolist()

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
                if consumers and None not in consumers:
                    lo, hi = min(consumers), max(consumers)
                else:
                    lo = hi = n
                row.append((file_id(f), len(consumers), lo, hi))
            outputs.append(tuple(row))
        inputs = []
        for k, t in enumerate(tasks):
            row = []
            for f in sorted(workflow.inputs(t)):
                producer = pos.get(workflow.producer(f), -1)
                row.append((file_id(f), producer, drop_at.get(f) == k))
            inputs.append(tuple(row))
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)

    def span_table(
        self, sizes: Sequence[float], bandwidth: float, save_final_outputs: bool
    ) -> np.ndarray:
        """``X(i, j)`` at file sizes ``sizes`` (indexed by file id), in
        :meth:`SuperchainCostModel.span_table`'s operation order."""
        n = self.n
        wp = self.wprefix
        inputs = self.inputs
        outputs = self.outputs
        spans = np.full((n, n), np.nan)
        for i in range(n):
            read_b = 0.0
            ckpt_b = 0.0
            read_seen: set = set()
            row = []
            for j in range(i, n):
                for f, producer, drop in inputs[j]:
                    if i <= producer < j:
                        # Produced inside the slice: one fewer outside
                        # consumer, and the last one retires the file.
                        if drop:
                            ckpt_b -= sizes[f]
                        continue
                    if f not in read_seen:
                        read_seen.add(f)
                        read_b += sizes[f]
                for f, consumers, _lo, _hi in outputs[j]:
                    if consumers or save_final_outputs:
                        ckpt_b += sizes[f]
                row.append((read_b + ckpt_b) / bandwidth + wp[j + 1] - wp[i])
            spans[i, i:] = row
        return spans

    def segment_costs(
        self,
        sizes: Sequence[float],
        bandwidth: float,
        save_final_outputs: bool,
        i: int,
        j: int,
    ) -> Tuple[float, float, float]:
        """``(R, W, C)`` of slice ``[i..j]`` as direct sums, in
        :meth:`SuperchainCostModel.read_cost` / ``compute`` /
        ``ckpt_cost`` operation order."""
        read_b = 0.0
        seen: set = set()
        for k in range(i, j + 1):
            for f, producer, _drop in self.inputs[k]:
                if f in seen:
                    continue
                if not i <= producer <= j:
                    seen.add(f)
                    read_b += sizes[f]
        ckpt_b = 0.0
        for k in range(i, j + 1):
            for f, consumers, lo, hi in self.outputs[k]:
                if consumers:
                    if not (i <= lo and hi <= j):
                        ckpt_b += sizes[f]
                elif save_final_outputs:
                    ckpt_b += sizes[f]
        return (
            read_b / bandwidth,
            self.wprefix[j + 1] - self.wprefix[i],
            ckpt_b / bandwidth,
        )


class ScheduleIncidence:
    """Every superchain's :class:`ChainIncidence`, compiled once per
    (workflow, schedule).

    Only structure and task weights enter, so CCR-rescaled copies of the
    workflow share it; ``files`` maps file ids back to names.
    """

    __slots__ = ("files", "chains")

    def __init__(self, workflow: Workflow, schedule: Schedule) -> None:
        ids: Dict[str, int] = {}
        self.chains: Tuple[ChainIncidence, ...] = tuple(
            ChainIncidence(workflow, sc, ids) for sc in schedule.superchains
        )
        self.files: Tuple[str, ...] = tuple(ids)


class ScheduleCosts:
    """A schedule's segment costs at one set of file sizes (one CCR).

    Span tables and segment spans are computed on first use and kept
    for the object's life, so every pfail of a CCR shares them.  The
    engine builds one per CCR of one batched call.
    """

    __slots__ = (
        "incidence",
        "sizes",
        "bandwidth",
        "save_final_outputs",
        "_tables",
        "_spans",
    )

    def __init__(
        self,
        incidence: ScheduleIncidence,
        workflow: Workflow,
        bandwidth: float,
        save_final_outputs: bool = True,
    ) -> None:
        self.incidence = incidence
        self.sizes = [workflow.file_size(f) for f in incidence.files]
        self.bandwidth = bandwidth
        self.save_final_outputs = save_final_outputs
        self._tables: Dict[int, np.ndarray] = {}
        self._spans: Dict[Tuple[int, int, int], float] = {}

    def span_table(self, chain: int) -> np.ndarray:
        """``X(i, j)`` of superchain ``chain`` (shared; do not mutate)."""
        table = self._tables.get(chain)
        if table is None:
            table = self.incidence.chains[chain].span_table(
                self.sizes, self.bandwidth, self.save_final_outputs
            )
            self._tables[chain] = table
        return table

    def span(self, chain: int, i: int, j: int) -> float:
        """``X = R + W + C`` of slice ``[i..j]`` of superchain ``chain``.

        Summed as :attr:`~repro.checkpoint.plan.Segment.span` sums the
        slice's segment, after the segment's own cost check, so a
        negative or NaN cost raises the same
        :class:`~repro.errors.CheckpointError`.
        """
        key = (chain, i, j)
        span = self._spans.get(key)
        if span is None:
            incidence = self.incidence.chains[chain]
            read_cost, compute, ckpt_cost = incidence.segment_costs(
                self.sizes, self.bandwidth, self.save_final_outputs, i, j
            )
            check_segment_costs(read_cost, compute, ckpt_cost)
            span = self._spans[key] = read_cost + compute + ckpt_cost
        return span
