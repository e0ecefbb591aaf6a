"""The 2-state probabilistic DAG container.

Every expected-makespan evaluator consumes a :class:`ProbDAG`: nodes carry
2-state durations (Equation (1)); edges are precedence constraints.  The
container enforces topological construction (predecessors must exist when
a node is added) and holds the one **vectorised longest-path kernel**,
:func:`_propagate_transposed`: over an ``(n, rows)`` duration matrix it
propagates completion times in topological order, one NumPy pass per
node over contiguous rows.  :meth:`ProbDAG.makespans` runs it on the
transpose of a ``(trials, n)`` scenario matrix (exact enumeration, the
failure simulator); the Monte Carlo samplers write their durations in
the ``(n, rows)`` layout and call it directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EvaluationError
from repro.makespan.two_state import TwoStateTask

__all__ = ["ProbDAG"]


def _propagate_transposed(
    preds: Sequence[Sequence[int]], dur_T: np.ndarray
) -> np.ndarray:
    """Longest path of each column of an ``(n, rows)`` duration matrix.

    ``preds[v]`` lists node ``v``'s predecessors, all earlier nodes.  A
    node's completions live in the contiguous row ``comp[v]``, so every
    per-node ``maximum``/``add`` pass streams sequential memory whatever
    ``rows`` is (a ``(rows, n)`` layout would walk strided columns and
    thrash the cache once the matrix outgrows it).  Each column's result
    is a function of that column alone: the adds are elementwise and
    float ``max`` is exact, so how many rows share a call, and in which
    order, cannot move a bit.
    """
    n, rows = dur_T.shape
    if n == 0:
        return np.zeros(rows)
    comp = np.empty_like(dur_T)
    makespan = np.zeros(rows)
    for v in range(n):
        ps = preds[v]
        if ps:
            ready = comp[ps[0]]
            if len(ps) > 1:
                ready = comp[ps].max(axis=0)
            np.add(ready, dur_T[v], out=comp[v])
        else:
            comp[v] = dur_T[v]
        np.maximum(makespan, comp[v], out=makespan)
    return makespan


class ProbDAG:
    """A DAG of 2-state probabilistic tasks, stored in topological order."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self._base: List[float] = []
        self._long: List[float] = []
        self._p: List[float] = []
        self.preds: List[List[int]] = []
        self.succs: List[List[int]] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add(
        self,
        name: str,
        base: float,
        long: float,
        p: float,
        preds: Iterable[str] = (),
    ) -> int:
        """Add a node whose predecessors were all added before; returns index."""
        if name in self._index:
            raise EvaluationError(f"duplicate node {name!r}")
        if not (base >= 0) or long < base:
            raise EvaluationError(
                f"node {name!r}: need 0 <= base <= long, got ({base}, {long})"
            )
        if not (0.0 <= p <= 1.0):
            raise EvaluationError(f"node {name!r}: p={p} outside [0, 1]")
        idx = len(self.names)
        pred_idx: List[int] = []
        for pname in preds:
            if pname not in self._index:
                raise EvaluationError(
                    f"node {name!r}: predecessor {pname!r} not added yet "
                    f"(ProbDAG is built in topological order)"
                )
            pred_idx.append(self._index[pname])
        self.names.append(name)
        self._index[name] = idx
        self._base.append(float(base))
        self._long.append(float(long))
        self._p.append(float(p))
        self.preds.append(sorted(set(pred_idx)))
        self.succs.append([])
        for q in self.preds[idx]:
            self.succs[q].append(idx)
        return idx

    def add_task(self, task: TwoStateTask, preds: Iterable[str] = ()) -> int:
        """Add a :class:`~repro.makespan.two_state.TwoStateTask`."""
        return self.add(task.name, task.base, task.long, task.p, preds)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.names)

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return sum(len(ps) for ps in self.preds)

    @property
    def base(self) -> np.ndarray:
        """No-failure durations (read-only view)."""
        return np.asarray(self._base)

    @property
    def long(self) -> np.ndarray:
        """One-failure durations."""
        return np.asarray(self._long)

    @property
    def p(self) -> np.ndarray:
        """One-failure probabilities."""
        return np.asarray(self._p)

    def index(self, name: str) -> int:
        """Index of a node by name."""
        try:
            return self._index[name]
        except KeyError:
            raise EvaluationError(f"unknown node {name!r}") from None

    def task(self, i: int) -> TwoStateTask:
        """The 2-state task at index ``i``."""
        return TwoStateTask(self.names[i], self._base[i], self._long[i], self._p[i])

    def tasks(self) -> List[TwoStateTask]:
        """All tasks, in topological order."""
        return [self.task(i) for i in range(self.n)]

    def sinks(self) -> List[int]:
        """Indices of nodes without successors."""
        return [i for i in range(self.n) if not self.succs[i]]

    def sources(self) -> List[int]:
        """Indices of nodes without predecessors."""
        return [i for i in range(self.n) if not self.preds[i]]

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #

    def makespans(self, durations: np.ndarray) -> np.ndarray:
        """Makespan of each scenario row of a ``(trials, n)`` duration matrix.

        Completion of node ``v`` = duration ``v`` + max over predecessors'
        completions; the makespan is the max over all nodes.  Runs
        :func:`_propagate_transposed` on a row-contiguous transposed
        copy; ``O(E)`` vector operations.
        """
        durations = np.atleast_2d(np.asarray(durations, dtype=float))
        n = durations.shape[1]
        if n != self.n:
            raise EvaluationError(
                f"duration matrix has {n} columns for a {self.n}-node DAG"
            )
        return _propagate_transposed(
            self.preds, np.ascontiguousarray(durations.T)
        )

    def deterministic_makespan(self, durations: Optional[np.ndarray] = None) -> float:
        """Longest path under the given (default: base) durations."""
        if durations is None:
            durations = self.base
        return float(self.makespans(np.asarray(durations)[None, :])[0])

    def completion_times(self, durations: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-node completion times under one scenario (default: base)."""
        if durations is None:
            durations = self.base
        durations = np.asarray(durations, dtype=float)
        completion = np.empty(self.n)
        for v in range(self.n):
            ps = self.preds[v]
            ready = max((completion[q] for q in ps), default=0.0)
            completion[v] = ready + durations[v]
        return completion

    def tail_times(self, durations: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-node longest path *from* the node (inclusive) to any sink."""
        if durations is None:
            durations = self.base
        durations = np.asarray(durations, dtype=float)
        tail = np.empty(self.n)
        for v in range(self.n - 1, -1, -1):
            ss = self.succs[v]
            after = max((tail[w] for w in ss), default=0.0)
            tail[v] = durations[v] + after
        return tail

    def __repr__(self) -> str:
        return f"ProbDAG(n={self.n}, edges={self.n_edges})"
