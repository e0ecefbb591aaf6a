"""Parameterised 2-state DAG: one structure template, many parameter cells.

Within a sweep group every (pfail, CCR) cell prices a segment DAG with
the *same* node set and edges — the schedule is fixed and the checkpoint
plan usually coincides — while the 2-state parameters vary cell by cell
(pfail moves the failure probability, CCR rescaling moves the spans).
:class:`ParamDAG` captures exactly that factorisation: the structure
(names, predecessor lists) is stored once, and ``base``/``long``/``p``
become ``(n_cells, n)`` arrays with a **leading cell axis**.

Batch-capable evaluators consume the template directly (means/variances
are precomputed as arrays, the per-node 2-state atom laws are built in
one vectorised pass); everything else can materialise any cell as an
ordinary :class:`~repro.makespan.probdag.ProbDAG` via :meth:`cell`,
which reproduces the source DAG of that cell bit for bit.  A template
holds data only: evaluators keep their compiled state (PATHAPPROX's step
table, :mod:`repro.makespan.foldplan`) for the length of one call, not
on the template.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

import numpy as np

from repro.errors import EvaluationError
from repro.makespan.probdag import ProbDAG

__all__ = ["ParamDAG"]


class ParamDAG:
    """A ProbDAG structure template with per-cell 2-state parameters.

    Construct via :meth:`from_dags` (stack per-cell DAGs that share a
    structure), :meth:`from_template`, or directly from structure lists
    and arrays, as the engine's
    :class:`~repro.makespan.segment_dag.SegmentDagSkeleton` does.  Every
    constructor rejects
    parameters outside the 2-state domain (``0 <= base <= long``,
    ``0 <= p <= 1``), as :meth:`ProbDAG.add` does per node.  Instances
    are read-only by convention; the structure lists are shared with
    materialised cells, so neither should be mutated.
    """

    __slots__ = (
        "names",
        "preds",
        "succs",
        "base",
        "long",
        "p",
        "_means",
        "_variances",
    )

    def __init__(
        self,
        names: List[str],
        preds: List[List[int]],
        succs: List[List[int]],
        base: np.ndarray,
        long: np.ndarray,
        p: np.ndarray,
    ) -> None:
        base = np.asarray(base, dtype=float)
        long = np.asarray(long, dtype=float)
        p = np.asarray(p, dtype=float)
        n = len(names)
        if base.ndim != 2 or base.shape[1] != n:
            raise EvaluationError(
                f"parameter arrays must be (n_cells, {n}), got {base.shape}"
            )
        if base.shape != long.shape or base.shape != p.shape:
            raise EvaluationError(
                f"parameter arrays disagree in shape: {base.shape}, "
                f"{long.shape}, {p.shape}"
            )
        # The domain ProbDAG.add enforces per node, checked for every
        # cell at once; the negated form also rejects NaN.
        bad = np.argwhere(~((base >= 0.0) & (long >= base)))
        if bad.size:
            c, j = bad[0]
            raise EvaluationError(
                f"cell {c}, node {names[j]!r}: need 0 <= base <= long, "
                f"got ({float(base[c, j])}, {float(long[c, j])})"
            )
        bad = np.argwhere(~((p >= 0.0) & (p <= 1.0)))
        if bad.size:
            c, j = bad[0]
            raise EvaluationError(
                f"cell {c}, node {names[j]!r}: p={float(p[c, j])} "
                f"outside [0, 1]"
            )
        self.names = names
        self.preds = preds
        self.succs = succs
        self.base = base
        self.long = long
        self.p = p
        self._means: np.ndarray = None  # type: ignore[assignment]
        self._variances: np.ndarray = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def structure_key(dag: ProbDAG) -> Hashable:
        """Hashable identity of a DAG's structure (names + edges).

        Two DAGs with equal keys can share one template.
        """
        return (
            tuple(dag.names),
            tuple(tuple(ps) for ps in dag.preds),
        )

    @classmethod
    def from_dags(cls, dags: Sequence[ProbDAG]) -> "ParamDAG":
        """Stack per-cell DAGs sharing one structure into a template."""
        dags = list(dags)
        if not dags:
            raise EvaluationError("from_dags needs at least one DAG")
        head = dags[0]
        key = cls.structure_key(head)
        for i, dag in enumerate(dags[1:], start=1):
            if cls.structure_key(dag) != key:
                raise EvaluationError(
                    f"cell {i} has a different DAG structure than cell 0 "
                    f"({dag.n} vs {head.n} nodes); group cells by "
                    f"ParamDAG.structure_key before stacking"
                )
        return cls(
            names=list(head.names),
            preds=[list(ps) for ps in head.preds],
            succs=[list(ss) for ss in head.succs],
            base=np.array([dag.base for dag in dags], dtype=float),
            long=np.array([dag.long for dag in dags], dtype=float),
            p=np.array([dag.p for dag in dags], dtype=float),
        )

    @classmethod
    def from_template(
        cls,
        dag: ProbDAG,
        base: np.ndarray,
        long: np.ndarray,
        p: np.ndarray,
    ) -> "ParamDAG":
        """Template from one DAG's structure plus explicit (C, n) arrays."""
        return cls(
            names=list(dag.names),
            preds=[list(ps) for ps in dag.preds],
            succs=[list(ss) for ss in dag.succs],
            base=base,
            long=long,
            p=p,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes in the shared structure."""
        return len(self.names)

    @property
    def n_cells(self) -> int:
        """Number of parameter cells."""
        return int(self.base.shape[0])

    @property
    def means(self) -> np.ndarray:
        """Per-cell expected durations, shape ``(n_cells, n)``.

        Computed with exactly the scalar
        :attr:`~repro.makespan.two_state.TwoStateTask.mean` formula, so
        every entry is bit-identical to the materialised cell's value.
        """
        if self._means is None:
            self._means = (1.0 - self.p) * self.base + self.p * self.long
        return self._means

    @property
    def variances(self) -> np.ndarray:
        """Per-cell duration variances, shape ``(n_cells, n)``."""
        if self._variances is None:
            # An infinite span gives inf - inf = NaN, as the scalar law does.
            with np.errstate(invalid="ignore"):
                d = self.long - self.base
                self._variances = self.p * (1.0 - self.p) * d * d
        return self._variances

    def sinks(self) -> List[int]:
        """Indices of nodes without successors."""
        return [i for i in range(self.n) if not self.succs[i]]

    def sources(self) -> List[int]:
        """Indices of nodes without predecessors."""
        return [i for i in range(self.n) if not self.preds[i]]

    def cell(self, i: int) -> ProbDAG:
        """Materialise cell ``i`` as an ordinary :class:`ProbDAG`.

        Bit-identical to the DAG the cell was stacked from: parameters
        are converted back to Python floats and the structure lists are
        shared (the DAG must be treated as read-only).
        """
        if not (0 <= i < self.n_cells):
            raise EvaluationError(
                f"cell index {i} outside [0, {self.n_cells})"
            )
        dag = ProbDAG.__new__(ProbDAG)
        dag.names = self.names
        dag._index = {name: j for j, name in enumerate(self.names)}
        dag._base = [float(x) for x in self.base[i]]
        dag._long = [float(x) for x in self.long[i]]
        dag._p = [float(x) for x in self.p[i]]
        dag.preds = self.preds
        dag.succs = self.succs
        return dag

    def cells(self) -> List[ProbDAG]:
        """All cells, materialised in order."""
        return [self.cell(i) for i in range(self.n_cells)]

    def __repr__(self) -> str:
        return (
            f"ParamDAG(n={self.n}, cells={self.n_cells}, "
            f"edges={sum(len(ps) for ps in self.preds)})"
        )
