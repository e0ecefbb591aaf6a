"""File-grained workflow DAG model.

A :class:`Workflow` is a DAG of sequential :class:`Task` objects exchanging
named files, mirroring the paper's model (§II-A): task ``T_i`` has weight
``w_i`` (failure-free seconds) and every dependency ``(T_i, T_j)`` is backed
by one or more files whose size determines the data-transfer cost ``c_ij``.

Design notes
------------
* **Files are first-class.**  The paper's checkpoint cost model needs
  per-file deduplication ("when a task generates the same file for two
  successors, a checkpoint will save the file only once", §VI-A), so edges
  are *derived* from file producer/consumer relations rather than being the
  primary representation.
* **Control edges.**  The ``mspgify`` transform (footnote 2) adds dummy
  dependencies that carry empty files; these are represented as explicit
  control edges with no data.
* **Workflow inputs/outputs.**  Files without a producer are workflow
  inputs (read from stable storage by their consumers).  Files without any
  consumer are workflow outputs (optionally saved by a final checkpoint,
  see :mod:`repro.checkpoint.segments`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    CycleError,
    UnknownFileError,
    UnknownTaskError,
    WorkflowError,
)
from repro.util.rng import SeedLike
from repro.util.toposort import random_topological_order, topological_order

__all__ = ["Task", "Workflow", "require_scale_factor"]


def require_scale_factor(factor: float) -> float:
    """``factor`` if it can scale file sizes (a finite number >= 0)."""
    if not (math.isfinite(factor) and factor >= 0):
        raise WorkflowError(
            f"scale factor must be a finite number >= 0, got {factor!r}"
        )
    return factor


class OrderedFrozenSet(FrozenSet[str]):
    """A frozenset whose iteration order is sorted, hence deterministic.

    Plain ``frozenset`` iteration follows string hashes, which are
    randomised per process (``PYTHONHASHSEED``): any algorithm that
    iterates adjacency or file sets — linearisation tie-breaking, M-SPG
    construction, I/O-cost accumulation — would produce slightly
    different (schedule- and ULP-level) results on every run.  The graph
    accessors return this subclass so results are reproducible across
    processes while set semantics (membership, difference, …) are
    preserved.  Operator results (``a - b`` etc.) degrade to plain
    ``frozenset``; re-wrap before iterating if order matters there.
    """

    __slots__ = ()

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(super().__iter__()))


@dataclass(frozen=True)
class Task:
    """A sequential workflow task.

    Attributes
    ----------
    id:
        Unique task identifier within its workflow.
    weight:
        Failure-free execution time in seconds (``w_i`` in the paper).
    category:
        Free-form task type (e.g. ``"mProjectPP"`` for Montage); used by
        generators and reporting, ignored by the algorithms.
    """

    id: str
    weight: float
    category: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise WorkflowError(f"task id must be a non-empty string, got {self.id!r}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise WorkflowError(
                f"task {self.id!r}: weight must be a finite number >= 0, "
                f"got {self.weight!r}"
            )


class Workflow:
    """A DAG of tasks exchanging files.

    The canonical mutation API is :meth:`add_task`, :meth:`add_file` and
    :meth:`add_input` (plus :meth:`add_control_edge` for data-less
    dependencies).  Edges are derived: ``u -> v`` exists iff ``v`` consumes
    a file produced by ``u`` or ``(u, v)`` is an explicit control edge.
    """

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._file_sizes: Dict[str, float] = {}
        self._producer: Dict[str, Optional[str]] = {}
        self._consumers: Dict[str, Set[str]] = {}
        self._outputs: Dict[str, Set[str]] = {}
        self._inputs: Dict[str, Set[str]] = {}
        self._control_edges: Set[Tuple[str, str]] = set()
        self._adj_cache: Optional[
            Tuple[Dict[str, Set[str]], Dict[str, Set[str]]]
        ] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_task(self, task_id: str, weight: float, category: str = "") -> Task:
        """Register a new task; returns the created :class:`Task`."""
        if task_id in self._tasks:
            raise WorkflowError(f"duplicate task id {task_id!r}")
        task = Task(task_id, float(weight), category)
        self._tasks[task_id] = task
        self._outputs[task_id] = set()
        self._inputs[task_id] = set()
        self._invalidate()
        return task

    def add_file(
        self, name: str, size: float, producer: Optional[str] = None
    ) -> None:
        """Register a file of ``size`` bytes, optionally produced by a task.

        ``producer=None`` declares a workflow input, available on stable
        storage before the execution starts.
        """
        if name in self._file_sizes:
            raise WorkflowError(f"duplicate file name {name!r}")
        if not (math.isfinite(size) and size >= 0):
            raise WorkflowError(
                f"file {name!r}: size must be a finite number >= 0, got {size!r}"
            )
        if producer is not None:
            self._require_task(producer)
        self._file_sizes[name] = float(size)
        self._producer[name] = producer
        self._consumers[name] = set()
        if producer is not None:
            self._outputs[producer].add(name)
        self._invalidate()

    def add_input(self, task_id: str, file_name: str) -> None:
        """Declare that ``task_id`` consumes ``file_name``."""
        self._require_task(task_id)
        self._require_file(file_name)
        if self._producer[file_name] == task_id:
            raise WorkflowError(
                f"task {task_id!r} cannot consume its own output {file_name!r}"
            )
        self._inputs[task_id].add(file_name)
        self._consumers[file_name].add(task_id)
        self._invalidate()

    def add_control_edge(self, src: str, dst: str) -> None:
        """Add a data-less dependency ``src -> dst`` (a dummy sync edge)."""
        self._require_task(src)
        self._require_task(dst)
        if src == dst:
            raise WorkflowError(f"self-loop control edge on {src!r}")
        self._control_edges.add((src, dst))
        self._invalidate()

    def _require_task(self, task_id: str) -> None:
        if task_id not in self._tasks:
            raise UnknownTaskError(f"unknown task {task_id!r}")

    def _require_file(self, name: str) -> None:
        if name not in self._file_sizes:
            raise UnknownFileError(f"unknown file {name!r}")

    def _invalidate(self) -> None:
        self._adj_cache = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return len(self._tasks)

    @property
    def task_ids(self) -> List[str]:
        """Task ids in insertion order."""
        return list(self._tasks)

    def task(self, task_id: str) -> Task:
        """The :class:`Task` with the given id."""
        self._require_task(task_id)
        return self._tasks[task_id]

    def tasks(self) -> Iterator[Task]:
        """Iterate over tasks in insertion order."""
        return iter(self._tasks.values())

    def weight(self, task_id: str) -> float:
        """Failure-free execution time of a task (seconds)."""
        return self.task(task_id).weight

    @property
    def total_weight(self) -> float:
        """Sum of all task weights (sequential compute time)."""
        return sum(t.weight for t in self._tasks.values())

    @property
    def mean_weight(self) -> float:
        """Average task weight ``w̄`` used to derive λ from pfail (§VI-A)."""
        if not self._tasks:
            raise WorkflowError("mean weight of an empty workflow is undefined")
        return self.total_weight / len(self._tasks)

    # -- files ---------------------------------------------------------- #

    @property
    def file_names(self) -> List[str]:
        """All registered file names, in insertion order."""
        return list(self._file_sizes)

    def file_size(self, name: str) -> float:
        """Size of a file in bytes."""
        self._require_file(name)
        return self._file_sizes[name]

    def producer(self, name: str) -> Optional[str]:
        """The task producing ``name`` (``None`` for workflow inputs)."""
        self._require_file(name)
        return self._producer[name]

    def consumers(self, name: str) -> FrozenSet[str]:
        """Tasks consuming ``name``."""
        self._require_file(name)
        return OrderedFrozenSet(self._consumers[name])

    def outputs(self, task_id: str) -> FrozenSet[str]:
        """Files produced by ``task_id``."""
        self._require_task(task_id)
        return OrderedFrozenSet(self._outputs[task_id])

    def inputs(self, task_id: str) -> FrozenSet[str]:
        """Files consumed by ``task_id``."""
        self._require_task(task_id)
        return OrderedFrozenSet(self._inputs[task_id])

    def workflow_inputs(self) -> List[str]:
        """Files with no producer (read from storage at the start)."""
        return [f for f, p in self._producer.items() if p is None]

    def workflow_outputs(self) -> List[str]:
        """Produced files with no consumer (final results)."""
        return [
            f
            for f, p in self._producer.items()
            if p is not None and not self._consumers[f]
        ]

    @property
    def total_file_bytes(self) -> float:
        """Total bytes over all distinct files (each counted once).

        This is the paper's "total file size" used in the CCR definition
        (input, output and intermediate files; §VI-A).
        """
        return sum(self._file_sizes.values())

    # -- edges ----------------------------------------------------------- #

    def _adjacency(self) -> Tuple[Dict[str, Set[str]], Dict[str, Set[str]]]:
        if self._adj_cache is None:
            succs: Dict[str, Set[str]] = {t: set() for t in self._tasks}
            preds: Dict[str, Set[str]] = {t: set() for t in self._tasks}
            for fname, producer in self._producer.items():
                if producer is None:
                    continue
                for consumer in self._consumers[fname]:
                    succs[producer].add(consumer)
                    preds[consumer].add(producer)
            for u, v in self._control_edges:
                succs[u].add(v)
                preds[v].add(u)
            self._adj_cache = (succs, preds)
        return self._adj_cache

    def succs(self, task_id: str) -> FrozenSet[str]:
        """Immediate successors of a task (data or control)."""
        self._require_task(task_id)
        return OrderedFrozenSet(self._adjacency()[0][task_id])

    def preds(self, task_id: str) -> FrozenSet[str]:
        """Immediate predecessors of a task (data or control)."""
        self._require_task(task_id)
        return OrderedFrozenSet(self._adjacency()[1][task_id])

    def successor_map(self) -> Dict[str, FrozenSet[str]]:
        """Full successor adjacency as an immutable-valued dict."""
        succs, _ = self._adjacency()
        return {u: OrderedFrozenSet(vs) for u, vs in succs.items()}

    def predecessor_map(self) -> Dict[str, FrozenSet[str]]:
        """Full predecessor adjacency as an immutable-valued dict."""
        _, preds = self._adjacency()
        return {u: OrderedFrozenSet(vs) for u, vs in preds.items()}

    def edges(self) -> List[Tuple[str, str]]:
        """All edges ``(u, v)`` in a deterministic order."""
        succs, _ = self._adjacency()
        return [(u, v) for u in self._tasks for v in sorted(succs[u])]

    @property
    def n_edges(self) -> int:
        """Number of distinct edges."""
        succs, _ = self._adjacency()
        return sum(len(vs) for vs in succs.values())

    def edge_files(self, src: str, dst: str) -> FrozenSet[str]:
        """Files flowing along edge ``src -> dst`` (empty for control edges)."""
        self._require_task(src)
        self._require_task(dst)
        return OrderedFrozenSet(
            f for f in self._outputs[src] if dst in self._consumers[f]
        )

    def has_edge(self, src: str, dst: str) -> bool:
        """Whether ``src -> dst`` exists (data or control)."""
        self._require_task(src)
        self._require_task(dst)
        return dst in self._adjacency()[0][src]

    def is_control_edge(self, src: str, dst: str) -> bool:
        """Whether ``src -> dst`` is a pure control edge with no data."""
        return (src, dst) in self._control_edges and not self.edge_files(src, dst)

    def control_edges(self) -> List[Tuple[str, str]]:
        """All explicit control edges in a deterministic order."""
        return sorted(self._control_edges)

    def sources(self) -> List[str]:
        """Tasks with no predecessor, in insertion order."""
        _, preds = self._adjacency()
        return [t for t in self._tasks if not preds[t]]

    def sinks(self) -> List[str]:
        """Tasks with no successor, in insertion order."""
        succs, _ = self._adjacency()
        return [t for t in self._tasks if not succs[t]]

    # ------------------------------------------------------------------ #
    # orders / validation
    # ------------------------------------------------------------------ #

    def _sorted_adjacency(self) -> Dict[str, List[str]]:
        """Successor lists in sorted order, for order-sensitive consumers.

        The raw adjacency stores plain sets whose iteration follows the
        per-process string-hash seed; anything whose *result* depends on
        visit order (Kahn tie-breaking, rng-stream mapping) must consume
        this view to stay reproducible across processes.
        """
        succs, _ = self._adjacency()
        return {u: sorted(vs) for u, vs in succs.items()}

    def topological_order(self) -> List[str]:
        """Deterministic topological order of all tasks."""
        return topological_order(self.task_ids, self._sorted_adjacency())

    def random_topological_order(self, seed: SeedLike = None) -> List[str]:
        """Random topological order (uniform ready-task tie-breaking)."""
        return random_topological_order(
            self.task_ids, self._sorted_adjacency(), seed
        )

    def validate(self) -> None:
        """Raise :class:`~repro.errors.WorkflowError` on inconsistencies.

        Checks acyclicity and that every consumed file either has a
        producer or is a declared workflow input (always true by
        construction, but cheap to re-assert for deserialised workflows).
        """
        self.topological_order()  # raises CycleError on cycles
        for fname, consumers in self._consumers.items():
            producer = self._producer[fname]
            if producer is not None and producer in consumers:
                raise WorkflowError(
                    f"file {fname!r} is consumed by its producer {producer!r}"
                )

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #

    def copy(self, name: Optional[str] = None) -> "Workflow":
        """Deep copy (task/file registries are copied, not shared)."""
        wf = Workflow(name or self.name)
        wf._tasks = dict(self._tasks)
        wf._file_sizes = dict(self._file_sizes)
        wf._producer = dict(self._producer)
        wf._consumers = {f: set(c) for f, c in self._consumers.items()}
        wf._outputs = {t: set(o) for t, o in self._outputs.items()}
        wf._inputs = {t: set(i) for t, i in self._inputs.items()}
        wf._control_edges = set(self._control_edges)
        return wf

    def scale_file_sizes(self, factor: float) -> "Workflow":
        """A copy with every file size multiplied by ``factor``.

        This is the paper's CCR-control mechanism (§VI-A): rather than
        varying the storage bandwidth, file sizes are scaled by a common
        factor, which changes checkpoint/recovery costs coherently across
        workflow classes.
        """
        require_scale_factor(factor)
        wf = self.copy()
        wf._file_sizes = {f: s * factor for f, s in self._file_sizes.items()}
        return wf

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def __contains__(self, task_id: object) -> bool:
        return task_id in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __repr__(self) -> str:
        return (
            f"Workflow({self.name!r}, tasks={self.n_tasks}, "
            f"edges={self.n_edges}, files={len(self._file_sizes)})"
        )
