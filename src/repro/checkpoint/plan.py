"""Checkpoint plan datatypes.

A :class:`CheckpointPlan` cuts every superchain of a schedule into
contiguous **segments**, each ended by a checkpoint.  A segment's cost
decomposes into the paper's ``R`` (read recovered inputs from stable
storage), ``W`` (compute) and ``C`` (write the checkpoint); the segment is
the atomic re-execution unit — a failure inside it restarts it from its
first task (§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.errors import CheckpointError

__all__ = ["Segment", "CheckpointPlan", "check_segment_costs"]


def check_segment_costs(
    read_cost: float, compute: float, ckpt_cost: float
) -> None:
    """Raise :class:`CheckpointError` unless ``R``, ``W`` and ``C`` are
    all ``>= 0`` (NaN fails), naming the first that is not."""
    for name, v in (
        ("read_cost", read_cost),
        ("compute", compute),
        ("ckpt_cost", ckpt_cost),
    ):
        if not (v >= 0) or v != v:
            raise CheckpointError(f"segment {name} must be >= 0, got {v!r}")


@dataclass(frozen=True)
class Segment:
    """A contiguous checkpointed slice of one superchain.

    Attributes
    ----------
    index:
        Global segment index (creation order; per-processor execution
        order is increasing in it).
    superchain_index / processor:
        Where the segment lives.
    tasks:
        The slice's tasks, in execution order.
    read_cost / compute / ckpt_cost:
        ``R`` / ``W`` / ``C`` of Equation (2), seconds.
    """

    index: int
    superchain_index: int
    processor: int
    tasks: Tuple[str, ...]
    read_cost: float
    compute: float
    ckpt_cost: float

    def __post_init__(self) -> None:
        if not self.tasks:
            raise CheckpointError("segment must contain at least one task")
        check_segment_costs(self.read_cost, self.compute, self.ckpt_cost)

    @property
    def span(self) -> float:
        """Total failure-free cost ``X = R + W + C`` (seconds)."""
        return self.read_cost + self.compute + self.ckpt_cost

    def __len__(self) -> int:
        return len(self.tasks)


class CheckpointPlan:
    """Segments for every superchain of a schedule."""

    def __init__(self, strategy: str) -> None:
        self.strategy = strategy
        self.segments: List[Segment] = []
        self._by_superchain: Dict[int, List[Segment]] = {}
        self._segment_of_task: Dict[str, int] = {}

    def add_segment(
        self,
        superchain_index: int,
        processor: int,
        tasks: Sequence[str],
        read_cost: float,
        compute: float,
        ckpt_cost: float,
    ) -> Segment:
        """Append a segment (must follow its superchain's task order)."""
        seg = Segment(
            index=len(self.segments),
            superchain_index=superchain_index,
            processor=processor,
            tasks=tuple(tasks),
            read_cost=read_cost,
            compute=compute,
            ckpt_cost=ckpt_cost,
        )
        for t in seg.tasks:
            if t in self._segment_of_task:
                raise CheckpointError(f"task {t!r} appears in two segments")
            self._segment_of_task[t] = seg.index
        self.segments.append(seg)
        self._by_superchain.setdefault(superchain_index, []).append(seg)
        return seg

    @property
    def n_segments(self) -> int:
        """Number of segments (== number of checkpoints taken)."""
        return len(self.segments)

    @property
    def n_tasks(self) -> int:
        """Number of tasks covered by the plan."""
        return len(self._segment_of_task)

    def segments_of_superchain(self, superchain_index: int) -> List[Segment]:
        """Segments of one superchain in execution order."""
        return list(self._by_superchain.get(superchain_index, []))

    def segment_of(self, task_id: str) -> Segment:
        """The segment containing ``task_id``."""
        try:
            return self.segments[self._segment_of_task[task_id]]
        except KeyError:
            raise CheckpointError(f"task {task_id!r} is not in the plan") from None

    def checkpointed_tasks(self) -> List[str]:
        """Tasks immediately followed by a checkpoint (segment tails)."""
        return [seg.tasks[-1] for seg in self.segments]

    @property
    def total_io_seconds(self) -> float:
        """Total read + checkpoint seconds over all segments."""
        return sum(s.read_cost + s.ckpt_cost for s in self.segments)

    @property
    def total_compute_seconds(self) -> float:
        """Total compute seconds over all segments."""
        return sum(s.compute for s in self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __repr__(self) -> str:
        return (
            f"CheckpointPlan({self.strategy!r}, segments={self.n_segments}, "
            f"tasks={self.n_tasks})"
        )
