"""The execution-backend protocol: spawn/collect over work units.

A *backend* turns the sweep engine's work units — one
:func:`repro.engine.sweep._run_chunk_task` per grid chunk, for
:func:`~repro.engine.sweep.run_sweep` and
:func:`~repro.engine.sweep.run_specs` alike — into
:class:`concurrent.futures.Future` results, hiding *where* the work
runs: in-process (:class:`~repro.engine.backends.local.SerialBackend`),
in a process pool
(:class:`~repro.engine.backends.local.ProcessPoolBackend`), in one
fresh interpreter per task
(:class:`~repro.engine.backends.subproc.SubprocessBackend`) or on a
fleet of HTTP workers
(:class:`~repro.engine.backends.remote.RemoteWorkerBackend`).

The engine's one task function, like any task run through
:func:`~repro.engine.backends.run_tasks`, follows one contract::

    fn(*args, profile=False, pipeline=None) -> (result, profile_snapshot)

``profile=True`` asks the task to enable a private
:mod:`repro.makespan.profile` collector and ship its snapshot back with
the result (collectors never cross an execution boundary);
``pipeline=`` lets an in-process backend thread a shared
:class:`~repro.engine.pipeline.Pipeline` through its tasks.  The
records a task computes are **backend-independent by construction**:
all seeds are derived in the parent before submission, so the
``jobs=1 ≡ jobs=N`` contract generalises to "≡ any backend".

The backends that leave the process (subprocess, remote) ship a unit
as JSON data, through the codec next to the types it carries
(:func:`repro.engine.sweep.unit_to_json` and its inverses): a unit is
a sweep spec, a chunk of grid cells and a profiling flag, never a
function call.  Both refuse any task but the engine's chunk unit at
:meth:`~ExecutionBackend.submit`; the process pool keeps
:mod:`concurrent.futures`' local pipes.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.errors import BackendError

__all__ = [
    "BackendTask",
    "BackendUnavailable",
    "BrokenBackendError",
    "ExecutionBackend",
]


class BackendUnavailable(BackendError):
    """The backend cannot be constructed in this environment (e.g. a
    sandbox that blocks process creation).  Callers fall back to the
    in-process serial path, which produces identical records."""


class BrokenBackendError(BackendError):
    """The backend died mid-run (worker pool broke, fleet vanished).

    The shared dispatch loop catches this — together with
    :class:`concurrent.futures.process.BrokenProcessPool` — and
    restarts the *remaining* tasks serially in-process, keeping every
    result already collected.
    """


@dataclass(frozen=True)
class BackendTask:
    """One unit of backend work: a task function call.

    ``key`` is the caller's ordering key (a chunk's grid order, a
    spec's batch index) — opaque to the backend, used by the dispatch
    loop to return results in submission-independent order and to skip
    already-completed work on a broken-backend serial restart.
    """

    fn: Callable[..., Tuple[Any, Optional[dict]]]
    args: Tuple[Any, ...]
    key: Any = None


class ExecutionBackend:
    """Spawn/collect contract every execution backend implements.

    Capabilities (class attributes, overridable per instance):

    ``supports_profile_merge``
        True when tasks run outside the parent's address space, so the
        dispatch loop must ask them to self-profile and ship snapshots
        back for :meth:`~repro.makespan.profile.KernelProfile.merge`.
        False for in-process execution, where the parent's live
        collector records everything directly.
    ``max_inflight``
        Cap on concurrently submitted tasks (the dispatch loop windows
        submissions); ``None`` = the backend bounds its own
        concurrency.
    """

    name: str = "backend"
    supports_profile_merge: bool = True
    max_inflight: Optional[int] = None

    def submit(self, task: BackendTask, profile: bool = False) -> "Future[Any]":
        """Spawn one task; the future resolves to ``fn(*args)``'s
        ``(result, profile_snapshot)`` pair."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
