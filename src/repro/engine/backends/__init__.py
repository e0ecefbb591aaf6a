"""Pluggable execution backends for the sweep engine.

One protocol (:class:`~repro.engine.backends.base.ExecutionBackend`:
``submit(task) → future`` plus the ``supports_profile_merge`` /
``max_inflight`` capabilities), four implementations, one shared
dispatch loop (:func:`~repro.engine.backends.dispatch.run_tasks`):

==============  =====================================================
``serial``      in-process execution (the ``jobs == 1`` path: the
                caller's pipeline, one task at a time)
``process``     ``concurrent.futures`` process pool — the historical
                ``jobs > 1`` behaviour, lazy-spawn fallback included
``subprocess``  one fresh interpreter per task — a native crash takes
                down exactly one work unit
``remote``      HTTP fan-out to a ``repro worker`` fleet over a
                lease/complete work queue with requeue-on-worker-death
==============  =====================================================

Records are bit-identical across all four: every seed is derived in
the parent before submission, so *where* a task runs can never change
*what* it computes.  The two that leave the process ship each unit as
JSON data (:func:`repro.engine.sweep.unit_to_json`), never as code.
Use :func:`get_backend` to build one by name.
"""

from __future__ import annotations

from repro.engine.backends.base import (
    BackendTask,
    BackendUnavailable,
    BrokenBackendError,
    ExecutionBackend,
)
from repro.engine.backends.dispatch import run_tasks
from repro.engine.backends.local import ProcessPoolBackend, SerialBackend
from repro.engine.backends.remote import (
    JsonHandler,
    RemoteWorkerBackend,
    WorkQueue,
    WorkServer,
    queue_routes,
    read_json_body,
)
from repro.engine.backends.subproc import SubprocessBackend
from repro.engine.backends.worker import WorkerLoop
from repro.errors import BackendError

__all__ = [
    "BACKENDS",
    "BackendTask",
    "BackendUnavailable",
    "BrokenBackendError",
    "ExecutionBackend",
    "JsonHandler",
    "ProcessPoolBackend",
    "RemoteWorkerBackend",
    "SerialBackend",
    "SubprocessBackend",
    "WorkQueue",
    "WorkServer",
    "WorkerLoop",
    "get_backend",
    "queue_routes",
    "read_json_body",
    "run_tasks",
]

#: Backend names accepted by :func:`get_backend` and ``--backend``.
BACKENDS = ("serial", "process", "subprocess", "remote")


def get_backend(name: str, jobs: int = 1) -> ExecutionBackend:
    """Build an execution backend by name.

    ``jobs`` sizes the local pools; ``"remote"`` builds a standalone
    :class:`~repro.engine.backends.remote.RemoteWorkerBackend` with its
    own coordinator for ``repro worker`` processes to poll.  Raises
    :class:`~repro.engine.backends.base.BackendUnavailable` when the
    environment cannot host the backend (callers fall back to the
    in-process serial path) and :class:`~repro.errors.BackendError` for
    an unknown name.
    """
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(jobs=jobs)
    if name == "subprocess":
        return SubprocessBackend(jobs=jobs)
    if name == "remote":
        return RemoteWorkerBackend()
    raise BackendError(
        f"unknown execution backend {name!r}; choose from {list(BACKENDS)}"
    )
