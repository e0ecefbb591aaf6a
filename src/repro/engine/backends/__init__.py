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
*what* it computes.  Use :func:`get_backend` to build one by name.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine.backends.base import (
    BackendTask,
    BackendUnavailable,
    BrokenBackendError,
    ExecutionBackend,
)
from repro.engine.backends.dispatch import run_tasks
from repro.engine.backends.local import ProcessPoolBackend, SerialBackend
from repro.engine.backends.remote import (
    RemoteWorkerBackend,
    WorkQueue,
    WorkServer,
    attach_worker,
    queue_routes,
    read_json_body,
)
from repro.engine.backends.subproc import SubprocessBackend
from repro.engine.backends.worker import WorkerLoop, WorkerServer
from repro.errors import BackendError

__all__ = [
    "BACKENDS",
    "BackendTask",
    "BackendUnavailable",
    "BrokenBackendError",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "RemoteWorkerBackend",
    "SerialBackend",
    "SubprocessBackend",
    "WorkQueue",
    "WorkServer",
    "WorkerLoop",
    "WorkerServer",
    "attach_worker",
    "get_backend",
    "queue_routes",
    "read_json_body",
    "run_tasks",
]

#: Backend names accepted by :func:`get_backend` and ``--backend``.
BACKENDS = ("serial", "process", "subprocess", "remote")


def get_backend(
    name: str,
    jobs: int = 1,
    workers: Sequence[str] = (),
    queue: Optional[WorkQueue] = None,
    coordinator_url: Optional[str] = None,
    lease_timeout: float = 30.0,
    worker_grace: float = 60.0,
) -> ExecutionBackend:
    """Build an execution backend by name.

    ``jobs`` sizes the local pools; ``workers``/``queue``/
    ``lease_timeout``/``worker_grace`` configure the remote fleet (see
    :class:`~repro.engine.backends.remote.RemoteWorkerBackend`).
    Raises :class:`~repro.engine.backends.base.BackendUnavailable` when
    the environment cannot host the backend (callers fall back to the
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
        return RemoteWorkerBackend(
            queue=queue,
            coordinator_url=coordinator_url,
            workers=workers,
            lease_timeout=lease_timeout,
            worker_grace=worker_grace,
        )
    raise BackendError(
        f"unknown execution backend {name!r}; choose from {list(BACKENDS)}"
    )
