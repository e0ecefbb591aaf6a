"""In-process and process-pool execution backends.

:class:`SerialBackend` is the reference implementation of the protocol
and the engine's in-process execution (``jobs == 1``, a backend that
cannot start, the broken-backend restart): ``submit`` runs the task on
the calling thread and returns an already-resolved future.  It threads
one :class:`~repro.engine.pipeline.Pipeline` — the caller's, when one
is given — through its tasks, so chunks of the same (workflow,
processors) pair reuse the cached M-SPG tree and schedule.

:class:`ProcessPoolBackend` wraps ``concurrent.futures`` — the
historical ``jobs > 1`` behaviour.  Workers spawn lazily, so a sandbox
that blocks process creation surfaces as
:class:`~concurrent.futures.process.BrokenProcessPool` at result time
(the shared dispatch loop's serial-restart fallback), while an
environment that refuses even the pool's plumbing (no semaphores, no
fork/spawn) raises :class:`~repro.engine.backends.base.BackendUnavailable`
at construction.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Optional

from repro.engine.backends.base import (
    BackendTask,
    BackendUnavailable,
    ExecutionBackend,
)
from repro.engine.pipeline import Pipeline

__all__ = ["SerialBackend", "ProcessPoolBackend"]


class SerialBackend(ExecutionBackend):
    """Run every task inline on the calling thread (the jobs=1 path),
    on ``pipeline`` (a fresh one by default).

    ``supports_profile_merge`` is False: tasks run inside the parent's
    address space, so an active profile collector records their kernel
    ops directly and no snapshot shipping is needed.
    """

    name = "serial"
    supports_profile_merge = False
    #: One at a time — the dispatch loop's submission window, so
    #: progress lines appear as each task finishes, not all at the end.
    max_inflight = 1

    def __init__(self, pipeline: Optional[Pipeline] = None) -> None:
        self._pipeline = pipeline if pipeline is not None else Pipeline()

    def submit(self, task: BackendTask, profile: bool = False) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            # profile=False always: the parent collector is live here.
            future.set_result(
                task.fn(*task.args, profile=False, pipeline=self._pipeline)
            )
        except BaseException as exc:  # noqa: BLE001 — future carries it
            future.set_exception(exc)
        return future


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out over a ``concurrent.futures`` process pool."""

    name = "process"
    supports_profile_merge = True
    max_inflight = None

    def __init__(self, jobs: int = 2) -> None:
        self.jobs = max(1, int(jobs))
        try:
            self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
                max_workers=self.jobs
            )
        except (OSError, PermissionError, ModuleNotFoundError) as exc:
            # No process support in this environment (restricted
            # sandbox): signal the caller to fall back serially.
            raise BackendUnavailable(
                f"cannot start a process pool here: {exc}"
            ) from None

    def submit(self, task: BackendTask, profile: bool = False) -> "Future[Any]":
        if self._pool is None:
            raise BackendUnavailable("process pool is closed")
        return self._pool.submit(task.fn, *task.args, profile=profile)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
