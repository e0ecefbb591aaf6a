"""The execution-backend protocol: spawn/collect over pickleable tasks.

A *backend* turns the sweep engine's pickleable work units — one
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

The wire codec (:func:`encode_task` / :func:`run_encoded_task` /
:func:`encode_result` / :func:`decode_result`) is shared by the
subprocess runner and the remote worker loop.  It is pickle-based and
therefore **trusted-fleet only**: anyone who can POST to a work queue
or feed a runner's stdin can execute code as the worker.  Bind
coordinators to loopback/private interfaces.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from repro.errors import BackendError

__all__ = [
    "BackendTask",
    "BackendUnavailable",
    "BrokenBackendError",
    "ExecutionBackend",
    "decode_result",
    "encode_error",
    "decode_error",
    "encode_result",
    "encode_task",
    "run_encoded_task",
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
    """One unit of backend work: a pickleable task function call.

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


# ----------------------------------------------------------------------
# Wire codec (subprocess runner + remote worker loop).

#: Protocol 4 keeps payloads readable by any supported interpreter.
_PICKLE_PROTOCOL = 4


def encode_task(
    fn: Callable[..., Any], args: Tuple[Any, ...], profile: bool
) -> bytes:
    """Serialise one task call for an out-of-process runner."""
    return pickle.dumps((fn, tuple(args), bool(profile)), _PICKLE_PROTOCOL)


def run_encoded_task(blob: bytes) -> Any:
    """Execute an :func:`encode_task` payload in this process."""
    try:
        fn, args, profile = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 — malformed payload
        raise BackendError(f"undecodable task payload: {exc}") from None
    return fn(*args, profile=profile)


def encode_result(value: Any) -> bytes:
    """Serialise a task's ``(result, snapshot)`` pair."""
    return pickle.dumps(value, _PICKLE_PROTOCOL)


def decode_result(blob: bytes) -> Any:
    return pickle.loads(blob)


def encode_error(exc: BaseException) -> bytes:
    """Serialise a task exception (fall back to its message when the
    exception object itself does not pickle)."""
    try:
        return pickle.dumps(exc, _PICKLE_PROTOCOL)
    except Exception:  # noqa: BLE001 — unpicklable exception state
        return pickle.dumps(
            BackendError(f"{type(exc).__name__}: {exc}"), _PICKLE_PROTOCOL
        )


def decode_error(blob: bytes, fallback: str = "worker error") -> BaseException:
    try:
        exc = pickle.loads(blob)
    except Exception:  # noqa: BLE001 — undecodable error payload
        return BackendError(fallback)
    if isinstance(exc, BaseException):
        return exc
    return BackendError(f"{fallback}: {exc!r}")
