"""The one shared dispatch loop every execution backend runs through.

Before this layer existed, :func:`~repro.engine.sweep.run_sweep` and
:func:`~repro.engine.sweep.run_specs` each carried their own
process-pool block, broken-pool fallback and profile-snapshot merge.
:func:`run_tasks` is the single copy of all three:

* **spawn/collect** — tasks are submitted through
  :meth:`~repro.engine.backends.base.ExecutionBackend.submit` (windowed
  by ``max_inflight``) and collected as they complete;
* **profile merge** — when the parent holds an active
  :mod:`repro.makespan.profile` collector and the backend runs tasks
  out-of-process (``supports_profile_merge``), tasks are asked to
  self-profile and their snapshots are folded into the parent collector
  here, at one call site;
* **broken-backend restart** — a backend that dies mid-run
  (:class:`~concurrent.futures.process.BrokenProcessPool`,
  :class:`~repro.engine.backends.base.BrokenBackendError`) hands the
  **remaining** tasks only to a
  :class:`~repro.engine.backends.local.SerialBackend`, through this same
  loop: results already collected are kept, their ``on_result``
  callbacks are *not* re-fired, and their work is not recomputed (the
  historical whole-grid restart re-reported — and re-priced — every
  completed chunk).

Per-task exception isolation (``return_exceptions=True``) survives the
restart: a failing task lands its exception in its own slot on either
path, without disturbing its batch-mates.
"""

from __future__ import annotations

import warnings
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any, Callable, Dict, Optional, Sequence

from concurrent.futures.process import BrokenProcessPool

from repro.engine.backends.base import (
    BackendTask,
    BrokenBackendError,
    ExecutionBackend,
)
from repro.engine.backends.local import SerialBackend
from repro.makespan import profile as _profile

__all__ = ["run_tasks"]

#: Failures that mean "the executor is gone", not "this task is bad".
_BROKEN = (BrokenBackendError, BrokenProcessPool)


def run_tasks(
    backend: ExecutionBackend,
    tasks: Sequence[BackendTask],
    *,
    on_result: Optional[Callable[[Any, Any], None]] = None,
    on_note: Optional[Callable[[str], None]] = None,
    return_exceptions: bool = False,
    owns_backend: bool = False,
) -> Dict[Any, Any]:
    """Drive ``tasks`` through ``backend``; returns ``key → payload``.

    ``on_result(key, payload)`` fires once per task in completion order
    (progress reporting); it never fires twice for one key, even across
    a broken-backend serial restart.  With ``return_exceptions`` a
    failing task's slot holds its exception instead of aborting the
    run.  ``owns_backend`` closes the backend on exit (set when the
    caller built it for this call rather than passing a shared one).
    """
    want_profile = (
        _profile.ACTIVE is not None and backend.supports_profile_merge
    )
    results: Dict[Any, Any] = {}
    queue = list(tasks)
    window = backend.max_inflight or len(queue) or 1
    inflight: Dict["Future[Any]", BackendTask] = {}
    broken: Optional[BaseException] = None
    try:
        while queue or inflight:
            try:
                while queue and len(inflight) < window:
                    task = queue.pop(0)
                    inflight[backend.submit(task, profile=want_profile)] = task
            except _BROKEN as exc:
                queue.insert(0, task)
                broken = exc
                break
            if not inflight:
                continue
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done:
                task = inflight.pop(future)
                try:
                    payload, snapshot = future.result()
                except _BROKEN as exc:
                    queue.append(task)
                    broken = exc
                    break
                except Exception as exc:
                    if not return_exceptions:
                        raise
                    results[task.key] = exc
                    continue
                if snapshot is not None and _profile.ACTIVE is not None:
                    _profile.ACTIVE.merge(snapshot)
                results[task.key] = payload
                if on_result is not None:
                    on_result(task.key, payload)
            if broken is not None:
                break
    finally:
        if owns_backend:
            backend.close()

    if broken is not None:
        # The executor died under us.  Everything already collected is
        # kept — completed work is not re-priced and its progress lines
        # are not re-reported — and only the remainder runs serially.
        remaining = [
            t
            for t in [*queue, *inflight.values()]
            if t.key not in results
        ]
        warnings.warn(
            f"{backend.name} backend broke mid-run ({broken}); "
            f"finishing the remaining {len(remaining)} of {len(tasks)} "
            "task(s) serially in-process",
            RuntimeWarning,
            stacklevel=2,
        )
        if on_note is not None:
            on_note(
                f"! {backend.name} backend broke ({broken}); finishing "
                f"{len(remaining)} remaining task(s) serially"
            )
        results.update(
            run_tasks(
                SerialBackend(),
                remaining,
                on_result=on_result,
                return_exceptions=return_exceptions,
            )
        )
    return results
