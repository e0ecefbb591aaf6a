"""One fresh interpreter per task: crash-isolating subprocess backend.

Unlike the process pool — whose long-lived workers amortise interpreter
startup but share fate with every task they ever ran —
:class:`SubprocessBackend` runs each work unit in a brand-new
``python -m repro.engine.backends.subproc`` child: the JSON unit
(:func:`~repro.engine.sweep.unit_to_json`) is piped to stdin, its JSON
result comes back on stdout and is checked against the unit's cells.
A native crash (segfault in a C extension, OOM kill) takes down
exactly one task: the child's nonzero exit surfaces as a
:class:`~repro.errors.BackendError` for that task alone, it never
poisons an executor shared with other tasks.  The price is one
interpreter start (and one cold pipeline) per task.

Runner protocol (the ``__main__`` block below)::

    stdin   {"spec": ..., "chunk": ..., "profile": ...}   [unit_to_json]
    stdout  {"result": {"records": [...], "profile": ...}} [task succeeded]
            {"error": {"type": ..., "message": ...}}       [task raised]
    exit 0 either way; any other exit status means the interpreter
    itself died.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Optional

from repro.engine.backends.base import (
    BackendTask,
    BackendUnavailable,
    BrokenBackendError,
    ExecutionBackend,
)
from repro.errors import BackendError

__all__ = ["SubprocessBackend"]


def _child_env() -> dict:
    """The child's environment: parent env plus an import path that is
    guaranteed to resolve :mod:`repro` (source checkouts run with
    ``PYTHONPATH=src``; the child must see the same package)."""
    import repro

    env = dict(os.environ)
    pkg_parent = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    parts = [pkg_parent] + (existing.split(os.pathsep) if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


class SubprocessBackend(ExecutionBackend):
    """Execute each task in a fresh, disposable interpreter.

    ``jobs`` bounds how many children run concurrently (an internal
    thread pool feeds them and waits on their pipes).
    """

    name = "subprocess"
    supports_profile_merge = True
    max_inflight = None

    def __init__(self, jobs: int = 2) -> None:
        self.jobs = max(1, int(jobs))
        self._env = _child_env()
        self._threads: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-subproc"
        )

    def submit(self, task: BackendTask, profile: bool = False) -> "Future[Any]":
        # Deferred: repro.engine.sweep imports this package.
        from repro.engine.sweep import unit_to_json

        if self._threads is None:
            raise BackendUnavailable("subprocess backend is closed")
        unit = unit_to_json(task, profile)
        return self._threads.submit(self._run_child, unit)

    def _run_child(self, unit: Dict[str, Any]) -> Any:
        from repro.engine.sweep import error_from_json, result_from_json

        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.engine.backends.subproc"],
                input=json.dumps(unit).encode("utf-8"),
                capture_output=True,
                env=self._env,
            )
        except OSError as exc:
            # Process creation itself is blocked: broken, not a task
            # failure — the dispatch loop restarts serially.
            raise BrokenBackendError(
                f"cannot spawn a task interpreter: {exc}"
            ) from None
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            tail = stderr.splitlines()[-3:] if stderr else []
            raise BackendError(
                f"task interpreter died with exit status {proc.returncode}"
                + (": " + " | ".join(tail) if tail else "")
            )
        try:
            reply = dict(json.loads(proc.stdout))
        except (TypeError, ValueError) as exc:  # a corrupted reply pipe
            raise BackendError(
                f"undecodable subprocess reply: {exc}"
            ) from None
        if "error" in reply:
            raise error_from_json(reply["error"])
        return result_from_json(reply.get("result"), unit)

    def close(self) -> None:
        threads, self._threads = self._threads, None
        if threads is not None:
            threads.shutdown(wait=False, cancel_futures=True)


def _runner_main() -> int:
    """``python -m repro.engine.backends.subproc``: run one piped unit."""
    from repro.engine.sweep import error_to_json, run_unit

    try:
        reply = {"result": run_unit(json.loads(sys.stdin.buffer.read()))}
    except Exception as exc:  # noqa: BLE001 — shipped to the parent
        reply = {"error": error_to_json(exc)}
    sys.stdout.write(json.dumps(reply))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(_runner_main())
