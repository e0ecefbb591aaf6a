"""``repro worker`` — the fleet's compute process.

``repro worker http://coordinator:8765`` registers with the coordinator
— a ``repro serve --backend remote`` service or the standalone
:class:`~repro.engine.backends.remote.WorkServer` a ``repro sweep
--backend remote`` prints — then loops lease → execute → complete.
Transient coordinator outages (restart, network blip) are retried with
backoff; a unit whose completion cannot be delivered is simply dropped
— its lease expires and the queue requeues it, so at-least-once
delivery holds without worker-side state.

A leased unit is JSON data (:func:`repro.engine.sweep.run_unit` decodes
and runs it): nothing in it runs as code.  A unit that does not decode
is reported back through ``/work/fail`` as a
:class:`~repro.errors.BackendError`, like any task failure, and the
worker keeps polling.
"""

from __future__ import annotations

import os
import socket
import threading
import uuid
from typing import Any, Callable, Dict, Optional

from repro.engine.backends.remote import _post_json
from repro.errors import BackendError

__all__ = ["WorkerLoop", "default_worker_id"]


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class WorkerLoop:
    """One lease → execute → complete poller against a coordinator."""

    def __init__(
        self,
        coordinator: str,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        log: Optional[Callable[[str], None]] = None,
        timeout: float = 600.0,
    ) -> None:
        self.coordinator = coordinator.rstrip("/")
        self.worker_id = worker_id or default_worker_id()
        self.poll_interval = max(0.01, float(poll_interval))
        self.log = log
        self.timeout = timeout
        self.units_done = 0
        self.units_failed = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- transport -----------------------------------------------------

    def _post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return _post_json(self.coordinator + path, payload, self.timeout)
        except (OSError, ValueError, RecursionError) as exc:
            # URLError is an OSError; a reply too deep to parse recurses.
            raise BackendError(
                f"coordinator {self.coordinator}{path}: {exc}"
            ) from None

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(f"[{self.worker_id}] {message}")

    # -- lifecycle -----------------------------------------------------

    def stop(self) -> None:
        self._stop.set()

    def start(self) -> "WorkerLoop":
        """Run :meth:`run` on a daemon thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self.run, name=f"repro-worker-{self.worker_id}", daemon=True
        )
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def run(self) -> None:
        """Poll until stopped.  Never raises: every failure is logged,
        backed off and retried (the coordinator may simply be
        restarting)."""
        backoff = self.poll_interval
        registered = False
        while not self._stop.is_set():
            try:
                if not registered:
                    self._post(
                        "/workers/register",
                        {
                            "worker": self.worker_id,
                            "meta": {
                                "host": socket.gethostname(),
                                "pid": os.getpid(),
                            },
                        },
                    )
                    registered = True
                    self._say(f"registered with {self.coordinator}")
                did_work = self._poll_once()
                backoff = self.poll_interval
                if not did_work:
                    self._stop.wait(self.poll_interval)
            except BackendError as exc:
                self._say(f"transport error: {exc}")
                registered = False  # re-register after an outage
                self._stop.wait(backoff)
                backoff = min(backoff * 2, 5.0)

    def _poll_once(self) -> bool:
        """One lease poll; returns True when a unit was executed."""
        # Deferred: repro.engine.sweep imports this package.
        from repro.engine.sweep import error_to_json, run_unit

        reply = self._post("/work/lease", {"worker": self.worker_id})
        unit_id = reply.get("unit")
        if not unit_id:
            return False
        self._say(f"leased unit {str(unit_id)[:8]}")
        try:
            result = run_unit(reply.get("payload"))
        except Exception as exc:  # noqa: BLE001 — shipped back
            self.units_failed += 1
            self._say(f"unit {str(unit_id)[:8]} failed: {exc}")
            self._post(
                "/work/fail",
                {
                    "unit": unit_id,
                    "worker": self.worker_id,
                    "error": error_to_json(exc),
                },
            )
            return True
        self.units_done += 1
        self._post(
            "/work/complete",
            {"unit": unit_id, "worker": self.worker_id, "result": result},
        )
        self._say(f"completed unit {str(unit_id)[:8]}")
        return True
