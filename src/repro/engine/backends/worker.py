"""``repro worker`` — the fleet's compute process.

Two ways to run one:

* **Poller** (``repro worker http://coordinator:8765``): registers with
  the coordinator — a ``repro serve --backend remote`` service or a
  sweep's standalone :class:`~repro.engine.backends.remote.WorkServer`
  — then loops lease → execute → complete.  Transient coordinator
  outages (restart, network blip) are retried with backoff; a unit
  whose completion cannot be delivered is simply dropped — its lease
  expires and the queue requeues it, so at-least-once delivery holds
  without worker-side state.
* **Attachable** (``repro worker --listen 9400``): a small HTTP server
  that waits to be recruited — ``POST /attach {"coordinator": URL}``
  starts a poller thread against that coordinator (this is what
  ``--workers URL...`` does).  ``GET /status`` reports the worker id,
  attached coordinators and units done.

Executing a unit means unpickling and calling a task function — run
workers only against coordinators you trust (see
:mod:`repro.engine.backends.base`).
"""

from __future__ import annotations

import base64
import json
import os
import socket
import threading
import urllib.error
import urllib.request
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional

from repro.engine.backends.base import (
    encode_error,
    encode_result,
    run_encoded_task,
)
from repro.engine.backends.remote import read_json_body
from repro.errors import BackendError

__all__ = ["WorkerLoop", "WorkerServer", "default_worker_id"]


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
        data = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            self.coordinator + path,
            data=data,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
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
        """Run :meth:`run` on a daemon thread (attachable mode/tests)."""
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
        reply = self._post("/work/lease", {"worker": self.worker_id})
        unit_id = reply.get("unit")
        if not unit_id:
            return False
        payload = base64.b64decode(str(reply.get("payload") or ""))
        self._say(f"leased unit {str(unit_id)[:8]}")
        try:
            value = run_encoded_task(payload)
        except BaseException as exc:  # noqa: BLE001 — shipped back
            self.units_failed += 1
            self._say(f"unit {str(unit_id)[:8]} failed: {exc}")
            self._post(
                "/work/fail",
                {
                    "unit": unit_id,
                    "worker": self.worker_id,
                    "error": f"{type(exc).__name__}: {exc}",
                    "payload": base64.b64encode(
                        encode_error(exc)
                    ).decode("ascii"),
                },
            )
            return True
        self.units_done += 1
        self._post(
            "/work/complete",
            {
                "unit": unit_id,
                "worker": self.worker_id,
                "payload": base64.b64encode(
                    encode_result(value)
                ).decode("ascii"),
            },
        )
        self._say(f"completed unit {str(unit_id)[:8]}")
        return True


class _WorkerHandler(BaseHTTPRequestHandler):
    server_ref: "WorkerServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: ARG002
        pass

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path.rstrip("/") == "/status":
            self._reply(200, self.server_ref.describe())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        if self.path.rstrip("/") != "/attach":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            coordinator = str(read_json_body(self)["coordinator"])
        except Exception as exc:  # noqa: BLE001 — malformed attach
            self._reply(
                400, {"error": f"attach payload needs 'coordinator': {exc}"}
            )
            return
        self._reply(200, self.server_ref.attach(coordinator))


class WorkerServer:
    """Attachable worker: an HTTP shell around on-demand poller loops."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.worker_id = worker_id or default_worker_id()
        self.poll_interval = poll_interval
        self.log = log
        self._loops: List[WorkerLoop] = []
        self._lock = threading.Lock()
        handler = type("_BoundWorker", (_WorkerHandler,), {"server_ref": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def attach(self, coordinator: str) -> Dict[str, Any]:
        """Start (or reuse) a poller loop against ``coordinator``."""
        with self._lock:
            for loop in self._loops:
                if loop.coordinator == coordinator.rstrip("/"):
                    return {"worker": self.worker_id, "attached": False}
            loop = WorkerLoop(
                coordinator,
                worker_id=self.worker_id,
                poll_interval=self.poll_interval,
                log=self.log,
            ).start()
            self._loops.append(loop)
        return {"worker": self.worker_id, "attached": True}

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "worker": self.worker_id,
                "coordinators": [loop.coordinator for loop in self._loops],
                "units_done": sum(loop.units_done for loop in self._loops),
                "units_failed": sum(
                    loop.units_failed for loop in self._loops
                ),
            }

    def start(self) -> "WorkerServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-worker-http-{self.worker_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover — interactive only
            pass
        finally:
            self.close()

    def close(self) -> None:
        with self._lock:
            for loop in self._loops:
                loop.stop()
            loops, self._loops = list(self._loops), []
        if self._thread is not None:
            waiter = threading.Thread(target=self._httpd.shutdown, daemon=True)
            waiter.start()
            waiter.join(timeout=5.0)
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        for loop in loops:
            loop.join(timeout=2.0)
