"""Remote worker fleet: lease/complete work queue + HTTP coordinator.

The remote backend is pull-based.  A :class:`WorkQueue` holds encoded
work units; ``repro worker`` processes poll a *coordinator* over HTTP —
``POST /work/lease`` to claim a unit, ``POST /work/complete`` /
``POST /work/fail`` to settle it — and register themselves via
``POST /workers/register`` (surfaced in ``/status``).  Every lease
carries a deadline: a worker that dies mid-unit simply stops renewing,
and the unit is **requeued** for the next lease poll once the deadline
passes, so a killed worker never loses work, only time.  Because all
seeds are derived before submission, a requeued unit recomputed by a
different worker produces byte-identical records — first completion
wins, late duplicates are ignored.

Two processes can host the coordinator endpoints:

* :class:`~repro.service.server.ReproService` mounts them next to
  ``/evaluate`` (``repro serve --backend remote``), so a worker fleet
  shares the service's durable store as its cache tier — answered
  fingerprints never reach the queue at all;
* :class:`WorkServer`, a minimal standalone coordinator the
  :class:`RemoteWorkerBackend` spins up (ephemeral port) when there is
  no service to attach to (``repro sweep --backend remote``).

``--workers URL...`` recruits *attachable* workers (``repro worker
--listen PORT``): the backend POSTs each URL ``/attach`` with its own
coordinator address and the worker starts polling back.  Workers
started as ``repro worker COORDINATOR_URL`` need no recruiting — they
poll the coordinator directly.

Payloads ride the pickle wire codec of
:mod:`repro.engine.backends.base` — trusted fleets only.
"""

from __future__ import annotations

import base64
import json
import threading
import time
import urllib.request
import uuid
from collections import deque
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.backends.base import (
    BackendTask,
    BrokenBackendError,
    ExecutionBackend,
    decode_error,
    decode_result,
    encode_task,
)
from repro.errors import BackendError, ServiceError

__all__ = [
    "WorkQueue",
    "WorkServer",
    "RemoteWorkerBackend",
    "queue_routes",
    "read_json_body",
    "attach_worker",
]

#: A unit is abandoned (its future fails) after this many lease
#: expiries — the backstop against a unit that kills every worker that
#: touches it cycling through the fleet forever.
MAX_ATTEMPTS = 5

#: Seconds a request body may take to arrive once its headers are in.
#: Applied to the body read only, so an idle keep-alive connection
#: keeps the server's own (unbounded) timeout.
BODY_TIMEOUT_S = 10.0


class _Unit:
    __slots__ = (
        "unit_id", "payload", "future", "worker", "deadline", "attempts",
    )

    def __init__(self, unit_id: str, payload: bytes) -> None:
        self.unit_id = unit_id
        self.payload = payload
        self.future: "Future[Any]" = Future()
        self.worker: Optional[str] = None  # current lease holder
        self.deadline: Optional[float] = None  # lease expiry (monotonic)
        self.attempts = 0  # leases granted so far


class WorkQueue:
    """Thread-safe lease/complete queue of encoded work units.

    ``lease_timeout`` is the seconds a worker owns a unit before it is
    considered dead and the unit requeued (checked lazily on every
    lease/stats call and by the backend's monitor — no reaper thread of
    its own, so an embedding service pays nothing while idle).
    """

    def __init__(self, lease_timeout: float = 30.0) -> None:
        if lease_timeout <= 0:
            raise BackendError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        self.lease_timeout = float(lease_timeout)
        self._lock = threading.Lock()
        self._units: Dict[str, _Unit] = {}
        self._pending: deque = deque()  # unit ids awaiting a lease
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "requeued": 0,
        }

    # -- producer side -------------------------------------------------

    def submit(self, payload: bytes) -> "Future[Any]":
        """Enqueue one encoded unit; the future resolves on completion."""
        unit = _Unit(uuid.uuid4().hex, payload)
        with self._lock:
            self._units[unit.unit_id] = unit
            self._pending.append(unit.unit_id)
            self._counters["submitted"] += 1
        return unit.future

    def reap(self) -> int:
        """Requeue every unit whose lease expired; returns how many."""
        with self._lock:
            return self._reap_locked()

    def _reap_locked(self) -> int:
        now = time.monotonic()
        requeued = 0
        for unit in self._units.values():
            if unit.worker is None or unit.future.done():
                continue
            if unit.deadline is not None and unit.deadline < now:
                unit.worker = None
                unit.deadline = None
                if unit.attempts >= MAX_ATTEMPTS:
                    unit.future.set_exception(
                        BackendError(
                            f"work unit {unit.unit_id[:8]} abandoned after "
                            f"{unit.attempts} expired leases"
                        )
                    )
                else:
                    self._pending.append(unit.unit_id)
                    requeued += 1
        self._counters["requeued"] += requeued
        return requeued

    def fail_pending(self, exc: BaseException) -> int:
        """Fail every unsettled unit (fleet declared dead / shutdown)."""
        with self._lock:
            failed = 0
            for unit in self._units.values():
                if not unit.future.done():
                    unit.future.set_exception(exc)
                    failed += 1
            self._pending.clear()
            return failed

    # -- worker side ---------------------------------------------------

    def register(self, worker: str, meta: Optional[dict] = None) -> None:
        with self._lock:
            entry = self._workers.setdefault(
                worker,
                {"registered_at": time.time(), "units_done": 0, "meta": {}},
            )
            entry["last_seen"] = time.time()
            if meta:
                entry["meta"] = dict(meta)

    def lease(self, worker: str) -> Optional[Tuple[str, bytes]]:
        """Claim the next pending unit for ``worker`` (None = no work).

        Leasing doubles as the worker heartbeat and as the lazy reap
        point: expired leases are requeued before handing out work, so
        a live worker picks up a dead one's units on its next poll.
        """
        with self._lock:
            self._reap_locked()
            entry = self._workers.setdefault(
                worker,
                {"registered_at": time.time(), "units_done": 0, "meta": {}},
            )
            entry["last_seen"] = time.time()
            while self._pending:
                unit = self._units.get(self._pending.popleft())
                if unit is None or unit.future.done():
                    continue
                unit.worker = worker
                unit.deadline = time.monotonic() + self.lease_timeout
                unit.attempts += 1
                return unit.unit_id, unit.payload
            return None

    def complete(self, unit_id: str, worker: str, result_blob: bytes) -> bool:
        """Settle a unit with its encoded ``(result, snapshot)`` pair.

        Idempotent: a late duplicate (the unit was requeued and another
        worker finished first) is acknowledged but ignored — results
        are byte-identical whichever worker computed them.
        """
        with self._lock:
            unit = self._units.get(unit_id)
            if unit is None:
                return False
            entry = self._workers.get(worker)
            if entry is not None:
                entry["last_seen"] = time.time()
                entry["units_done"] = entry.get("units_done", 0) + 1
            if unit.future.done():
                return False
            unit.worker = None
            unit.deadline = None
            self._counters["completed"] += 1
            # Settled under the lock so a racing duplicate completion
            # (lease expired, both workers answered) cannot double-set.
            try:
                unit.future.set_result(decode_result(result_blob))
            except Exception as exc:  # noqa: BLE001 — corrupted result
                unit.future.set_exception(
                    BackendError(f"undecodable worker result: {exc}")
                )
            return True

    def fail(
        self,
        unit_id: str,
        worker: str,
        message: str,
        error_blob: Optional[bytes] = None,
    ) -> bool:
        """Settle a unit with the exception its task raised.

        This is a *task* failure (bad spec, evaluation error) reported
        by a live worker — it resolves the unit, unlike a worker death,
        which requeues it.
        """
        with self._lock:
            unit = self._units.get(unit_id)
            if unit is None or unit.future.done():
                return False
            entry = self._workers.get(worker)
            if entry is not None:
                entry["last_seen"] = time.time()
            unit.worker = None
            unit.deadline = None
            self._counters["failed"] += 1
            unit.future.set_exception(
                decode_error(error_blob, message)
                if error_blob is not None
                else BackendError(message)
            )
            return True

    # -- introspection -------------------------------------------------

    def workers(self) -> Dict[str, Dict[str, Any]]:
        """Registered workers (id → registration/heartbeat/done counts)."""
        with self._lock:
            return {
                wid: {
                    "registered_at": entry["registered_at"],
                    "last_seen": entry.get("last_seen"),
                    "units_done": entry.get("units_done", 0),
                    "meta": dict(entry.get("meta", {})),
                }
                for wid, entry in self._workers.items()
            }

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            self._reap_locked()
            leased = sum(
                1
                for u in self._units.values()
                if u.worker is not None and not u.future.done()
            )
            return {
                "lease_timeout_s": self.lease_timeout,
                "pending": len(self._pending),
                "leased": leased,
                "workers": len(self._workers),
                **self._counters,
            }

    def last_worker_activity(self) -> Optional[float]:
        """``time.time()`` of the most recent worker heartbeat, if any."""
        with self._lock:
            seen = [
                entry.get("last_seen")
                for entry in self._workers.values()
                if entry.get("last_seen") is not None
            ]
            return max(seen) if seen else None


# ----------------------------------------------------------------------
# HTTP plumbing shared by WorkServer, the attachable worker and the
# evaluation service.


def _read_body(handler: BaseHTTPRequestHandler, length: int) -> bytes:
    """Up to ``length`` body bytes: what arrives within
    :data:`BODY_TIMEOUT_S` before the client stops sending."""
    connection = handler.connection
    deadline = time.monotonic() + BODY_TIMEOUT_S
    chunks: List[bytes] = []
    missing = length
    try:
        while missing > 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            connection.settimeout(remaining)
            chunk = handler.rfile.read1(missing)
            if not chunk:
                break
            chunks.append(chunk)
            missing -= len(chunk)
    except TimeoutError:  # the client stopped sending: a short body
        pass
    finally:
        connection.settimeout(handler.timeout)
    return b"".join(chunks)


def read_json_body(handler: BaseHTTPRequestHandler) -> Dict[str, Any]:
    """The request's JSON object body, framed by ``Content-Length``.

    A missing header or an empty body reads as ``{}``.  Raises
    :class:`~repro.errors.ServiceError` for a length that is not a
    non-negative integer, for a body shorter than its length once
    :data:`BODY_TIMEOUT_S` has passed (both also mark the connection
    for closing: the body's framing is broken, so nothing after the
    headers can be trusted), for a body that is not JSON, and for JSON
    that is not an object.  Every handler answers the error with a 400.
    """
    header = handler.headers.get("Content-Length")
    try:
        length = int(header or 0)
    except ValueError:
        length = -1
    if length < 0:
        handler.close_connection = True
        raise ServiceError(f"invalid Content-Length header {header!r}")
    raw = _read_body(handler, length) if length else b""
    if len(raw) < length:
        handler.close_connection = True
        raise ServiceError(
            f"request body ended after {len(raw)} of its {length} "
            "Content-Length bytes"
        )
    if not raw:
        return {}
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    return payload


def queue_routes(
    queue: WorkQueue,
) -> Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]]:
    """The coordinator's POST routes as ``path → handler(payload)``.

    Both hosts — the standalone :class:`WorkServer` and the evaluation
    service's handler — dispatch through this one table, so the wire
    protocol cannot drift between them.
    """

    def _lease(payload: Dict[str, Any]) -> Dict[str, Any]:
        worker = str(payload.get("worker") or "anonymous")
        leased = queue.lease(worker)
        if leased is None:
            return {"unit": None}
        unit_id, blob = leased
        return {
            "unit": unit_id,
            "payload": base64.b64encode(blob).decode("ascii"),
        }

    def _complete(payload: Dict[str, Any]) -> Dict[str, Any]:
        unit = str(payload.get("unit") or "")
        worker = str(payload.get("worker") or "anonymous")
        blob = base64.b64decode(str(payload.get("payload") or ""))
        return {"accepted": queue.complete(unit, worker, blob)}

    def _fail(payload: Dict[str, Any]) -> Dict[str, Any]:
        unit = str(payload.get("unit") or "")
        worker = str(payload.get("worker") or "anonymous")
        message = str(payload.get("error") or "worker task failed")
        raw = payload.get("payload")
        blob = base64.b64decode(str(raw)) if raw else None
        return {"accepted": queue.fail(unit, worker, message, blob)}

    def _register(payload: Dict[str, Any]) -> Dict[str, Any]:
        worker = str(payload.get("worker") or "anonymous")
        meta = payload.get("meta")
        queue.register(worker, meta if isinstance(meta, dict) else None)
        return {
            "registered": True,
            "worker": worker,
            "lease_timeout_s": queue.lease_timeout,
        }

    return {
        "/work/lease": _lease,
        "/work/complete": _complete,
        "/work/fail": _fail,
        "/workers/register": _register,
    }


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Minimal JSON handler for the standalone coordinator."""

    queue: WorkQueue  # bound per server via a subclass attribute
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: ARG002
        pass  # the coordinator is chatty (polling); stay silent

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path.rstrip("/") == "/status":
            self._reply(
                200,
                {
                    "coordinator": "repro-work-server",
                    "work_queue": self.queue.stats(),
                    "workers": self.queue.workers(),
                },
            )
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        route = queue_routes(self.queue).get(self.path.rstrip("/"))
        if route is None:
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            self._reply(200, route(read_json_body(self)))
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self._reply(400, {"error": str(exc)})


class WorkServer:
    """Standalone HTTP coordinator over one :class:`WorkQueue`."""

    def __init__(
        self,
        queue: WorkQueue,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.queue = queue
        handler = type("_BoundCoordinator", (_CoordinatorHandler,), {"queue": queue})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "WorkServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-work-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            waiter = threading.Thread(target=self._httpd.shutdown, daemon=True)
            waiter.start()
            waiter.join(timeout=5.0)
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()


def _post_json(
    url: str, payload: Dict[str, Any], timeout: float = 10.0
) -> Dict[str, Any]:
    data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def attach_worker(worker_url: str, coordinator_url: str) -> str:
    """Recruit an attachable worker (``repro worker --listen``): tell it
    to start polling ``coordinator_url``.  Returns the worker's id."""
    try:
        reply = _post_json(
            worker_url.rstrip("/") + "/attach",
            {"coordinator": coordinator_url},
        )
    except OSError as exc:
        raise BackendError(
            f"cannot attach worker at {worker_url}: {exc}"
        ) from None
    return str(reply.get("worker", worker_url))


class RemoteWorkerBackend(ExecutionBackend):
    """HTTP fan-out over a worker fleet sharing one work queue.

    Two hosting modes:

    * ``queue=`` **bound**: the embedding process (the evaluation
      service) owns the queue and exposes the coordinator endpoints
      itself; the backend only submits units and monitors liveness.
    * **standalone** (no ``queue``): the backend creates its own
      :class:`WorkQueue` and :class:`WorkServer` on an ephemeral port
      (:attr:`coordinator_url`) for workers to poll.

    ``workers`` lists attachable worker URLs to recruit at
    construction.  ``worker_grace`` bounds how long submitted work may
    sit with **no live worker**: past it, every unsettled future fails
    with :class:`~repro.engine.backends.base.BrokenBackendError` and
    the dispatch loop finishes the sweep serially in-process — a
    fleetless remote sweep degrades, it does not hang.
    """

    name = "remote"
    supports_profile_merge = True
    max_inflight = None

    def __init__(
        self,
        queue: Optional[WorkQueue] = None,
        coordinator_url: Optional[str] = None,
        workers: Sequence[str] = (),
        lease_timeout: float = 30.0,
        worker_grace: float = 60.0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.worker_grace = float(worker_grace)
        self._server: Optional[WorkServer] = None
        if queue is not None:
            self.queue = queue
            self.coordinator_url = coordinator_url
        else:
            self.queue = WorkQueue(lease_timeout=lease_timeout)
            self._server = WorkServer(self.queue, host=host, port=port).start()
            self.coordinator_url = self._server.url
        self.attached: List[str] = []
        for worker_url in workers:
            if self.coordinator_url is None:
                raise BackendError(
                    "cannot recruit workers without a coordinator URL"
                )
            self.attached.append(
                attach_worker(worker_url, self.coordinator_url)
            )
        self._closed = threading.Event()
        self._last_settled = time.monotonic()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-remote-monitor", daemon=True
        )
        self._monitor.start()

    def submit(self, task: BackendTask, profile: bool = False) -> "Future[Any]":
        if self._closed.is_set():
            raise BackendError("remote backend is closed")
        payload = encode_task(task.fn, task.args, profile)
        future = self.queue.submit(payload)
        future.add_done_callback(self._note_settled)
        return future

    def _note_settled(self, _future: "Future[Any]") -> None:
        self._last_settled = time.monotonic()

    def _monitor_loop(self) -> None:
        interval = max(0.05, min(1.0, self.queue.lease_timeout / 4))
        while not self._closed.wait(interval):
            self.queue.reap()
            stats = self.queue.stats()
            outstanding = stats["pending"] + stats["leased"]
            if not outstanding:
                self._last_settled = time.monotonic()
                continue
            last_seen = self.queue.last_worker_activity()
            worker_idle = (
                float("inf")
                if last_seen is None
                else time.time() - last_seen
            )
            settled_idle = time.monotonic() - self._last_settled
            if min(worker_idle, settled_idle) > self.worker_grace:
                self.queue.fail_pending(
                    BrokenBackendError(
                        f"no live remote worker for {self.worker_grace:.0f}s "
                        f"({outstanding} unit(s) outstanding)"
                    )
                )

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        self.queue.fail_pending(BackendError("remote backend closed"))
        if self._server is not None:
            self._server.close()
            self._server = None
        self._monitor.join(timeout=5.0)
