"""Remote worker fleet: lease/complete work queue + HTTP coordinator.

The remote backend is pull-based.  A :class:`WorkQueue` holds JSON work
units (:func:`repro.engine.sweep.unit_to_json`); ``repro worker``
processes poll a *coordinator* over HTTP — ``POST /work/lease`` to
claim a unit, ``POST /work/complete`` / ``POST /work/fail`` to settle
it — and register themselves via ``POST /workers/register`` (surfaced
in ``/status``).  Every lease carries a deadline, and workers never
renew it: a unit still unsettled when its lease expires (its worker
died, or is merely slow) is **requeued** for the next lease poll, so a
killed worker never loses work, only time.  A slow unit is then
computed twice; because all seeds are derived before submission, both
copies are byte-identical, and the first completion wins.

Units are data, not code.  A unit is a sweep spec, a chunk of grid
cells and a profiling flag; a completion is the chunk's records and a
profile snapshot; a failure is an error type and message.  The queue
decodes every completion and checks it against its unit's cells before
it settles anything: one that does not decode or does not match gets a
400, and the unit is requeued, up to :data:`MAX_ATTEMPTS` leases.  A
settled unit is dropped, so a long-lived coordinator tracks only live
work.  No payload runs as code, but any client that can lease a unit
can still report numbers for it: keep coordinators on private
interfaces.

Two processes can host the coordinator endpoints, through one
:class:`JsonHandler` and one route table (:func:`queue_routes`):

* :class:`~repro.service.server.ReproService` mounts them next to
  ``/evaluate`` (``repro serve --backend remote``), so a worker fleet
  shares the service's durable store as its cache tier — answered
  fingerprints never reach the queue at all;
* :class:`WorkServer`, a minimal standalone coordinator the
  :class:`RemoteWorkerBackend` spins up (ephemeral port) when there is
  no service to host them (``repro sweep --backend remote``).

Workers join either one as ``repro worker COORDINATOR_URL``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
import uuid
from collections import deque
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.backends.base import (
    BackendTask,
    BrokenBackendError,
    ExecutionBackend,
)
from repro.errors import BackendError, ReproError, ServiceError

__all__ = [
    "JsonHandler",
    "WorkQueue",
    "WorkServer",
    "RemoteWorkerBackend",
    "queue_routes",
    "read_json_body",
]

#: A unit is abandoned (its future fails) after this many leases whose
#: worker never delivered a valid result — the backstop against a unit
#: that kills, or garbles, every worker that touches it cycling through
#: the fleet forever.
MAX_ATTEMPTS = 5

#: Seconds a request body may take to arrive once its headers are in.
#: Applied to the body read only, so an idle keep-alive connection
#: keeps the server's own (unbounded) timeout.
BODY_TIMEOUT_S = 10.0


class _Unit:
    __slots__ = (
        "unit_id", "payload", "future", "worker", "deadline", "attempts",
    )

    def __init__(self, unit_id: str, payload: Dict[str, Any]) -> None:
        self.unit_id = unit_id
        self.payload = payload
        self.future: "Future[Any]" = Future()
        self.worker: Optional[str] = None  # current lease holder
        self.deadline: Optional[float] = None  # lease expiry (monotonic)
        self.attempts = 0  # leases granted so far


class WorkQueue:
    """Thread-safe lease/complete queue of JSON work units.

    ``lease_timeout`` is the seconds a worker owns a unit before it is
    considered dead and the unit requeued (checked lazily on every
    lease/stats call and by the backend's monitor — no reaper thread of
    its own, so an embedding service pays nothing while idle).  A unit
    is dropped as soon as it settles — completed, failed, abandoned or
    failed by :meth:`fail_pending` — so the queue holds live units only.
    """

    def __init__(self, lease_timeout: float = 30.0) -> None:
        if lease_timeout <= 0:
            raise BackendError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        self.lease_timeout = float(lease_timeout)
        self._lock = threading.Lock()
        self._units: Dict[str, _Unit] = {}  # live (unsettled) units
        # Ids awaiting a lease; ids of units settled since are skipped.
        self._pending: deque = deque()
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "requeued": 0,
        }

    # -- producer side -------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> "Future[Any]":
        """Enqueue one JSON unit; the future resolves to its decoded
        ``(records, profile_snapshot)`` pair."""
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
        expired = [
            unit
            for unit in self._units.values()
            if unit.worker is not None and unit.deadline < now
        ]
        return sum(self._release_locked(u, "lease expired") for u in expired)

    def _release_locked(self, unit: _Unit, reason: str) -> bool:
        """Take back ``unit``'s lease: requeue the unit, or abandon it
        once it has had :data:`MAX_ATTEMPTS` leases.  True if requeued."""
        unit.worker = None
        unit.deadline = None
        if unit.attempts < MAX_ATTEMPTS:
            self._pending.append(unit.unit_id)
            self._counters["requeued"] += 1
            return True
        del self._units[unit.unit_id]
        unit.future.set_exception(
            BackendError(
                f"work unit {unit.unit_id[:8]} abandoned after "
                f"{unit.attempts} leases (last: {reason})"
            )
        )
        return False

    def fail_pending(self, exc: BaseException) -> int:
        """Fail every unsettled unit (fleet declared dead / shutdown)."""
        with self._lock:
            units = list(self._units.values())
            self._units.clear()
            self._pending.clear()
            for unit in units:
                unit.future.set_exception(exc)
            return len(units)

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

    def lease(self, worker: str) -> Optional[Tuple[str, Dict[str, Any]]]:
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
                if unit is None:
                    continue
                unit.worker = worker
                unit.deadline = time.monotonic() + self.lease_timeout
                unit.attempts += 1
                return unit.unit_id, unit.payload
            return None

    def complete(self, unit_id: str, worker: str, result: Any) -> bool:
        """Settle a unit with its JSON result ``{records, profile}``.

        The result must decode and match the unit's cells
        (:func:`~repro.engine.sweep.result_from_json`).  One that does
        not raises :class:`~repro.errors.BackendError` and requeues the
        unit (see :meth:`_settle`).  Returns False for a unit no longer
        tracked: a late duplicate (the unit was requeued and another
        worker finished first) is ignored — results are byte-identical
        whichever worker computed them.
        """
        # Deferred: repro.engine.sweep imports this package.
        from repro.engine.sweep import result_from_json

        return self._settle(
            unit_id,
            worker,
            "completed",
            lambda unit: result_from_json(result, unit.payload),
        )

    def fail(self, unit_id: str, worker: str, error: Any) -> bool:
        """Settle a unit with the JSON error ``{type, message}`` its task
        raised (:func:`~repro.engine.sweep.error_from_json`).

        This is a *task* failure (bad spec, evaluation error) reported
        by a live worker — it resolves the unit, unlike a worker death,
        which requeues it.  A malformed error is refused like a
        malformed result.
        """
        from repro.engine.sweep import error_from_json

        return self._settle(
            unit_id, worker, "failed", lambda unit: error_from_json(error)
        )

    def _settle(
        self,
        unit_id: str,
        worker: str,
        outcome: str,
        decode: Callable[[_Unit], Any],
    ) -> bool:
        """Resolve a live unit with ``decode(unit)``: a result, or the
        exception to fail it with.

        A message ``decode`` refuses (a :class:`~repro.errors.BackendError`)
        settles nothing: the unit's lease is taken back — the unit is
        requeued, or abandoned after :data:`MAX_ATTEMPTS` leases — and
        the error is re-raised for the route to answer with a 400.
        """
        with self._lock:
            unit = self._units.get(unit_id)
        if unit is None:
            return False
        try:
            value = decode(unit)  # outside the lock: records decode here
        except BackendError as exc:
            with self._lock:
                leased = unit.worker is not None
                if leased and self._units.get(unit_id) is unit:
                    self._release_locked(unit, f"refused: {exc}")
            raise BackendError(
                f"work unit {unit_id[:8]} refused: {exc}"
            ) from None
        with self._lock:
            if self._units.pop(unit_id, None) is None:
                return False  # another worker settled it meanwhile
            self._counters[outcome] += 1
            entry = self._workers.get(worker)
            if entry is not None:
                entry["last_seen"] = time.time()
                if outcome == "completed":
                    entry["units_done"] += 1
            if isinstance(value, BaseException):
                unit.future.set_exception(value)
            else:
                unit.future.set_result(value)
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
            leased = sum(u.worker is not None for u in self._units.values())
            return {
                "lease_timeout_s": self.lease_timeout,
                "pending": len(self._units) - leased,
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
# HTTP plumbing shared by WorkServer and the evaluation service.


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
    headers can be trusted), for a body that is not JSON (nested too
    deep to parse included), and for JSON that is not an object.  Every
    handler answers the error with a 400.
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
    except (ValueError, RecursionError) as exc:  # bad bytes, JSON, depth
        raise ServiceError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    return payload


#: A route: the request's handler in, the JSON body of its 200 reply out.
Route = Callable[["JsonHandler"], Dict[str, Any]]


class JsonHandler(BaseHTTPRequestHandler):
    """The JSON request handler both HTTP hosts build on.

    A bound subclass carries the server's route tables, built once per
    server: ``get_routes`` and ``post_routes`` map a path to a
    :data:`Route`.  :meth:`_dispatch` answers an unknown path with a
    404, a :class:`~repro.errors.ReproError` (a bad request, a refused
    work-unit message) with a 400 and any other exception with a 500;
    the handler thread survives all three.
    """

    protocol_version = "HTTP/1.1"
    # _reply sends headers and body in separate writes; with Nagle on, a
    # keep-alive client's delayed ACK holds the body back ~40 ms.
    disable_nagle_algorithm = True
    get_routes: Mapping[str, Route] = {}
    post_routes: Mapping[str, Route] = {}

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, routes: Mapping[str, Route]) -> None:
        route = routes.get(self.path.rstrip("/") or "/")
        if route is None:
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            self._reply(200, route(self))
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — never kill the thread
            self._reply(500, {"error": f"internal error: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self.get_routes)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch(self.post_routes)


def queue_routes(queue: WorkQueue) -> Dict[str, Route]:
    """The coordinator's POST routes over ``queue``.

    Both hosts — the standalone :class:`WorkServer` and the evaluation
    service — mount this one table, so the wire protocol cannot drift
    between them.  A lease answers ``{"unit": id, "payload": unit}``
    (``unit`` is None when there is no work); a completion carries
    ``{"unit", "worker", "result"}`` and a failure ``{"unit",
    "worker", "error"}``, each answered ``{"accepted": bool}``.
    """

    def _lease(handler: JsonHandler) -> Dict[str, Any]:
        payload = read_json_body(handler)
        leased = queue.lease(str(payload.get("worker") or "anonymous"))
        if leased is None:
            return {"unit": None}
        unit_id, unit = leased
        return {"unit": unit_id, "payload": unit}

    def _complete(handler: JsonHandler) -> Dict[str, Any]:
        payload = read_json_body(handler)
        accepted = queue.complete(
            str(payload.get("unit") or ""),
            str(payload.get("worker") or "anonymous"),
            payload.get("result"),
        )
        return {"accepted": accepted}

    def _fail(handler: JsonHandler) -> Dict[str, Any]:
        payload = read_json_body(handler)
        accepted = queue.fail(
            str(payload.get("unit") or ""),
            str(payload.get("worker") or "anonymous"),
            payload.get("error"),
        )
        return {"accepted": accepted}

    def _register(handler: JsonHandler) -> Dict[str, Any]:
        payload = read_json_body(handler)
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


class _CoordinatorHandler(JsonHandler):
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: ARG002
        pass  # the coordinator is chatty (polling); stay silent


class WorkServer:
    """Standalone HTTP coordinator over one :class:`WorkQueue`."""

    def __init__(
        self,
        queue: WorkQueue,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.queue = queue

        def _status(handler: JsonHandler) -> Dict[str, Any]:
            return {
                "coordinator": "repro-work-server",
                "work_queue": queue.stats(),
                "workers": queue.workers(),
            }

        routes = {
            "get_routes": {"/status": _status},
            "post_routes": queue_routes(queue),
        }
        handler = type("_BoundCoordinator", (_CoordinatorHandler,), routes)
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


class RemoteWorkerBackend(ExecutionBackend):
    """HTTP fan-out over a worker fleet sharing one work queue.

    Two hosting modes:

    * ``queue=`` **bound**: the embedding process (the evaluation
      service) owns the queue and exposes the coordinator endpoints
      itself; the backend only submits units and monitors liveness.
    * **standalone** (no ``queue``): the backend creates its own
      :class:`WorkQueue` and :class:`WorkServer` on an ephemeral port
      (:attr:`coordinator_url`) for workers to poll.

    ``worker_grace`` bounds how long submitted work may sit with **no
    live worker**: past it, every unsettled future fails with
    :class:`~repro.engine.backends.base.BrokenBackendError` and the
    dispatch loop finishes the sweep serially in-process — a fleetless
    remote sweep degrades, it does not hang.  :meth:`submit` refuses
    any task but the engine's chunk unit with a
    :class:`~repro.errors.BackendError`.
    """

    name = "remote"
    supports_profile_merge = True
    max_inflight = None

    def __init__(
        self,
        queue: Optional[WorkQueue] = None,
        coordinator_url: Optional[str] = None,
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
        self._closed = threading.Event()
        self._last_settled = time.monotonic()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-remote-monitor", daemon=True
        )
        self._monitor.start()

    def submit(self, task: BackendTask, profile: bool = False) -> "Future[Any]":
        # Deferred: repro.engine.sweep imports this package.
        from repro.engine.sweep import unit_to_json

        if self._closed.is_set():
            raise BackendError("remote backend is closed")
        future = self.queue.submit(unit_to_json(task, profile))
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
