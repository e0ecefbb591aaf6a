"""Execution backends: parity matrix, dispatch loop, work queue, fleet.

The backbone guarantee under test: **records are byte-identical across
every backend** — every seed is derived in the parent before
submission, so where a task runs can never change what it computes.
On top of that, the plumbing contracts: the shared dispatch loop's
broken-backend restart finishes only the *remaining* tasks (no
re-computation, no duplicated progress lines), the work queue requeues
a dead worker's leases, and the client retries idempotent reads only.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.engine.backends import (
    BACKENDS,
    BackendTask,
    BackendUnavailable,
    BrokenBackendError,
    ExecutionBackend,
    RemoteWorkerBackend,
    SerialBackend,
    WorkQueue,
    WorkServer,
    get_backend,
    run_tasks,
)
import repro.engine.backends.remote as remote_mod
from repro.engine.backends.base import encode_result
from repro.engine.backends.remote import MAX_ATTEMPTS, _post_json
from repro.engine.backends.worker import WorkerLoop, WorkerServer
from repro.engine.records import records_to_jsonl
from repro.engine.sweep import SweepSpec, run_specs, run_sweep
from repro.errors import BackendError, EvaluationError, ServiceError
from repro.service.client import ServiceClient
from repro.service.server import ReproService

#: Known-good small grids per family (sizes the generators accept).
_NTASKS = {"montage": 20, "genome": 30}


def _spec(family: str, method: str = "pathapprox", **kwargs) -> SweepSpec:
    ntasks = _NTASKS[family]
    defaults = dict(
        family=family,
        sizes=(ntasks,),
        processors={ntasks: (3,)},
        pfails=(1e-3,),
        ccrs=(0.01, 1.0),
        method=method,
        name=f"parity[{family}/{method}]",
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


#: The parity matrix's spec axis: closed-form pathapprox, the normal
#: approximation, and content-policy Monte Carlo (position-independent
#: sampling seeds — so records cannot depend on how the grid was
#: chunked across workers).
PARITY_SPECS = [
    _spec("montage", "pathapprox"),
    _spec("genome", "normal"),
    _spec(
        "genome",
        "montecarlo",
        eval_seed_policy="content",
        evaluator_options={"trials": 200},
    ),
]


@pytest.fixture(scope="module")
def reference_jsonl():
    """Serialised inline-serial records every backend must reproduce."""
    return {
        spec.name: records_to_jsonl(run_sweep(spec, jobs=1))
        for spec in PARITY_SPECS
    }


class TestBackendParity:
    """Byte-identical records on every backend, for every method kind."""

    @pytest.mark.parametrize("spec", PARITY_SPECS, ids=lambda s: s.name)
    def test_serial_backend(self, spec, reference_jsonl):
        records = run_sweep(spec, backend="serial")
        assert records_to_jsonl(records) == reference_jsonl[spec.name]

    @pytest.mark.parametrize("spec", PARITY_SPECS, ids=lambda s: s.name)
    def test_process_backend(self, spec, reference_jsonl):
        records = run_sweep(spec, jobs=2, backend="process")
        assert records_to_jsonl(records) == reference_jsonl[spec.name]

    @pytest.mark.parametrize("spec", PARITY_SPECS, ids=lambda s: s.name)
    def test_subprocess_backend(self, spec, reference_jsonl):
        records = run_sweep(spec, jobs=2, backend="subprocess")
        assert records_to_jsonl(records) == reference_jsonl[spec.name]

    def test_remote_backend(self, reference_jsonl):
        # One fleet (standalone coordinator + two in-process worker
        # loops) serves all three parity specs back to back.
        backend = RemoteWorkerBackend(lease_timeout=30.0, worker_grace=60.0)
        loops = [
            WorkerLoop(
                backend.coordinator_url,
                worker_id=f"parity-w{i}",
                poll_interval=0.02,
            ).start()
            for i in range(2)
        ]
        try:
            for spec in PARITY_SPECS:
                records = run_sweep(spec, backend=backend)
                assert (
                    records_to_jsonl(records) == reference_jsonl[spec.name]
                ), spec.name
        finally:
            for loop in loops:
                loop.stop()
            backend.close()

    def test_run_specs_parity_on_process_backend(self, reference_jsonl):
        results = run_specs(PARITY_SPECS, jobs=2, backend="process")
        for spec, records in zip(PARITY_SPECS, results):
            assert records_to_jsonl(records) == reference_jsonl[spec.name]

    def test_run_specs_error_isolation_on_backend_path(self):
        good = _spec("montage")
        bad = _spec("montage", method="no-such-method")
        results = run_specs(
            [good, bad], jobs=2, backend="process", return_exceptions=True
        )
        assert results[0] == run_sweep(good, jobs=1)
        assert isinstance(results[1], EvaluationError)


class TestGetBackend:
    def test_names(self):
        assert BACKENDS == ("serial", "process", "subprocess", "remote")

    @pytest.mark.parametrize("name", ["serial", "process", "subprocess"])
    def test_builds_and_closes(self, name):
        backend = get_backend(name, jobs=2)
        assert isinstance(backend, ExecutionBackend)
        assert backend.name == name
        backend.close()

    def test_unknown_name(self):
        with pytest.raises(BackendError, match="unknown execution backend"):
            get_backend("carrier-pigeon")


# ----------------------------------------------------------------------
# Dispatch loop: collection, isolation, broken-backend restart.


def _dispatch_task(value, profile=False, pipeline=None):
    """Module-level task fn (pickleable) following the backend contract."""
    return value * 10, None


def _failing_task(value, profile=False, pipeline=None):
    raise EvaluationError(f"task {value} is bad")


class _FlakyBackend(ExecutionBackend):
    """In-process backend that breaks after ``break_after`` submissions."""

    name = "flaky"
    supports_profile_merge = False
    max_inflight = 1  # deterministic completion order

    def __init__(self, break_after: int) -> None:
        self.break_after = break_after
        self.submitted = 0
        self.closed = False

    def submit(self, task: BackendTask, profile: bool = False) -> Future:
        future: Future = Future()
        if self.submitted >= self.break_after:
            future.set_exception(BrokenBackendError("executor died"))
        else:
            future.set_result(task.fn(*task.args, profile=profile))
        self.submitted += 1
        return future

    def close(self) -> None:
        self.closed = True


class TestDispatchLoop:
    def test_results_keyed_by_task(self):
        tasks = [
            BackendTask(fn=_dispatch_task, args=(i,), key=i) for i in range(5)
        ]
        assert run_tasks(SerialBackend(), tasks) == {
            i: i * 10 for i in range(5)
        }

    def test_broken_backend_finishes_rest_serially_without_repeats(self):
        """Completed tasks are neither recomputed nor re-reported after
        a mid-run executor death — only the remainder runs serially."""
        seen = []
        notes = []
        tasks = [
            BackendTask(fn=_dispatch_task, args=(i,), key=i) for i in range(6)
        ]
        backend = _FlakyBackend(break_after=2)
        with pytest.warns(RuntimeWarning, match="broke mid-run"):
            out = run_tasks(
                backend,
                tasks,
                on_result=lambda key, payload: seen.append(key),
                on_note=notes.append,
                owns_backend=True,
            )
        assert out == {i: i * 10 for i in range(6)}
        # Every key reported exactly once — the two pool completions are
        # not re-fired when the remaining four run serially.
        assert sorted(seen) == list(range(6))
        assert backend.closed
        assert any("finishing" in note for note in notes)

    def test_return_exceptions_isolates_failures(self):
        tasks = [
            BackendTask(fn=_dispatch_task, args=(0,), key="ok"),
            BackendTask(fn=_failing_task, args=(1,), key="bad"),
        ]
        out = run_tasks(SerialBackend(), tasks, return_exceptions=True)
        assert out["ok"] == 0
        assert isinstance(out["bad"], EvaluationError)

    def test_exception_propagates_without_return_exceptions(self):
        tasks = [BackendTask(fn=_failing_task, args=(1,), key="bad")]
        with pytest.raises(EvaluationError):
            run_tasks(SerialBackend(), tasks)

    def test_unavailable_backend_falls_back_to_serial_sweep(self, monkeypatch):
        """Pool construction failure keeps today's silent serial fallback."""
        import repro.engine.sweep as sweep_mod

        def boom(name, jobs):
            raise BackendUnavailable("no processes here")

        monkeypatch.setattr(sweep_mod, "get_backend", boom)
        spec = _spec("montage")
        assert run_sweep(spec, jobs=3) == run_sweep(spec, jobs=1)


# ----------------------------------------------------------------------
# Work queue: leases, requeue, idempotent settlement.


class TestWorkQueue:
    def test_lease_complete_roundtrip(self):
        queue = WorkQueue(lease_timeout=30.0)
        future = queue.submit(b"unit-payload")
        leased = queue.lease("w1")
        assert leased is not None
        unit_id, payload = leased
        assert payload == b"unit-payload"
        assert queue.complete(unit_id, "w1", encode_result(("hi", None)))
        assert future.result(timeout=1) == ("hi", None)
        stats = queue.stats()
        assert stats["completed"] == 1 and stats["pending"] == 0
        assert queue.workers()["w1"]["units_done"] == 1

    def test_duplicate_completion_is_ignored(self):
        queue = WorkQueue(lease_timeout=30.0)
        future = queue.submit(b"x")
        unit_id, _ = queue.lease("w1")
        assert queue.complete(unit_id, "w1", encode_result((1, None)))
        # A late duplicate (the lease expired and two workers raced) is
        # acknowledged as stale, not an error — first completion wins.
        assert not queue.complete(unit_id, "w2", encode_result((2, None)))
        assert future.result(timeout=1) == (1, None)

    def test_expired_lease_is_requeued_to_next_worker(self):
        queue = WorkQueue(lease_timeout=0.05)
        future = queue.submit(b"x")
        first = queue.lease("dead-worker")
        assert first is not None
        assert queue.lease("live-worker") is None  # still leased
        time.sleep(0.08)
        second = queue.lease("live-worker")  # lease() reaps lazily
        assert second is not None and second[0] == first[0]
        assert queue.stats()["requeued"] == 1
        assert not future.done()

    def test_unit_abandoned_after_max_attempts(self):
        queue = WorkQueue(lease_timeout=0.01)
        future = queue.submit(b"poison")
        for _ in range(MAX_ATTEMPTS):
            leased = queue.lease("crashy")
            assert leased is not None
            time.sleep(0.02)  # let every lease expire
        queue.reap()
        with pytest.raises(BackendError, match="abandoned"):
            future.result(timeout=1)

    def test_task_failure_resolves_unit(self):
        queue = WorkQueue(lease_timeout=30.0)
        future = queue.submit(b"x")
        unit_id, _ = queue.lease("w1")
        assert queue.fail(unit_id, "w1", "task exploded")
        with pytest.raises(BackendError, match="task exploded"):
            future.result(timeout=1)

    def test_fail_pending_settles_everything(self):
        queue = WorkQueue(lease_timeout=30.0)
        futures = [queue.submit(b"x") for _ in range(3)]
        assert queue.fail_pending(BrokenBackendError("fleet gone")) == 3
        for future in futures:
            with pytest.raises(BrokenBackendError):
                future.result(timeout=1)

    def test_rejects_nonpositive_lease_timeout(self):
        with pytest.raises(BackendError, match="lease_timeout"):
            WorkQueue(lease_timeout=0)


# ----------------------------------------------------------------------
# Remote fleet end-to-end: killed worker → lease requeue → completion.


class TestRemoteFleet:
    def test_killed_worker_unit_requeues_to_survivor(self):
        """A worker that leases a unit and dies loses the lease, not
        the work: the unit requeues on expiry and a live worker
        finishes the sweep with identical records."""
        spec = _spec("montage")
        reference = run_sweep(spec, jobs=1)
        backend = RemoteWorkerBackend(lease_timeout=0.5, worker_grace=30.0)
        survivor = None
        try:
            results = {}
            done = threading.Event()

            def sweep_thread():
                results["records"] = run_sweep(spec, backend=backend)
                done.set()

            runner = threading.Thread(target=sweep_thread, daemon=True)
            runner.start()

            # The doomed "worker" leases one unit over HTTP and vanishes
            # without completing it — exactly a mid-unit crash.
            deadline = time.monotonic() + 10
            leased = None
            while leased is None and time.monotonic() < deadline:
                reply = _post_json(
                    backend.coordinator_url + "/work/lease",
                    {"worker": "doomed"},
                )
                leased = reply.get("unit")
                if leased is None:
                    time.sleep(0.02)
            assert leased is not None, "no unit was ever enqueued"

            # Now the survivor shows up; the doomed worker's lease
            # expires and its unit goes to the survivor.
            survivor = WorkerLoop(
                backend.coordinator_url,
                worker_id="survivor",
                poll_interval=0.02,
            ).start()
            assert done.wait(timeout=60), "sweep never finished"
            assert results["records"] == reference
            assert backend.queue.stats()["requeued"] >= 1
        finally:
            if survivor is not None:
                survivor.stop()
            backend.close()

    def test_fleetless_remote_sweep_degrades_to_serial(self):
        """No worker ever shows up: past worker_grace the backend fails
        pending units and the dispatch loop finishes in-process — a
        remote sweep without a fleet degrades, it does not hang."""
        spec = _spec("montage")
        backend = RemoteWorkerBackend(lease_timeout=0.2, worker_grace=0.5)
        try:
            with pytest.warns(RuntimeWarning, match="broke mid-run"):
                records = run_sweep(spec, backend=backend)
            assert records == run_sweep(spec, jobs=1)
        finally:
            backend.close()

    def test_attachable_worker_recruitment(self):
        """`repro worker --listen` recruitment (`--workers URL`) end to
        end: the backend POSTs /attach, the worker polls back."""
        worker = WorkerServer(port=0, poll_interval=0.02).start()
        backend = None
        try:
            backend = RemoteWorkerBackend(
                workers=[worker.url], lease_timeout=30.0, worker_grace=60.0
            )
            assert backend.attached == [worker.worker_id]
            spec = _spec("montage")
            assert run_sweep(spec, backend=backend) == run_sweep(spec, jobs=1)
            assert worker.describe()["units_done"] >= 1
        finally:
            if backend is not None:
                backend.close()
            worker.close()

    def test_attach_is_idempotent_per_coordinator(self):
        worker = WorkerServer(port=0).start()
        try:
            assert worker.attach("http://127.0.0.1:1")["attached"]
            assert not worker.attach("http://127.0.0.1:1/")["attached"]
        finally:
            worker.close()

    def test_work_server_status_endpoint(self):
        queue = WorkQueue(lease_timeout=5.0)
        server = WorkServer(queue).start()
        try:
            with urllib.request.urlopen(server.url + "/status", timeout=5) as r:
                status = json.loads(r.read().decode("utf-8"))
            assert status["coordinator"] == "repro-work-server"
            assert status["work_queue"]["pending"] == 0
        finally:
            server.close()


# ----------------------------------------------------------------------
# Request framing: every HTTP host rejects a malformed Content-Length.


@pytest.fixture(params=["service", "coordinator", "worker"])
def post_endpoint(request, tmp_path):
    """``(url, path)`` of a POST route on each of the three HTTP hosts."""
    if request.param == "service":
        with ReproService(port=0, store=tmp_path / "s.db", linger=0.0) as svc:
            yield svc.url, "/evaluate"
        return
    if request.param == "coordinator":
        server = WorkServer(WorkQueue(lease_timeout=5.0)).start()
        path = "/work/lease"
    else:
        server = WorkerServer(port=0).start()
        path = "/attach"
    try:
        yield server.url, path
    finally:
        server.close()


@pytest.mark.parametrize("length", ["-1", "abc"])
def test_malformed_content_length_is_a_400(post_endpoint, length):
    """A negative or non-numeric length gets a 400 naming the header and
    a closed connection, never a hang, a 500 or a dropped socket."""
    url, path = post_endpoint
    parts = urllib.parse.urlsplit(url)
    address = (parts.hostname, parts.port)
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            f"Content-Length: {length}\r\n\r\n".encode("ascii")
        )
        # Reads to EOF: the server must close the connection, since the
        # body framing is unknown.
        with sock.makefile("rb") as stream:
            reply = stream.read()
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert "Content-Length" in json.loads(body)["error"]


def test_short_body_is_a_400(post_endpoint, monkeypatch):
    """A body shorter than its Content-Length gets a 400 and a closed
    connection once the body deadline passes; the handler thread is
    not held until the client hangs up."""
    monkeypatch.setattr(remote_mod, "BODY_TIMEOUT_S", 0.2)
    url, path = post_endpoint
    parts = urllib.parse.urlsplit(url)
    address = (parts.hostname, parts.port)
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            f"Content-Length: 100\r\n\r\n{{\"worker\": ".encode("ascii")
        )
        # The client keeps the connection open and sends nothing more.
        with sock.makefile("rb") as stream:
            reply = stream.read()
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert "Content-Length" in json.loads(body)["error"]


def test_body_deadline_spares_idle_keep_alive(tmp_path, monkeypatch):
    """The deadline covers the body read only: a keep-alive connection
    idle for longer than it still serves the next request."""
    monkeypatch.setattr(remote_mod, "BODY_TIMEOUT_S", 0.2)
    with ReproService(port=0, store=tmp_path / "s.db", linger=0.0) as svc:
        parts = urllib.parse.urlsplit(svc.url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)

        def lease():
            conn.request("POST", "/work/lease", body=json.dumps({"worker": "w"}))
            reply = conn.getresponse()
            return reply.status, json.loads(reply.read())

        try:
            assert lease() == (200, {"unit": None})
            time.sleep(0.4)  # idle past the body deadline
            assert lease() == (200, {"unit": None})
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Client retry policy: idempotent GETs retried, POSTs single-shot.


class _FlakyHandler(BaseHTTPRequestHandler):
    server_ref: ThreadingHTTPServer

    def log_message(self, fmt, *args):
        pass

    def _reply(self, status, payload):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 — http.server API
        counts = self.server_ref.counts
        counts["GET"] += 1
        if counts["GET"] <= self.server_ref.fail_first:
            self._reply(500, {"error": "mid-restart"})
        else:
            self._reply(200, {"ok": True})

    def do_POST(self):  # noqa: N802 — http.server API
        self.server_ref.counts["POST"] += 1
        self._reply(500, {"error": "mid-restart"})


@pytest.fixture()
def flaky_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    httpd.counts = {"GET": 0, "POST": 0}
    httpd.fail_first = 2
    httpd.RequestHandlerClass = type(
        "_BoundFlaky", (_FlakyHandler,), {"server_ref": httpd}
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield httpd, f"http://{host}:{port}"
    httpd.shutdown()
    thread.join(timeout=5)
    httpd.server_close()


class TestClientRetry:
    def test_idempotent_get_retries_through_5xx(self, flaky_server):
        httpd, url = flaky_server
        client = ServiceClient(url, retries=3, retry_backoff=0.01)
        assert client.status() == {"ok": True}
        assert httpd.counts["GET"] == 3  # two 500s, then success

    def test_get_gives_up_after_bounded_retries(self, flaky_server):
        httpd, url = flaky_server
        httpd.fail_first = 10**9
        client = ServiceClient(url, retries=2, retry_backoff=0.01)
        with pytest.raises(ServiceError, match="mid-restart"):
            client.status()
        assert httpd.counts["GET"] == 3  # 1 try + 2 retries, no more

    def test_post_is_never_retried(self, flaky_server):
        httpd, url = flaky_server
        client = ServiceClient(url, retries=5, retry_backoff=0.01)
        with pytest.raises(ServiceError, match="mid-restart"):
            client.clear_cache()
        assert httpd.counts["POST"] == 1  # single shot


# ----------------------------------------------------------------------
# Service coordination: serve --backend remote against a worker fleet.


class TestServiceRemoteBackend:
    def test_sweep_through_service_fleet(self):
        spec = _spec("genome", seed_policy="stable")
        reference = run_sweep(spec, jobs=1)
        with ReproService(
            backend="remote", linger=0.01, lease_timeout=30.0
        ) as svc:
            loops = [
                WorkerLoop(
                    svc.url, worker_id=f"svc-w{i}", poll_interval=0.02
                ).start()
                for i in range(2)
            ]
            try:
                client = ServiceClient(svc.url)
                client.wait_ready()
                reply = client.sweep(spec)
                assert reply.records == reference
                assert reply.computed == len(reference)
                # Second submission: answered by the durable store, the
                # fleet sees nothing new.
                completed = svc.work_queue.stats()["completed"]
                reply2 = client.sweep(spec)
                assert reply2.cached == len(reference)
                assert svc.work_queue.stats()["completed"] == completed
                status = client.status()
                assert status["backend"] == "remote"
                assert set(status["workers"]) == {"svc-w0", "svc-w1"}
            finally:
                for loop in loops:
                    loop.stop()

    def test_status_reports_inline_backend_by_default(self):
        with ReproService(linger=0.01) as svc:
            client = ServiceClient(svc.url)
            client.wait_ready()
            status = client.status()
            assert status["backend"] == "inline"
            assert status["work_queue"]["pending"] == 0
