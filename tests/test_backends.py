"""Execution backends: parity matrix, dispatch loop, work queue, fleet.

The backbone guarantee under test: **records are byte-identical across
every backend** — every seed is derived in the parent before
submission, so where a task runs can never change what it computes.
On top of that, the plumbing contracts: the shared dispatch loop's
broken-backend restart finishes only the *remaining* tasks (no
re-computation, no duplicated progress lines), the work queue requeues
a dead worker's leases, the JSON unit codec refuses what it cannot
check (a pickle, a result off its unit's cells) without settling the
unit, and the client retries idempotent reads only.
"""

from __future__ import annotations

import base64
import http.client
import json
import pickle
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.engine.backends import (
    BACKENDS,
    BackendTask,
    BackendUnavailable,
    BrokenBackendError,
    ExecutionBackend,
    JsonHandler,
    RemoteWorkerBackend,
    SerialBackend,
    WorkQueue,
    WorkServer,
    get_backend,
    run_tasks,
)
import repro.engine.backends.remote as remote_mod
from repro.engine.backends.remote import MAX_ATTEMPTS, _post_json
from repro.engine.backends.worker import WorkerLoop
from repro.engine.records import records_to_jsonl
from repro.engine.sweep import (
    SweepSpec,
    _derive_chunks,
    _run_chunk_task,
    error_from_json,
    error_to_json,
    result_from_json,
    run_specs,
    run_sweep,
    run_unit,
    unit_from_json,
    unit_to_json,
)
from repro.errors import BackendError, EvaluationError, ServiceError
from repro.makespan import profile as kernel_profile
from repro.service.client import ServiceClient
from repro.service.server import ReproService
from repro.workloads import load_source

DIAMOND = Path(__file__).resolve().parent.parent / "examples" / "diamond.dax"

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
#: approximation, content-policy Monte Carlo (position-independent
#: sampling seeds — so records cannot depend on how the grid was
#: chunked across workers), and an external workflow file, whose body
#: crosses the subprocess and remote wires as JSON.
PARITY_SPECS = [
    _spec("montage", "pathapprox"),
    _spec("genome", "normal"),
    _spec(
        "genome",
        "montecarlo",
        eval_seed_policy="content",
        evaluator_options={"trials": 200},
    ),
    SweepSpec.from_source(
        load_source(DIAMOND),
        processors=(2, 3),
        pfails=(1e-3,),
        ccrs=(0.01, 1.0),
        name="parity[diamond.dax/pathapprox]",
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
        # loops) serves every parity spec back to back.
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
        # A spec that constructs but fails at evaluation: the evaluator
        # refuses k=-3 (an unknown method is refused by SweepSpec itself).
        bad = _spec("montage", evaluator_options={"k": -3})
        reference = run_sweep(good, jobs=1)
        # On subprocess the error crosses the wire as {type, message}
        # and comes back as the same repro.errors class.
        for backend in ("process", "subprocess"):
            results = run_specs(
                [good, bad], jobs=2, backend=backend, return_exceptions=True
            )
            assert results[0] == reference, backend
            assert isinstance(results[1], EvaluationError), backend


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

    @pytest.mark.parametrize("name", ["subprocess", "remote"])
    def test_wire_backends_refuse_other_tasks(self, name):
        """Only the engine's chunk unit has a wire form: any other task
        is refused at submit, before anything leaves the process."""
        with get_backend(name, jobs=1) as backend:
            with pytest.raises(BackendError, match="only sweep chunk units"):
                backend.submit(BackendTask(fn=_dispatch_task, args=(1,)))


# ----------------------------------------------------------------------
# JSON unit codec: units, results and errors are data.


def _unit(spec: SweepSpec, chunk=None, profile: bool = False) -> dict:
    """The JSON unit of ``chunk`` (default: ``spec``'s first group)."""
    chunk = chunk or _derive_chunks(spec, None)[0]
    return unit_to_json(
        BackendTask(fn=_run_chunk_task, args=(spec, chunk)), profile
    )


@pytest.fixture(scope="module")
def unit_and_result():
    """A real unit and the JSON result a worker computes for it."""
    unit = _unit(_spec("montage"))
    return unit, run_unit(unit)


class TestUnitCodec:
    @pytest.mark.parametrize("spec", PARITY_SPECS, ids=lambda s: s.name)
    def test_unit_round_trips_through_json(self, spec):
        for chunk in _derive_chunks(spec, 1):
            unit = json.loads(json.dumps(_unit(spec, chunk, profile=True)))
            assert unit_from_json(unit) == (spec, chunk, True)

    def test_result_round_trip_matches_direct_run(self, unit_and_result):
        unit, result = unit_and_result
        records, snapshot = result_from_json(
            json.loads(json.dumps(result)), unit
        )
        assert records == run_sweep(_spec("montage"), jobs=1)
        assert snapshot is None

    def test_profile_counters_cross_the_subprocess_wire(self):
        """Each child's snapshot comes back as JSON and merges into the
        parent collector: the op counts equal an in-process run over
        the same (one-cell) chunks."""
        spec = _spec("montage")

        def counts(**kwargs):
            prof = kernel_profile.enable()
            try:
                run_sweep(spec, **kwargs)
            finally:
                kernel_profile.disable()
            return {
                op: (e["calls"], e["rows"], e["scalar_rows"])
                for op, e in prof.counters.items()
            }

        wire = counts(jobs=2, backend="subprocess")  # auto-chunked to 1 cell
        assert wire and wire == counts(jobs=1, chunk_cells=1)

    def test_tampered_workflow_body_is_refused(self):
        unit = _unit(PARITY_SPECS[-1])
        unit["spec"]["source"]["workflow"]["tasks"][0]["weight"] += 1.0
        with pytest.raises(BackendError, match="does not match its hash"):
            unit_from_json(unit)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda u: u["spec"].pop("method"),
            lambda u: u["spec"].update(extra=1),
            lambda u: u["spec"].update(family=["montage"]),
            lambda u: u["spec"].update(pfails=[2.0]),
            lambda u: u["chunk"].update(processors=4),
            lambda u: u["chunk"]["cells"][0].__setitem__(0, 0.5),
            lambda u: u["chunk"].update(cells=[]),
            lambda u: u["chunk"].update(wf_seed="seed"),
            lambda u: u.update(profile="yes"),
            lambda u: u.pop("chunk"),
            lambda u: u["spec"].update(save_final_outputs="false"),
            lambda u: u["spec"].update(pfails=[False]),
            lambda u: u["spec"].update(bandwidth=True),
            lambda u: u["spec"].update(linearizer="nope"),
            lambda u: u["spec"].update(method="bogus"),
        ],
        ids=[
            "missing-field", "extra-field", "non-str-family", "bad-pfail",
            "off-grid-processors", "off-grid-pfail", "no-cells",
            "non-int-seed", "non-bool-profile", "no-chunk",
            "str-bool", "bool-pfail", "bool-bandwidth", "unknown-linearizer",
            "unknown-method",
        ],
    )
    def test_malformed_unit_is_a_backend_error(self, mutate):
        unit = _unit(_spec("montage"))
        mutate(unit)
        with pytest.raises(BackendError, match="malformed work unit"):
            unit_from_json(unit)

    def test_errors_map_onto_repro_errors(self):
        exc = error_from_json(error_to_json(EvaluationError("bad method")))
        assert type(exc) is EvaluationError and str(exc) == "bad method"
        other = error_from_json(error_to_json(ZeroDivisionError("x")))
        assert type(other) is BackendError
        assert str(other) == "ZeroDivisionError: x"
        with pytest.raises(BackendError, match="malformed work unit error"):
            error_from_json({"type": "EvaluationError"})


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
    def test_lease_complete_roundtrip(self, unit_and_result):
        unit, result = unit_and_result
        queue = WorkQueue(lease_timeout=30.0)
        future = queue.submit(unit)
        leased = queue.lease("w1")
        assert leased is not None
        unit_id, payload = leased
        assert payload == unit
        assert queue.complete(unit_id, "w1", result)
        assert future.result(timeout=1) == result_from_json(result, unit)
        stats = queue.stats()
        assert stats["completed"] == 1 and stats["pending"] == 0
        assert queue.workers()["w1"]["units_done"] == 1

    def test_duplicate_completion_is_ignored(self, unit_and_result):
        unit, result = unit_and_result
        queue = WorkQueue(lease_timeout=30.0)
        future = queue.submit(unit)
        unit_id, _ = queue.lease("w1")
        assert queue.complete(unit_id, "w1", result)
        # A late duplicate (the lease expired and two workers raced) is
        # acknowledged as stale, not an error — first completion wins.
        assert not queue.complete(unit_id, "w2", result)
        assert future.result(timeout=1) == result_from_json(result, unit)

    def test_expired_lease_is_requeued_to_next_worker(self, unit_and_result):
        unit, _ = unit_and_result
        queue = WorkQueue(lease_timeout=0.05)
        future = queue.submit(unit)
        first = queue.lease("dead-worker")
        assert first is not None
        assert queue.lease("live-worker") is None  # still leased
        time.sleep(0.08)
        second = queue.lease("live-worker")  # lease() reaps lazily
        assert second is not None and second[0] == first[0]
        assert queue.stats()["requeued"] == 1
        assert not future.done()

    def test_unit_abandoned_after_max_attempts(self, unit_and_result):
        unit, _ = unit_and_result
        queue = WorkQueue(lease_timeout=0.01)
        future = queue.submit(unit)
        for _ in range(MAX_ATTEMPTS):
            leased = queue.lease("crashy")
            assert leased is not None
            time.sleep(0.02)  # let every lease expire
        queue.reap()
        with pytest.raises(BackendError, match="abandoned"):
            future.result(timeout=1)

    def test_task_failure_resolves_unit(self, unit_and_result):
        unit, _ = unit_and_result
        queue = WorkQueue(lease_timeout=30.0)
        future = queue.submit(unit)
        unit_id, _ = queue.lease("w1")
        assert queue.fail(
            unit_id, "w1", {"type": "BackendError", "message": "task exploded"}
        )
        with pytest.raises(BackendError, match="task exploded"):
            future.result(timeout=1)

    def test_fail_pending_settles_everything(self, unit_and_result):
        unit, _ = unit_and_result
        queue = WorkQueue(lease_timeout=30.0)
        futures = [queue.submit(unit) for _ in range(3)]
        assert queue.fail_pending(BrokenBackendError("fleet gone")) == 3
        for future in futures:
            with pytest.raises(BrokenBackendError):
                future.result(timeout=1)

    def test_rejects_nonpositive_lease_timeout(self):
        with pytest.raises(BackendError, match="lease_timeout"):
            WorkQueue(lease_timeout=0)

    def test_settled_units_are_dropped(self, unit_and_result):
        """However a unit settles — completed, failed, abandoned, or
        failed by fail_pending — the queue stops tracking it, so a
        long-lived coordinator's lease/reap/stats walks stay small."""
        unit, result = unit_and_result
        queue = WorkQueue(lease_timeout=0.05)
        futures = [queue.submit(unit) for _ in range(3)]
        done_id, _ = queue.lease("w")
        assert queue.complete(done_id, "w", result)
        failed_id, _ = queue.lease("w")
        error = {"type": "EvaluationError", "message": "bad cell"}
        assert queue.fail(failed_id, "w", error)
        for _ in range(MAX_ATTEMPTS):  # the third unit: every lease expires
            assert queue.lease("crashy") is not None
            time.sleep(0.06)
        queue.reap()
        with pytest.raises(BackendError, match="abandoned"):
            futures[2].result(timeout=1)
        futures.append(queue.submit(unit))
        assert queue.fail_pending(BrokenBackendError("fleet gone")) == 1
        assert all(future.done() for future in futures)
        assert queue._units == {}
        assert queue.stats()["pending"] == queue.stats()["leased"] == 0

    def test_malformed_failure_is_refused_and_requeued(self, unit_and_result):
        unit, _ = unit_and_result
        queue = WorkQueue(lease_timeout=30.0)
        future = queue.submit(unit)
        unit_id, _ = queue.lease("w1")
        with pytest.raises(BackendError, match="refused"):
            queue.fail(unit_id, "w1", "task exploded")  # not {type, message}
        assert not future.done()
        assert queue.stats()["requeued"] == 1
        assert queue.lease("w2")[0] == unit_id

    def test_garbage_returning_worker_unit_abandoned(self, unit_and_result):
        """Every refused completion requeues the unit; after
        MAX_ATTEMPTS leases it is abandoned, as for expired leases."""
        unit, _ = unit_and_result
        queue = WorkQueue(lease_timeout=30.0)
        future = queue.submit(unit)
        for _ in range(MAX_ATTEMPTS):
            unit_id, _ = queue.lease("garbler")
            assert not future.done()
            with pytest.raises(BackendError, match="refused"):
                queue.complete(unit_id, "garbler", {"records": []})
        with pytest.raises(BackendError, match="abandoned after"):
            future.result(timeout=1)
        assert queue.lease("garbler") is None

    def test_late_completion_of_dropped_unit_counts_nothing(
        self, unit_and_result
    ):
        unit, result = unit_and_result
        queue = WorkQueue(lease_timeout=30.0)
        queue.submit(unit)
        queue.register("late")
        unit_id, _ = queue.lease("w1")
        assert queue.complete(unit_id, "w1", result)
        assert not queue.complete(unit_id, "late", result)
        assert queue.workers()["late"]["units_done"] == 0
        assert queue.stats()["completed"] == 1


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
# Hostile messages: a client that can lease a unit may post anything as
# its completion.  Nothing it sends runs as code, and only the unit's
# own result settles it; everything else is a 400 and a requeue.

#: The grid the hostile-message tests sweep (stable seeds, so the
#: service's per-cell answers equal run_sweep's records).
HOSTILE_SPEC = _spec("montage", seed_policy="stable")


class _Plant:
    """A pickle whose loading creates ``path``: proof that it ran."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def __reduce__(self):
        return (Path.touch, (self.path,))


def _post_status(url: str, payload) -> tuple:
    """POST ``payload`` (JSON, or raw ``bytes``); returns ``(status,
    reply)`` for any status."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=payload, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _with_first_record(result: dict, **fields) -> dict:
    records = [{**result["records"][0], **fields}, *result["records"][1:]]
    return {**result, "records": records}


#: Completions that are JSON but not the leased unit's result.
BAD_RESULTS = {
    "not-a-result": lambda r: {"records": "nope", "profile": None},
    "a-list": lambda r: [r],
    "no-profile": lambda r: {"records": r["records"]},
    "bad-profile": lambda r: {**r, "profile": {"ops": {"max": {"calls": 1}}}},
    "one-record-short": lambda r: {**r, "records": r["records"][:-1]},
    "one-record-extra": lambda r: {**r, "records": r["records"] * 2},
    "wrong-processors": lambda r: _with_first_record(r, processors=99),
    "wrong-pfail": lambda r: _with_first_record(r, pfail=0.5),
    "wrong-ccr": lambda r: _with_first_record(r, ccr=123.0),
}


@pytest.fixture(params=["work-server", "service"])
def coordinator_host(request):
    """``(url, queue, sweep)`` for each coordinator host: ``sweep()``
    runs :data:`HOSTILE_SPEC` through that host's remote backend."""
    if request.param == "work-server":
        backend = RemoteWorkerBackend(lease_timeout=30.0, worker_grace=60.0)
        try:
            yield (
                backend.coordinator_url,
                backend.queue,
                lambda: run_sweep(HOSTILE_SPEC, backend=backend),
            )
        finally:
            backend.close()
        return
    with ReproService(backend="remote", linger=0.01, lease_timeout=30.0) as svc:
        client = ServiceClient(svc.url)
        yield svc.url, svc.work_queue, lambda: client.sweep(HOSTILE_SPEC).records


def _refused_then_finished(host, completion) -> list:
    """Lease one unit of a running sweep as ``mallory``, post
    ``completion(lease_reply)`` as its completion under another name,
    and check the refusal: a 400 and the unit requeued.  An honest
    worker then finishes the sweep; returns its records."""
    url, queue, sweep = host
    results = {}
    runner = threading.Thread(
        target=lambda: results.update(records=sweep()), daemon=True
    )
    runner.start()
    deadline = time.monotonic() + 30
    leased = {}
    while not leased.get("unit") and time.monotonic() < deadline:
        leased = _post_json(url + "/work/lease", {"worker": "mallory"})
        time.sleep(0.02)
    assert leased.get("unit"), "no unit was ever enqueued"
    status, reply = _post_status(
        url + "/work/complete",
        {"unit": leased["unit"], "worker": "eve", **completion(leased)},
    )
    assert status == 400, reply
    assert "refused" in reply["error"]
    assert queue.stats()["requeued"] == 1
    honest = WorkerLoop(url, worker_id="honest", poll_interval=0.02).start()
    try:
        runner.join(timeout=60)
    finally:
        honest.stop()
    assert "records" in results, "the sweep never finished"
    return results["records"]


class TestHostileMessages:
    def test_pickle_completion_runs_nothing(self, coordinator_host, tmp_path):
        """The pickle a coordinator used to load: a 400, no file, and
        the unit requeued to an honest worker, records unchanged."""
        planted = tmp_path / "planted"
        blob = base64.b64encode(pickle.dumps(_Plant(planted))).decode("ascii")
        records = _refused_then_finished(
            coordinator_host, lambda leased: {"payload": blob, "result": blob}
        )
        assert not planted.exists()
        assert records == run_sweep(HOSTILE_SPEC, jobs=1)

    @pytest.mark.parametrize("case", sorted(BAD_RESULTS))
    def test_result_off_its_unit_is_refused(self, case):
        """A completion that is JSON but not the unit's result — wrong
        shape, wrong record count, a record off its cell — is a 400
        and a requeue, never a failed unit (or sweep)."""
        backend = RemoteWorkerBackend(lease_timeout=30.0, worker_grace=60.0)
        host = (
            backend.coordinator_url,
            backend.queue,
            lambda: run_sweep(HOSTILE_SPEC, backend=backend),
        )
        try:
            records = _refused_then_finished(
                host,
                lambda leased: {
                    "result": BAD_RESULTS[case](run_unit(leased["payload"]))
                },
            )
        finally:
            backend.close()
        assert records == run_sweep(HOSTILE_SPEC, jobs=1)

    def test_worker_reports_malformed_unit_and_keeps_polling(
        self, unit_and_result
    ):
        """Handed a unit that does not decode, a worker fails it with a
        one-line BackendError through /work/fail, then serves the next
        unit."""
        unit, result = unit_and_result
        queue = WorkQueue(lease_timeout=30.0)
        bad = queue.submit({"spec": {"family": "montage"}, "profile": False})
        good = queue.submit(unit)
        server = WorkServer(queue).start()
        worker = WorkerLoop(server.url, worker_id="w", poll_interval=0.02)
        worker.start()
        try:
            with pytest.raises(BackendError, match="malformed work unit") as info:
                bad.result(timeout=30)
            assert "\n" not in str(info.value)
            assert good.result(timeout=60) == result_from_json(result, unit)
            assert (worker.units_failed, worker.units_done) == (1, 1)
        finally:
            worker.stop()
            server.close()


# ----------------------------------------------------------------------
# Request framing: every HTTP host rejects a malformed Content-Length.


@pytest.fixture(params=["service", "coordinator"])
def post_endpoint(request, tmp_path):
    """``(url, path)`` of a POST route on each of the two HTTP hosts."""
    if request.param == "service":
        with ReproService(port=0, store=tmp_path / "s.db", linger=0.0) as svc:
            yield svc.url, "/evaluate"
        return
    server = WorkServer(WorkQueue(lease_timeout=5.0)).start()
    try:
        yield server.url, "/work/lease"
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


def test_unknown_path_is_a_404(post_endpoint):
    url, _ = post_endpoint
    status, reply = _post_status(url + "/no-such-route", {})
    assert status == 404 and "unknown path" in reply["error"]


def test_json_handler_maps_errors_to_statuses():
    """The one handler base both hosts share: a library error is a 400,
    any other exception a 500, and the server keeps serving."""

    def refuse(handler):
        raise ServiceError("bad request")

    def crash(handler):
        raise ZeroDivisionError("boom")

    routes = {
        "/refuse": refuse,
        "/crash": crash,
        "/ok": lambda handler: {"ok": True},
    }
    bound = type("_Bound", (JsonHandler,), {"post_routes": routes})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), bound)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    url = "http://%s:%d" % httpd.server_address[:2]
    try:
        assert _post_status(url + "/refuse", {}) == (
            400, {"error": "bad request"}
        )
        assert _post_status(url + "/crash", {}) == (
            500, {"error": "internal error: boom"}
        )
        assert _post_status(url + "/ok", {}) == (200, {"ok": True})
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


def test_too_deeply_nested_body_is_a_400(post_endpoint):
    """JSON nested past the parser's recursion limit is a bad request,
    not an internal error."""
    url, path = post_endpoint
    body = '{"worker": ' + "[" * 100_000 + "]" * 100_000 + "}"
    status, reply = _post_status(url + path, body.encode("ascii"))
    assert status == 400
    assert "not valid JSON" in reply["error"]


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
