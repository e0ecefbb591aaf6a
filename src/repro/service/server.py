"""The evaluation service's HTTP front end (stdlib only).

A :class:`ReproService` owns a durable :class:`ResultStore`, a
coalescing :class:`BatchScheduler` and a ``ThreadingHTTPServer`` that
speaks a small JSON API:

============  ======  ====================================================
path          method  semantics
============  ======  ====================================================
/evaluate     POST    one cell request (:func:`request_from_dict` fields);
                      replies with the record, its fingerprint, and
                      ``cached`` (true when served from the store).
                      Concurrent requests are coalesced: each handler
                      thread submits to the shared scheduler, which
                      batches everything arriving within the linger
                      window and merges identical fingerprints.  A
                      ``workflow`` field names a registered external
                      workflow by content hash instead of a family.
/register     POST    load an external workflow source:
                      ``{"workflow": <repro-workflow-v1 JSON>,
                      "label": ...}``; replies with the canonical
                      content hash (idempotent — re-registering the
                      same content returns the same hash), the
                      content-derived family string and the task count.
                      Sources are persisted in the store's ``sources``
                      table and rehydrated on service start, so
                      ``/sweep``-by-hash survives restarts without a
                      re-upload.
/sources      GET     the registered external workflow sources
                      (hash, family, ntasks, label per entry).
/sweep        POST    a whole grid (SweepSpec-shaped payload; a
                      ``workflow`` content hash may replace
                      family/sizes for a registered source); expanded
                      to per-cell requests, answered from the store
                      where possible, the rest dispatched as coalesced
                      batches; replies with records in grid order.
                      Every cell follows the per-cell 1×1 contract.
                      Under the ``"stable"`` seed policy (the
                      endpoint's default) that makes the reply equal to
                      ``run_sweep`` of the same spec bit for bit for
                      closed-form methods.  Under ``"spawn"`` the
                      equality only holds for grids with a single
                      (size, processors) group: ``run_sweep`` derives
                      spawn seeds positionally across groups, while the
                      service answers each cell from its own 1×1 grid —
                      multi-group spawn replies carry a ``note`` field
                      saying so.  Positional-policy Monte Carlo cells
                      use per-cell sampling seeds instead of a
                      monolithic grid's positional ones (same
                      estimator, different sampling stream); under
                      ``eval_seed_policy: "content"`` Monte Carlo seeds
                      are content-derived, so the reply equals
                      ``run_sweep`` of the same content-policy spec
                      exactly like the closed-form methods.
/status       GET     uptime, version, store + scheduler counters
                      (including the coalesced batch sizes dispatched
                      through the engine's batched evaluation core), the
                      execution backend, and the work queue's state —
                      registered workers included.
/cache        GET     store detail (path, schema, entries, hit rates).
/cache        POST    ``{"action": "clear"}`` empties store + pipeline.
============  ======  ====================================================

The coordinator endpoints of the remote execution backend —
``POST /work/lease``, ``/work/complete``, ``/work/fail`` and
``/workers/register`` (see :mod:`repro.engine.backends.remote`) — are
mounted on the same server, so ``repro serve --backend remote`` turns
the service into the coordinator of a ``repro worker`` fleet: dispatched
batches are enqueued as leased work units, workers poll them over HTTP,
and a worker that dies mid-unit has its lease expire and the unit
requeued.  The durable store sits in front of the queue, so answered
fingerprints never reach the fleet at all.

Errors come back as ``{"error": ...}`` with status 400 (bad request /
library error), 404 (unknown path) or 500 (anything else), through the
:class:`~repro.engine.backends.remote.JsonHandler` base the standalone
coordinator shares.  Start a blocking server with
:func:`serve`, or an in-process background one with
``ReproService(...).start()`` (used by the tests and the quickstart).
"""

from __future__ import annotations

import threading
import time
from dataclasses import fields
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro import __version__
from repro.engine.backends import (
    BACKENDS,
    JsonHandler,
    RemoteWorkerBackend,
    WorkQueue,
    queue_routes,
    read_json_body,
)
from repro.engine.records import record_to_dict
from repro.engine.sweep import SweepSpec
from repro.errors import ServiceError
from repro.engine.sweep import EVAL_SEED_POLICIES
from repro.makespan import native as native_kernels
from repro.makespan import profile as kernel_profile
from repro.service.fingerprint import (
    grid_sensitive,
    request_from_dict,
    requests_from_spec,
)
from repro.service.scheduler import BatchScheduler
from repro.service.store import SCHEMA_VERSION, ResultStore
from repro.workloads import FileSource, SourceRegistry

__all__ = ["ReproService", "serve", "sweep_spec_from_payload"]


def sweep_spec_from_payload(
    payload: Dict[str, Any], registry: Optional[SourceRegistry] = None
) -> SweepSpec:
    """Build a :class:`SweepSpec` from a ``/sweep`` JSON payload.

    The accepted fields are :class:`SweepSpec`'s own, with a
    ``workflow`` content hash (resolved through ``registry``) in place
    of ``source``; the spec checks every value.  ``processors`` may be
    a mapping (size → counts, JSON string keys accepted) or a flat list
    applied to every size, mirroring the CLI.  A ``workflow`` replaces
    ``family``/``sizes``: the grid's single size is the file's task
    count and ``processors`` must be a flat list of counts.
    """
    payload = dict(payload)
    accepted = {f.name for f in fields(SweepSpec)} - {"source"} | {"workflow"}
    unknown = sorted(set(payload) - accepted)
    if unknown:
        raise ServiceError(
            f"unknown sweep field(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {sorted(accepted)}"
        )
    workflow = payload.pop("workflow", None)
    if workflow is not None:
        if registry is None:
            raise ServiceError(
                "sweep payload names a workflow source but no source "
                "registry is available"
            )
        source = payload["source"] = registry.require(str(workflow))
        payload.setdefault("family", source.spec_family)
        payload.setdefault("sizes", [source.workflow.n_tasks])
    for name in ("family", "sizes", "processors", "pfails", "ccrs"):
        if name not in payload:
            raise ServiceError(f"sweep payload missing field {name!r}")
    processors = payload["processors"]
    if not isinstance(processors, dict):
        # Flat list → the same counts for every size (the spec checks
        # the counts themselves).
        try:
            payload["processors"] = {n: processors for n in payload["sizes"]}
        except TypeError as exc:
            raise ServiceError(f"bad sweep sizes/processors: {exc}") from None
    elif workflow is not None:
        raise ServiceError(
            "a workflow-sourced sweep takes a flat processors list "
            "(its single size is the file's task count)"
        )
    payload.setdefault("seed_policy", "stable")
    return SweepSpec(**payload)


class _Handler(JsonHandler):
    """The service's JSON routes.  The owning service and the route
    tables are class attributes of the subclass each
    :class:`ReproService` binds (built once, in its constructor)."""

    service: "ReproService"

    def log_message(self, fmt: str, *args: Any) -> None:
        log = self.service.log
        if log is not None:
            log(f"{self.address_string()} {fmt % args}")

    # -- routes --------------------------------------------------------

    def _post_evaluate(self) -> Dict[str, Any]:
        payload = read_json_body(self)
        payload.setdefault(
            "eval_seed_policy", self.service.default_eval_seed_policy
        )
        request = request_from_dict(payload)
        t0 = time.perf_counter()
        outcome = self.service.scheduler.submit(request).result()
        return {
            "fingerprint": outcome.fingerprint,
            "cached": outcome.cached,
            "wall_time_s": time.perf_counter() - t0,
            "record": record_to_dict(outcome.record),
        }

    def _post_register(self) -> Dict[str, Any]:
        payload = read_json_body(self)
        body = payload.get("workflow")
        if not isinstance(body, dict):
            raise ServiceError(
                "register payload must carry a 'workflow' object "
                "(the repro-workflow-v1 JSON serialization, see "
                "repro.generators.serialization.workflow_to_json)"
            )
        from repro.generators.serialization import workflow_from_json

        wf = workflow_from_json(body)
        label = payload.get("label")
        source = FileSource(wf, label=str(label) if label is not None else None)
        known = source.content_hash in self.service.registry
        self.service.registry.register(source)
        # Persist next to the results: a restarted service rehydrates
        # its registry from the store, so /sweep-by-hash keeps working
        # without a re-upload.
        self.service.store.save_source(source)
        return {
            "workflow": source.content_hash,
            "family": source.spec_family,
            "ntasks": source.workflow.n_tasks,
            "label": source.label,
            "known": known,
        }

    def _get_sources(self) -> Dict[str, Any]:
        return {"sources": self.service.registry.describe()}

    def _post_sweep(self) -> Dict[str, Any]:
        payload = read_json_body(self)
        payload.setdefault(
            "eval_seed_policy", self.service.default_eval_seed_policy
        )
        spec = sweep_spec_from_payload(payload, self.service.registry)
        requests = requests_from_spec(spec)
        t0 = time.perf_counter()
        outcomes = self.service.scheduler.evaluate_many(requests)
        payload = {
            "n_cells": len(outcomes),
            "cached": sum(o.cached for o in outcomes),
            "computed": sum(not o.cached for o in outcomes),
            "wall_time_s": time.perf_counter() - t0,
            "records": [record_to_dict(o.record) for o in outcomes],
        }
        groups = sum(len(spec.processors[n]) for n in spec.sizes)
        if (
            spec.seed_policy == "spawn"
            and groups > 1
            and not grid_sensitive(spec.method, spec.eval_seed_policy)
        ):
            # (Positional Monte Carlo gets no note: its per-cell
            # sampling seeds never match a monolithic grid's — see the
            # module docstring.  Content-policy Monte Carlo behaves
            # like the closed-form methods, caveat included.)
            payload["note"] = (
                "spawn seed policy over multiple (size, processors) "
                "groups: cells are answered per the 1×1 contract, so "
                "workflow/schedule seeds differ from a monolithic "
                "run_sweep of this grid (its spawn seeds are "
                "positional); use seed_policy 'stable' for bit-identical "
                "numbers"
            )
        return payload

    def _get_status(self) -> Dict[str, Any]:
        svc = self.service
        store_stats = svc.store.stats()
        sched = svc.scheduler.stats
        return {
            "version": __version__,
            "uptime_s": time.time() - svc.started_at,
            "sources": len(svc.registry),
            "eval_seed_policy": svc.default_eval_seed_policy,
            "store": {
                "path": svc.store.path,
                "entries": store_stats.entries,
                "hits": store_stats.hits,
                "misses": store_stats.misses,
                "hit_rate": store_stats.hit_rate,
            },
            "scheduler": {
                "submitted": sched.submitted,
                "deduped": sched.deduped,
                "store_hits": sched.store_hits,
                "computed_cells": sched.computed_cells,
                "batches": sched.batches,
                "batch_size_max": sched.batch_size_max,
                "batch_size_mean": sched.batch_size_mean,
                "last_batch_sizes": list(sched.last_batch_sizes),
            },
            "backend": svc.backend_name,
            # Which distribution-kernel backend serves this process
            # (compiled native vs pure-python reference) and why.
            "kernels": native_kernels.status(),
            "work_queue": svc.work_queue.stats(),
            "workers": svc.work_queue.workers(),
            # Present only while kernel profiling is live (serve
            # --profile, or an embedding process calling enable()).
            "kernel_profile": kernel_profile.snapshot(),
        }

    def _get_cache(self) -> Dict[str, Any]:
        svc = self.service
        stats = svc.store.stats()
        return {
            "path": svc.store.path,
            "schema_version": SCHEMA_VERSION,
            "entries": stats.entries,
            "session_hits": stats.hits,
            "session_misses": stats.misses,
            "session_hit_rate": stats.hit_rate,
            "total_hits": stats.total_hits,
        }

    def _post_cache(self) -> Dict[str, Any]:
        payload = read_json_body(self)
        action = payload.get("action")
        if action != "clear":
            raise ServiceError(
                f"unknown cache action {action!r}; accepted: 'clear'"
            )
        self.service.store.clear()
        self.service.scheduler.reset_pipeline()
        return {"cleared": True}


class ReproService:
    """Store + scheduler + HTTP server, wired together.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`/:attr:`url`).  ``store`` accepts an existing
    :class:`ResultStore`, a path, or ``None`` for an in-memory store.
    Use as a context manager, or :meth:`start`/:meth:`close`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Union[ResultStore, str, Path, None] = None,
        jobs: int = 1,
        linger: float = 0.05,
        log: Optional[Callable[[str], None]] = None,
        eval_seed_policy: str = "positional",
        profile: bool = False,
        backend: Optional[str] = None,
        lease_timeout: float = 30.0,
        worker_grace: float = 60.0,
    ) -> None:
        if eval_seed_policy not in EVAL_SEED_POLICIES:
            raise ServiceError(
                f"unknown eval-seed policy {eval_seed_policy!r}; "
                f"choose from {list(EVAL_SEED_POLICIES)}"
            )
        if backend is not None and backend not in BACKENDS:
            raise ServiceError(
                f"unknown execution backend {backend!r}; "
                f"choose from {list(BACKENDS)}"
            )
        #: Kernel profiling collectors are process-local, but worker
        #: processes profile themselves and ship snapshots back through
        #: the sweep executor, so profiling works at any ``jobs``;
        #: ``/status`` carries the live ``kernel_profile`` snapshot.
        self.profiling = bool(profile)
        if self.profiling:
            kernel_profile.enable()
        #: Policy applied to /evaluate and /sweep payloads that do not
        #: name one themselves (a payload's explicit field always wins).
        self.default_eval_seed_policy = eval_seed_policy
        if isinstance(store, ResultStore):
            self.store = store
            self._owns_store = False
        else:
            self.store = ResultStore(store if store is not None else ":memory:")
            self._owns_store = True
        #: External workflow sources (``POST /register`` loads them in
        #: and persists them to the store's ``sources`` table; on
        #: construction the registry is rehydrated from the store, so a
        #: restarted service keeps answering by content hash without a
        #: re-upload — re-registering stays idempotent either way).
        self.registry = SourceRegistry()
        for source in self.store.load_sources():
            self.registry.register(source)
        self.scheduler = BatchScheduler(
            self.store, jobs=jobs, linger=linger, registry=self.registry
        )
        self.log = log
        self.started_at = time.time()
        #: The remote backend's work queue.  Always constructed — its
        #: coordinator endpoints are always mounted, so a fleet can
        #: register/poll regardless of the dispatch backend — but only
        #: ``backend="remote"`` enqueues work units on it.
        self.work_queue = WorkQueue(lease_timeout=lease_timeout)
        self.backend_name = backend or (
            "process" if jobs not in (None, 1) else "inline"
        )
        routes = {
            "get_routes": {
                "/status": _Handler._get_status,
                "/cache": _Handler._get_cache,
                "/sources": _Handler._get_sources,
            },
            "post_routes": {
                "/evaluate": _Handler._post_evaluate,
                "/sweep": _Handler._post_sweep,
                "/cache": _Handler._post_cache,
                "/register": _Handler._post_register,
                # The remote backend's coordinator endpoints: the table
                # the standalone WorkServer mounts, so the wire protocol
                # cannot drift between the two hosts.
                **queue_routes(self.work_queue),
            },
        }
        handler = type(
            "_BoundHandler", (_Handler,), {"service": self, **routes}
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        #: The long-lived backend instance owned by the service (only
        #: the remote fleet needs one: its queue and monitor must span
        #: batches; the local backends are built per dispatch).
        self._backend_obj: Optional[RemoteWorkerBackend] = None
        if backend == "remote":
            self._backend_obj = RemoteWorkerBackend(
                queue=self.work_queue,
                coordinator_url=self.url,
                worker_grace=worker_grace,
            )
            self.scheduler.backend = self._backend_obj
        elif backend is not None:
            self.scheduler.backend = backend
        # Whether a serve loop was (or is being) entered: shutdown()
        # blocks forever on a server whose serve_forever never ran, so
        # close() must skip it for a constructed-but-never-started
        # service (e.g. teardown on an error path before start()).
        self._serving = False

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ReproService":
        """Serve in a daemon thread (returns once the socket is live)."""
        self.scheduler.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        self._serving = True
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (blocks until shutdown)."""
        self.scheduler.start()
        self._serving = True
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover — interactive only
            pass
        finally:
            self.close()

    def close(self) -> None:
        if self._serving:
            # Bounded: shutdown() blocks on an event only a running
            # serve loop sets, and an exception delivered between
            # `_serving = True` and the loop's first iteration (e.g.
            # Ctrl-C in the blocking `repro serve` path) would deadlock
            # an unbounded call.
            waiter = threading.Thread(
                target=self._httpd.shutdown, daemon=True
            )
            waiter.start()
            waiter.join(timeout=5.0)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.scheduler.stop()
        if self._backend_obj is not None:
            self._backend_obj.close()
            self._backend_obj = None
        if self.profiling:
            kernel_profile.disable()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    store: Union[str, Path, None] = None,
    jobs: int = 1,
    linger: float = 0.05,
    log: Optional[Callable[[str], None]] = print,
    eval_seed_policy: str = "positional",
    profile: bool = False,
    backend: Optional[str] = None,
    lease_timeout: float = 30.0,
    worker_grace: float = 60.0,
) -> None:
    """Run a blocking evaluation service (the ``repro serve`` command)."""
    service = ReproService(
        host=host, port=port, store=store, jobs=jobs, linger=linger, log=log,
        eval_seed_policy=eval_seed_policy, profile=profile,
        backend=backend, lease_timeout=lease_timeout,
        worker_grace=worker_grace,
    )
    if log is not None:
        log(
            f"repro service v{__version__} listening on {service.url} "
            f"(store: {service.store.path}, jobs={jobs}, linger={linger}s"
            + f", backend={service.backend_name}"
            + (", kernel profiling on" if profile else "")
            + ")"
        )
        if backend == "remote":
            log(
                f"coordinating a worker fleet: point workers at "
                f"`repro worker {service.url}` "
                f"(lease timeout {lease_timeout}s)"
            )
    service.serve_forever()
