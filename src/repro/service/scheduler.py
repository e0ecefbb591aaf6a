"""Request coalescing: dedup by fingerprint, batch by grid group, dispatch.

The scheduler is the service's throughput lever.  Given a pile of
requests it

1. **dedups** identical fingerprints — one computation, every waiter
   gets the result;
2. **consults the store** — previously computed cells cost one SQLite
   lookup;
3. **coalesces** the misses into :class:`~repro.engine.sweep.SweepSpec`
   batches grouped by :attr:`EvalRequest.coalesce_key` (same workflow
   family/size/seed, processors, method, ...): requests that differ only
   along the pfail/CCR axes become one grid, so the M-SPG tree is built
   once per workflow and the schedule once per (workflow, processors)
   pair — exactly the :class:`~repro.engine.pipeline.ArtifactCache`
   reuse the sweep engine gives a declared grid;
4. **dispatches** the specs through :func:`repro.engine.sweep.run_specs`
   (the shared pipeline when serial; chunk fan-out over a pluggable
   execution backend for ``jobs > 1`` or an explicit ``backend=`` —
   including a remote ``repro worker`` fleet) and writes every fresh
   record back to the store.  The
   dispatch rides the engine's batched evaluation entry point: each
   coalesced spec's cells are priced through one DAG template per
   strategy and structure group (bit-identical to per-cell
   evaluation), and the sizes of the dispatched batches are surfaced
   via ``/status``.

Batches are *exact covers*: a group's requested (pfail, CCR) cells are
partitioned into one spec per pfail value, so no unrequested cell is
ever computed.  Grid-sensitive requests (Monte Carlo under the legacy
``"positional"`` eval-seed policy — its sampling seed is positional,
see :mod:`repro.service.fingerprint`) are dispatched as per-cell 1×1
specs instead; they still share the pipeline's cached tree/schedule, so
the amortisation survives.  Under the ``"content"`` eval-seed policy
Monte Carlo's sampling seeds are position-independent
(:func:`repro.engine.sweep.cell_eval_seed`), so those requests coalesce
into real batches — and ride the batched vectorised sampling core —
exactly like the closed-form methods.

:class:`BatchScheduler` also runs an optional background worker
(:meth:`~BatchScheduler.start` / :meth:`~BatchScheduler.submit`) that
collects requests arriving within a small linger window into one batch —
this is what lets concurrent HTTP requests coalesce.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.backends import ExecutionBackend
from repro.engine.pipeline import Pipeline
from repro.engine.records import CellResult
from repro.engine.sweep import SweepSpec, run_specs
from repro.errors import ServiceError
from repro.service.fingerprint import EvalRequest, fingerprint, request_to_spec
from repro.service.store import ResultStore
from repro.workloads import SourceRegistry

__all__ = ["EvalOutcome", "SchedulerStats", "BatchScheduler", "plan_batches"]


@dataclass(frozen=True)
class EvalOutcome:
    """One answered request: the record plus how it was obtained."""

    request: EvalRequest
    fingerprint: str
    record: CellResult
    cached: bool  #: served from the durable store (no computation)


@dataclass
class SchedulerStats:
    """Scheduler-lifetime counters (mutated under the scheduler lock)."""

    submitted: int = 0  #: requests seen (incl. duplicates)
    deduped: int = 0  #: duplicate fingerprints merged within batches
    store_hits: int = 0  #: requests answered by the durable store
    computed_cells: int = 0  #: cells actually evaluated
    batches: int = 0  #: coalesced specs dispatched
    #: Largest successfully dispatched coalesced spec, in cells.
    batch_size_max: int = 0
    #: Cells per successful spec of the last dispatch (failed specs are
    #: excluded, keeping these consistent with batches/computed_cells).
    last_batch_sizes: Tuple[int, ...] = ()

    @property
    def batch_size_mean(self) -> float:
        """Mean cells per dispatched spec over the scheduler's lifetime."""
        return self.computed_cells / self.batches if self.batches else 0.0


@dataclass
class _Pending:
    """One queued unique fingerprint and everybody waiting on it."""

    request: EvalRequest
    future: "Future[EvalOutcome]" = field(default_factory=Future)
    waiters: int = 1


def plan_batches(
    requests: Sequence[EvalRequest],
    registry: Optional[SourceRegistry] = None,
) -> List[Tuple[SweepSpec, List[EvalRequest]]]:
    """Partition unique requests into coalesced sweep specs.

    Returns ``(spec, cell_requests)`` pairs where ``cell_requests``
    lists, in the spec's grid order, the request each produced record
    answers.  The partition is an exact cover: every requested cell
    appears exactly once, and no spec contains an unrequested cell.
    ``registry`` resolves requests naming an external workflow by
    content hash; an unresolvable reference raises
    :class:`~repro.errors.ServiceError` (the scheduler pre-screens
    those per request so one bad reference cannot fail a whole batch).
    """
    groups: Dict[Tuple, List[EvalRequest]] = {}
    for req in requests:
        groups.setdefault(req.coalesce_key, []).append(req)

    batches: List[Tuple[SweepSpec, List[EvalRequest]]] = []
    for members in groups.values():
        head = members[0]
        if head.grid_sensitive:
            # Positional sampling seeds: the 1×1 contract is only
            # reproducible cell by cell.  (Content-policy stochastic
            # requests fall through to the coalesced path below.)
            batches.extend((request_to_spec(r, registry), [r]) for r in members)
            continue
        # One spec per pfail value; its CCR axis is exactly the CCRs
        # requested at that pfail (requests are unique, so no repeats).
        by_pfail: Dict[float, List[EvalRequest]] = {}
        for r in members:
            by_pfail.setdefault(r.pfail, []).append(r)
        for pfail, cells in by_pfail.items():
            spec = replace(
                request_to_spec(head, registry),
                pfails=(pfail,),
                ccrs=tuple(r.ccr for r in cells),
                name=f"batch[{head.family} n={head.ntasks} "
                f"p={head.processors}]",
            )
            batches.append((spec, list(cells)))
    return batches


class BatchScheduler:
    """Coalescing dispatcher over one shared pipeline and result store.

    Synchronous use: :meth:`evaluate` / :meth:`evaluate_many`.  Service
    use: :meth:`start` the background worker, then :meth:`submit`
    returns a :class:`~concurrent.futures.Future` per request; requests
    arriving within ``linger`` seconds of each other are batched, and
    concurrent identical fingerprints share one future.

    The shared :class:`~repro.engine.pipeline.Pipeline` persists across
    batches, so even requests arriving in separate batches reuse cached
    workflows, M-SPG trees and schedules; call :meth:`reset_pipeline`
    to bound its memory in a very long-lived service.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        linger: float = 0.05,
        registry: Optional[SourceRegistry] = None,
        backend: Union[None, str, "ExecutionBackend"] = None,
    ) -> None:
        self.store = store
        self.jobs = jobs
        self.linger = linger
        #: Execution backend dispatched batches run on — ``None`` keeps
        #: the historical behaviour (in-process when ``jobs == 1``, a
        #: process pool otherwise), a backend name or instance (e.g.
        #: the service's long-lived
        #: :class:`~repro.engine.backends.RemoteWorkerBackend`) forces
        #: that backend.  Records are identical on every backend.
        self.backend = backend
        #: External workflow sources addressable by content hash
        #: (``request.workflow``); a fresh empty registry by default so
        #: callers can always ``scheduler.registry.register(...)``.
        self.registry = registry if registry is not None else SourceRegistry()
        self.pipeline = Pipeline()
        self.stats = SchedulerStats()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._queue: Dict[str, _Pending] = {}
        self._worker: Optional[threading.Thread] = None
        self._stopping = False
        # Serialises store-lookup + dispatch: concurrent evaluate_many
        # calls (the background worker vs. a /sweep handler thread) must
        # not compute the same fingerprint twice, and the shared
        # pipeline is not meant for concurrent mutation.
        self._dispatch_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Synchronous batch evaluation.

    def evaluate_many(
        self,
        requests: Sequence[EvalRequest],
        progress: Optional[Callable[[str], None]] = None,
    ) -> List[EvalOutcome]:
        """Answer a batch of requests; outcomes align with the input.

        Duplicates are computed once, stored results are served without
        recomputation, and the remaining cells are dispatched as
        coalesced sweeps (see the module docstring).
        """
        fps = [fingerprint(r) for r in requests]
        unique: Dict[str, EvalRequest] = {}
        for fp, req in zip(fps, requests):
            unique.setdefault(fp, req)

        with self._dispatch_lock:
            resolved, errors = self._resolve(unique, progress)

        with self._lock:
            self.stats.submitted += len(requests)
            self.stats.deduped += len(requests) - len(unique)
        for fp in fps:
            if fp in errors:
                raise errors[fp]
        return [resolved[fp] for fp in fps]

    def _resolve(
        self,
        unique: Dict[str, EvalRequest],
        progress: Optional[Callable[[str], None]] = None,
    ) -> Tuple[Dict[str, EvalOutcome], Dict[str, BaseException]]:
        """Answer unique fingerprints: store first, then coalesced dispatch.

        Returns ``(resolved, errors)``; every input fingerprint appears
        in exactly one of the two.  Failures are isolated per dispatched
        spec: a request whose evaluation raises (unknown family, engine
        error, ...) lands in ``errors`` without poisoning unrelated
        requests that merely shared the batch, and records from the
        specs that succeeded are still stored.
        """
        resolved: Dict[str, EvalOutcome] = {}
        errors: Dict[str, BaseException] = {}
        misses: Dict[str, EvalRequest] = {}
        for fp, req in unique.items():
            record = self.store.get(fp) if self.store is not None else None
            if record is not None:
                resolved[fp] = EvalOutcome(req, fp, record, cached=True)
            else:
                misses[fp] = req
        # Counted here, before the source pre-screen shrinks `misses`:
        # a request failing source resolution was not served by the store.
        store_hits = len(unique) - len(misses)

        # Pre-screen workflow-source references request by request, so
        # one unknown/contradictory hash fails only its own request
        # instead of blowing up batch planning for everyone else.
        for fp, req in list(misses.items()):
            if req.workflow is None:
                continue
            try:
                request_to_spec(req, self.registry)
            except ServiceError as exc:
                errors[fp] = exc
                del misses[fp]

        batches = plan_batches(list(misses.values()), self.registry)
        done = 0
        computed = 0
        if batches:
            # One dispatch, per-spec error capture (run_specs
            # return_exceptions): a failing spec lands its exception in
            # its own slot, so co-batched specs' records are kept and
            # stored — no request is failed by a stranger it merely
            # shared a linger window with.
            specs = [spec for spec, _ in batches]
            results = run_specs(
                specs, jobs=self.jobs, progress=progress,
                pipeline=self.pipeline, return_exceptions=True,
                backend=self.backend,
            )
            sizes = []
            for (spec, cells), records in zip(batches, results):
                if isinstance(records, BaseException):
                    for req in cells:
                        errors[fingerprint(req)] = records
                    continue
                if len(cells) != len(records):  # pragma: no cover
                    exc = ServiceError(
                        f"batch {spec.name!r} returned {len(records)} "
                        f"records for {len(cells)} requested cells"
                    )
                    for req in cells:
                        errors[fingerprint(req)] = exc
                    continue
                done += 1
                computed += len(cells)
                sizes.append(len(cells))
                for req, record in zip(cells, records):
                    fp = fingerprint(req)
                    if self.store is not None:
                        self.store.put(req, record, fp)
                    resolved[fp] = EvalOutcome(req, fp, record, cached=False)

        with self._lock:
            self.stats.store_hits += store_hits
            self.stats.computed_cells += computed
            self.stats.batches += done
            if batches:
                # Sizes cover the *successful* specs only, so max/mean/
                # last stay consistent with batches/computed_cells.
                self.stats.last_batch_sizes = tuple(sizes)
                if sizes:
                    self.stats.batch_size_max = max(
                        self.stats.batch_size_max, max(sizes)
                    )
        return resolved, errors

    def evaluate(
        self,
        request: EvalRequest,
        progress: Optional[Callable[[str], None]] = None,
    ) -> EvalOutcome:
        """Answer one request (store lookup, then a 1-cell batch)."""
        return self.evaluate_many([request], progress=progress)[0]

    def reset_pipeline(self) -> None:
        """Drop the shared pipeline's artifact cache (memory bound)."""
        self.pipeline.clear()

    # ------------------------------------------------------------------
    # Background coalescing worker.

    def start(self) -> "BatchScheduler":
        """Start the background worker (idempotent); returns self."""
        with self._lock:
            if self._worker is not None and self._worker.is_alive():
                return self
            self._stopping = False
            self._worker = threading.Thread(
                target=self._run, name="repro-service-scheduler", daemon=True
            )
            self._worker.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Drain the queue and stop the worker."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        worker = self._worker
        if worker is not None:
            worker.join(timeout)
        self._worker = None

    def submit(self, request: EvalRequest) -> "Future[EvalOutcome]":
        """Queue one request for the next coalesced batch.

        Identical fingerprints already waiting share the same future —
        concurrent duplicate requests trigger exactly one computation.
        """
        fp = fingerprint(request)
        # Fast path: durable-store hits are answered immediately — only
        # actual compute pays the coalescing linger.  (The miss is not
        # counted here; evaluate_many re-checks — and counts — at
        # dispatch time, when a concurrent batch may have filled it.)
        if self.store is not None:
            record = self.store.get(fp, count_miss=False)
            if record is not None:
                future: "Future[EvalOutcome]" = Future()
                future.set_result(EvalOutcome(request, fp, record, cached=True))
                with self._lock:
                    self.stats.submitted += 1
                    self.stats.store_hits += 1
                return future
        with self._cv:
            if self._stopping or self._worker is None:
                raise ServiceError(
                    "scheduler worker is not running (call start())"
                )
            pending = self._queue.get(fp)
            if pending is not None:
                pending.waiters += 1
                self.stats.deduped += 1
                self.stats.submitted += 1
                return pending.future
            pending = _Pending(request)
            self._queue[fp] = pending
            self._cv.notify_all()
            return pending.future

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stopping:
                    self._cv.wait()
                if self._stopping and not self._queue:
                    return
            # Linger outside the lock so late arrivals join this batch.
            if self.linger > 0:
                time.sleep(self.linger)
            with self._cv:
                batch = list(self._queue.items())
                self._queue.clear()
            if not batch:
                continue
            # The queue is keyed by fingerprint, so the batch is already
            # unique — resolve it directly and settle each future from
            # the per-fingerprint outcome/error maps: a request that
            # fails (unknown family, engine error, ...) rejects only its
            # own waiters, never unrelated requests that merely arrived
            # in the same linger window.
            unique = {fp: pending.request for fp, pending in batch}
            try:
                with self._dispatch_lock:
                    resolved, errors = self._resolve(unique)
            except BaseException as exc:  # noqa: BLE001 — fan the error out
                for _, pending in batch:
                    pending.future.set_exception(exc)
                continue
            # (Merged waiters were already counted at submit time; each
            # unique pending is counted once here.)
            with self._lock:
                self.stats.submitted += len(batch)
            for fp, pending in batch:
                if fp in errors:
                    pending.future.set_exception(errors[fp])
                else:
                    pending.future.set_result(resolved[fp])
