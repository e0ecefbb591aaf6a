"""Span tracing of the program's layers, installed from outside it.

:class:`Tracer` wraps public entry points of ``repro.engine.pipeline``,
``repro.makespan`` and ``repro.service`` at run time: each wrapped call
becomes a span (layer name, start, end, enclosing layer, thread, size).
Nothing under ``src/`` changes; the wrappers are installed only in a
traced process.

An entry point that no longer exists marks its layer *absent* instead of
failing, so deleting a code path never forces an edit here.  A layer
re-entered on the same thread (an entry point calling a sibling entry
point of the same layer) records one span, not two, so inclusive times
never double count.

:func:`summarize` turns a :meth:`Tracer.dump` into the per-layer
metrics.  It imports nothing from the program, so the orchestrating
process can aggregate dumps shipped from a server or worker process.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, module, owner attribute or None for a module function, name).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    # Stage 1 of the pipeline: workflow, platform and CCR rescaling.
    ("engine.prepare", "repro.engine.pipeline", "Pipeline", "prepare"),
    ("engine.prepare", "repro.engine.pipeline", "Pipeline", "prepare_source"),
    ("engine.prepare", "repro.engine.pipeline", "Pipeline", "platform_for"),
    ("engine.prepare", "repro.engine.pipeline", "Pipeline", "scale"),
    ("engine.mspgify", "repro.engine.pipeline", "Pipeline", "mspg_tree"),
    ("engine.allocate", "repro.engine.pipeline", "Pipeline", "schedule_for"),
    ("engine.ckptnone", "repro.engine.pipeline", "Pipeline", "evaluate_none"),
    ("engine.plan", "repro.engine.pipeline", "Pipeline", "plan"),
    ("engine.build_dag", "repro.engine.pipeline", "Pipeline", "segment_dag"),
    # The engine calls the dispatchers through its own module globals.
    ("makespan.dispatch", "repro.engine.pipeline", None, "expected_makespans"),
    ("makespan.dispatch", "repro.engine.pipeline", None,
     "expected_makespans_fused"),
    ("makespan.dispatch", "repro.makespan.api", None, "expected_makespans"),
    ("makespan.dispatch", "repro.makespan.api", None,
     "expected_makespans_fused"),
    ("makespan.compile", "repro.makespan.foldplan", None, "compile_fold_plan"),
    ("makespan.replay", "repro.makespan.foldplan", None, "execute_plans"),
    ("service.http", "repro.service.server", "_Handler", "do_POST"),
    ("service.submit", "repro.service.scheduler", "BatchScheduler", "submit"),
    # evaluate_many is the public batch entry; the background worker
    # goes straight to _resolve, the core both share.
    ("service.dispatch", "repro.service.scheduler", "BatchScheduler",
     "evaluate_many"),
    ("service.dispatch", "repro.service.scheduler", "BatchScheduler",
     "_resolve"),
    ("service.compute", "repro.service.scheduler", None, "run_specs"),
    ("service.store.get", "repro.service.store", "ResultStore", "get"),
    ("service.store.put", "repro.service.store", "ResultStore", "put"),
)

#: Layers whose span count and inclusive time are reported as
#: ``<layer>.calls`` and ``<layer>.s``.
TIMED_LAYERS = (
    "engine.prepare",
    "engine.mspgify",
    "engine.allocate",
    "engine.ckptnone",
    "engine.plan",
    "engine.build_dag",
    "makespan.dispatch",
    "makespan.compile",
    "makespan.replay",
    "service.dispatch",
    "service.store.get",
    "service.store.put",
)

#: Native kernel ops read from the kernel profile.
NATIVE_OPS = ("native_convolve", "native_max", "native_truncate")


def _cells_of_dispatch(args: tuple, kwargs: dict, out: Any) -> int:
    """Grid cells priced by one dispatch (one template or fused jobs)."""
    first = args[0] if args else kwargs.get("template", kwargs.get("jobs"))
    if hasattr(first, "n_cells"):
        return int(first.n_cells)
    return sum(int(job[0].n_cells) for job in first)


def _batch_size(args: tuple, kwargs: dict, out: Any) -> int:
    """Requests in one scheduler dispatch (a list or a fingerprint map)."""
    return len(args[1]) if len(args) > 1 else 0


def _store_hit(args: tuple, kwargs: dict, out: Any) -> int:
    return 0 if out is None else 1


SIZES: Dict[str, Callable[[tuple, dict, Any], int]] = {
    "makespan.dispatch": _cells_of_dispatch,
    "service.dispatch": _batch_size,
    "service.store.get": _store_hit,
}


class Tracer:
    """Records spans around the program's layer entry points.

    Spans are kept only while :attr:`active` is set, so a process can
    time untraced work, then trace, without reinstalling anything.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: List[list] = []
        self.present: set = set()
        self.missing: List[str] = []
        self.queue_waits: List[Tuple[float, float]] = []
        self.caches: List[Any] = []
        self.kernel_totals: Any = None
        self._profile: Any = None
        self._submitted: Dict[str, float] = {}
        self._fingerprint: Optional[Callable[[Any], str]] = None
        self._local = threading.local()

    # ------------------------------------------------------------------
    # installation

    def install(self) -> "Tracer":
        """Wrap every entry point that exists; note the ones that don't."""
        for layer, module_name, owner_name, attr in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner = (
                getattr(module, owner_name, None)
                if owner_name is not None
                else module
            )
            if owner is None or not callable(getattr(owner, attr, None)):
                where = ".".join(filter(None, (module_name, owner_name, attr)))
                self.missing.append(f"{layer}: {where}")
                continue
            self._wrap(layer, owner, attr)
            self.present.add(layer)
        try:
            from repro.service.fingerprint import fingerprint

            self._fingerprint = fingerprint
        except ImportError:
            self.present.discard("service.submit")
        try:
            from repro.engine.pipeline import ArtifactCache

            self._track_caches(ArtifactCache)
            self.present.add("engine.cache")
        except ImportError:
            self.missing.append("engine.cache: repro.engine.pipeline.ArtifactCache")
        try:
            from repro.makespan import profile

            if callable(getattr(profile, "enable", None)) and hasattr(
                profile, "KernelProfile"
            ):
                self._profile = profile
                self.kernel_totals = profile.KernelProfile()
                self.present.add("kernels")
        except ImportError:
            pass
        if self._profile is None:
            self.missing.append("kernels: repro.makespan.profile")
        return self

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, owner: Any, attr: str) -> None:
        original = getattr(owner, attr)
        size = SIZES.get(layer)
        before = self._queue_wait if attr == "_resolve" else None
        after = self._queued if layer == "service.submit" else None
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if layer in stack:
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            stack.append(layer)
            start = time.perf_counter()
            n = 0
            try:
                out = original(*args, **kwargs)
                n = size(args, kwargs, out) if size is not None else 1
                if after is not None:
                    after(args, out)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    [layer, start, end, parent, threading.get_ident(), n]
                )

        setattr(owner, attr, traced)

    def _track_caches(self, cls: Any) -> None:
        """Remember every artifact cache created while tracing."""
        original = cls.__init__
        tracer = self

        @functools.wraps(original)
        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            if tracer.active:
                tracer.caches.append(obj)

        cls.__init__ = init

    # Queue wait: from a submit that had to queue (not a store hit on the
    # fast path) to the start of the dispatch that resolves it.

    def _queued(self, args: tuple, future: Any) -> None:
        if self._fingerprint is not None and not future.done():
            self._submitted.setdefault(
                self._fingerprint(args[1]), time.perf_counter()
            )

    def _queue_wait(self, args: tuple) -> None:
        now = time.perf_counter()
        for fp in args[1]:
            queued = self._submitted.pop(fp, None)
            if queued is not None:
                self.queue_waits.append((now, now - queued))

    # ------------------------------------------------------------------
    # windows

    def start(self) -> None:
        """Open a traced stretch; kernel counters start afresh."""
        if self._profile is not None:
            self._profile.enable()
        self.active = True

    def stop(self) -> None:
        """Close a traced stretch; fold its kernel counters in."""
        self.active = False
        if self._profile is not None:
            snap = self._profile.snapshot()
            self._profile.disable()
            if snap is not None:
                self.kernel_totals.merge(snap)

    def reset(self) -> None:
        """Forget everything recorded so far (keeps tracked caches)."""
        self.spans = []
        self.queue_waits = []
        self._submitted = {}
        if self._profile is not None:
            self.kernel_totals = self._profile.KernelProfile()
            if self.active:
                self._profile.enable()

    def dump(self) -> Dict[str, Any]:
        """JSON-friendly record of everything traced."""
        rates = [c.hit_rate() for c in self.caches if hasattr(c, "hit_rate")]
        return {
            "spans": list(self.spans),
            "queue_waits": list(self.queue_waits),
            "present": sorted(self.present),
            "missing": list(self.missing),
            "cache_hit_rates": rates,
            "kernels": (
                self.kernel_totals.snapshot()
                if self.kernel_totals is not None
                else None
            ),
        }


# ---------------------------------------------------------------------- #
# aggregation (no program imports below this line)


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0.01 steps), inclusive method; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def summarize(
    dump: Dict[str, Any], windows: Sequence[Tuple[float, float]]
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of the spans that start inside ``windows``.

    Returns ``(metrics, absent)``: every per-layer metric is present in
    ``metrics`` (0 for a layer that did no work or is absent), and
    ``absent`` names the layers whose entry points were not found.
    """

    def inside(t: float) -> bool:
        return any(lo <= t <= hi for lo, hi in windows)

    spans = [s for s in dump["spans"] if inside(s[1])]
    present = set(dump["present"])
    out: Dict[str, float] = {}
    by_layer: Dict[str, list] = {}
    for s in spans:
        by_layer.setdefault(s[0], []).append(s)

    def total(layer: str) -> float:
        return sum(s[2] - s[1] for s in by_layer.get(layer, ()))

    def count(layer: str) -> int:
        return len(by_layer.get(layer, ()))

    def size(layer: str) -> int:
        return sum(s[5] for s in by_layer.get(layer, ()))

    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = count(layer)
        out[f"{layer}.s"] = total(layer)
    rates = dump["cache_hit_rates"]
    out["engine.cache.hit_rate"] = sum(rates) / len(rates) if rates else 0.0

    out["makespan.dispatch.cells"] = size("makespan.dispatch")
    out["makespan.dispatch.self_s"] = max(
        0.0,
        total("makespan.dispatch")
        - total("makespan.compile")
        - total("makespan.replay"),
    )

    kern = dump.get("kernels") or {}
    ops = kern.get("ops", {})
    for op in NATIVE_OPS:
        entry = ops.get(op, {})
        out[f"kernels.{op}.rows"] = entry.get("rows", 0)
        out[f"kernels.{op}.s"] = entry.get("wall_s", 0.0)
    # Rows the python side computed: batched numpy kernels plus the
    # rows native kernels declined (their time sits in the scalar ops).
    py_rows = 0
    py_s = 0.0
    for op, entry in ops.items():
        if op.startswith("batch_"):
            py_rows += entry["rows"]
            py_s += entry["wall_s"]
        elif op.startswith("native_miss_"):
            py_rows += entry["rows"]
    out["kernels.python.rows"] = py_rows
    out["kernels.python.s"] = py_s
    out["kernels.native_ratio"] = kern.get("native_ratio") or 0.0
    out["kernels.pool_width_mean"] = kern.get("pool_width_mean") or 0.0

    out["service.http.requests"] = count("service.http")
    out["service.http.s"] = total("service.http")
    waits = [w for t, w in dump["queue_waits"] if inside(t)]
    out["service.queue_wait_s.p50"] = quantile(waits, 0.5)
    out["service.queue_wait_s.p90"] = quantile(waits, 0.9)
    calls = count("service.dispatch")
    out["service.dispatch.batch_size_mean"] = (
        size("service.dispatch") / calls if calls else 0.0
    )
    out["service.compute.s"] = total("service.compute")
    gets = count("service.store.get")
    out["service.store.hit_rate"] = (
        size("service.store.get") / gets if gets else 0.0
    )

    # Accounting: the time the top-level spans cover (their union, since
    # a server's threads overlap) plus the unaccounted rest is the wall.
    wall = sum(hi - lo for lo, hi in windows)
    covered = sum(
        _union_length(
            [
                (max(s[1], lo), min(s[2], hi))
                for s in spans
                if s[3] is None and s[1] < hi and s[2] > lo
            ]
        )
        for lo, hi in windows
    )
    out["trace.wall_s"] = wall
    out["trace.toplevel_s"] = covered
    out["trace.unaccounted_s"] = wall - covered

    # An absent layer recorded nothing, so its metrics above read 0.
    expected = {layer for layer, *_ in ENTRY_POINTS} | {"engine.cache", "kernels"}
    return out, sorted(expected - present)
