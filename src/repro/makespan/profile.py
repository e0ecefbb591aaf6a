"""Kernel profiling counters for the distribution algebra.

The makespan kernels — scalar :class:`DiscreteDistribution` operations,
the compiled native kernels, and the fold-plan replay — report op
counts, row counts, scalar-executed rows and per-op wall time here.
The collector is **off by default** and the hot-path cost of an
inactive hook is a single module-attribute load and ``None`` check (no
timestamping, no allocation), so the hooks stay in production code.

Usage::

    prof = enable()          # fresh collector, hooks start recording
    ...                      # run sweeps / evaluations
    prof.snapshot()          # JSON-friendly summary
    disable()                # detach

The derived metrics — the native ratio (rows the compiled kernels
absorbed), the dispatch count and the mean replay width — are what the
``repro sweep --profile`` / ``/status`` surfaces report.

The collector is process-local, but no longer parent-only: a
multiprocess sweep enables a private collector in each worker, ships
its :meth:`KernelProfile.snapshot` back with the chunk results, and the
parent folds them in via :meth:`KernelProfile.merge`, so
``repro sweep --profile --jobs N`` reports fleet-wide counters.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = [
    "KernelProfile",
    "ACTIVE",
    "enable",
    "disable",
    "active",
    "snapshot",
]

#: Compiled-kernel ops (:mod:`repro.makespan.native`); ``rows`` counts
#: distribution rows the native path served (for ``native_normal``, the
#: cells the C Clark fold priced; for ``native_kbest``, the cells the C
#: k-best DP enumerated, one row per cell and budget round).  Each has a
#: paired ``native_miss_*`` op counting rows that fell back to the python
#: reference (native disabled, build failed, an input the compiled kernel
#: declines — NaN supports, mixed infinities, tied path lengths where a
#: node truncates — or, for the Clark fold, a library whose
#: ``erf``/``exp`` failed the load-time probe).
NATIVE_OPS = (
    "native_convolve", "native_max", "native_truncate", "native_normal",
    "native_kbest",
)
NATIVE_MISS_OPS = tuple("native_miss_" + op[len("native_"):] for op in NATIVE_OPS)


class KernelProfile:
    """Mutable per-op counters: calls, rows, scalar rows, wall seconds."""

    __slots__ = ("counters", "started_at")

    def __init__(self) -> None:
        self.counters: Dict[str, Dict[str, float]] = {}
        self.started_at = time.perf_counter()

    def record(
        self, op: str, rows: int = 1, scalar_rows: int = 0, wall: float = 0.0
    ) -> None:
        """Add one call of ``op`` with its rows, scalar rows and wall time.

        The scalar reference kernels (``convolve``, ``max``,
        ``truncate``) count one row, and one scalar row, a call.
        ``pool_exec`` is one fold replay pass; its ``rows`` count the
        (cell, plan) pairs one
        :func:`~repro.makespan.foldplan.execute_plans` pass replays.
        ``dispatch`` is one ``expected_makespans`` call; its
        ``scalar_rows`` count the cells priced.
        """
        entry = self.counters.get(op)
        if entry is None:
            entry = {"calls": 0, "rows": 0, "scalar_rows": 0, "wall_s": 0.0}
            self.counters[op] = entry
        entry["calls"] += 1
        entry["rows"] += rows
        entry["scalar_rows"] += scalar_rows
        entry["wall_s"] += wall

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def dispatches(self) -> int:
        """Number of evaluation dispatches (``expected_makespans`` calls)."""
        entry = self.counters.get("dispatch")
        return int(entry["calls"]) if entry else 0

    def pool_width_mean(self) -> Optional[float]:
        """Mean (cell, plan) pairs per fold-plan replay pass.

        The width of the work-list each :func:`~repro.makespan.foldplan.
        execute_plans` pass replays (at most the structure group's cell
        count).
        """
        entry = self.counters.get("pool_exec")
        if not entry or entry["calls"] == 0:
            return None
        return entry["rows"] / entry["calls"]

    def native_rows(self) -> int:
        """Rows served by the compiled kernels."""
        return sum(
            int(self.counters[op]["rows"])
            for op in NATIVE_OPS
            if op in self.counters
        )

    def native_miss_rows(self) -> int:
        """Rows that fell back to the python reference kernels."""
        return sum(
            int(self.counters[op]["rows"])
            for op in NATIVE_MISS_OPS
            if op in self.counters
        )

    def native_ratio(self) -> Optional[float]:
        """Share of native-eligible rows the compiled path absorbed.

        ``None`` when no native-dispatched op ran at all (e.g. a sweep
        priced only by Monte Carlo or the exact method, which call no
        compiled kernel).  A sweep priced by Clark's normal method counts
        its cells: ``native_normal`` when the C fold priced them,
        ``native_miss_normal`` when the python fold did.
        """
        served = self.native_rows()
        missed = self.native_miss_rows()
        if served + missed == 0:
            return None
        return served / (served + missed)

    def merge(self, snap: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` from another collector into this one.

        Used by the multiprocess sweep: each worker profiles its own
        chunks and ships the snapshot back; the parent merges them so
        ``repro sweep --profile --jobs N`` reports fleet-wide counters.
        Derived ratios are recomputed from the merged counts.
        """
        for op, e in dict(snap.get("ops", {})).items():
            self.record(
                op,
                rows=int(e.get("rows", 0)),
                scalar_rows=int(e.get("scalar_rows", 0)),
                wall=float(e.get("wall_s", 0.0)),
            )
            # record() bumped calls by one; fix up to the true count.
            self.counters[op]["calls"] += int(e.get("calls", 1)) - 1

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly summary (used by ``/status`` and the CLI)."""
        ops = {
            op: {
                "calls": int(e["calls"]),
                "rows": int(e["rows"]),
                "scalar_rows": int(e["scalar_rows"]),
                "wall_s": round(float(e["wall_s"]), 6),
            }
            for op, e in sorted(self.counters.items())
        }
        return {
            "ops": ops,
            "dispatches": self.dispatches(),
            "pool_width_mean": self.pool_width_mean(),
            "native_rows": self.native_rows(),
            "native_miss_rows": self.native_miss_rows(),
            "native_ratio": self.native_ratio(),
            "elapsed_s": round(time.perf_counter() - self.started_at, 6),
        }

    def render(self) -> str:
        """Human-readable table for ``repro sweep --profile``."""
        lines = [
            f"{'op':<21} {'calls':>9} {'rows':>10} {'scalar':>9} {'wall_s':>9}"
        ]
        for op, e in sorted(self.counters.items()):
            lines.append(
                f"{op:<21} {int(e['calls']):>9} {int(e['rows']):>10} "
                f"{int(e['scalar_rows']):>9} {e['wall_s']:>9.3f}"
            )
        if self.dispatches():
            lines.append(f"dispatches:            {self.dispatches()}")
        width = self.pool_width_mean()
        if width is not None:
            lines.append(f"pool width mean:       {width:.2f} cells")
        nratio = self.native_ratio()
        if nratio is not None:
            lines.append(
                f"native kernel rows:    {self.native_rows()} served, "
                f"{self.native_miss_rows()} fallback ({nratio:.4f} native)"
            )
        return "\n".join(lines)


#: The active collector, or ``None``.  Kernels do
#: ``if profile.ACTIVE is not None: ...`` — keep reads going through the
#: module attribute so :func:`enable`/:func:`disable` take effect
#: everywhere at once.
ACTIVE: Optional[KernelProfile] = None


def enable() -> KernelProfile:
    """Install (and return) a fresh collector; prior counts are dropped."""
    global ACTIVE
    ACTIVE = KernelProfile()
    return ACTIVE


def disable() -> None:
    """Detach the collector; hooks return to the no-op fast path."""
    global ACTIVE
    ACTIVE = None


def active() -> Optional[KernelProfile]:
    """The live collector, if profiling is enabled."""
    return ACTIVE


def snapshot() -> Optional[Dict[str, object]]:
    """Snapshot of the live collector, or ``None`` when disabled."""
    return None if ACTIVE is None else ACTIVE.snapshot()
