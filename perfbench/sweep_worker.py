"""One sweep-workload process: set up, run timed passes, check them.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``.  It prints
``READY`` once set-up is done (imports, native kernel load or build,
grid construction), so the parent can time set-up from the outside,
then one ``RESULT <json>`` line.  With ``--setup-only`` it exits after
``READY``.

A pass is one ``run_sweep(spec, jobs=1)`` call with a fresh pipeline,
as a user's sweep runs; every pass must repeat the first pass's records.
After each pass, one client asks for every cell of a fixed panel of the
grid, in a seeded order, with two kinds of request per cell:

* the cell fresh, computed from scratch by the per-cell oracle
  ``run_cell`` (what ``repro evaluate`` runs), which must be
  bit-identical to the sweep's record and is then stored;
* the same cell again, served by ``BatchScheduler.evaluate`` from that
  store.

So every panel cell is timed once after every pass, spread over the
whole run.  A speed probe (``speed.py``) runs before and after every
timed pass and between the cells of a round.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import SweepSpec, run_sweep
from repro.experiments.figures import log_grid, run_cell
from repro.makespan import native
from repro.service import BatchScheduler, ResultStore
from repro.service.fingerprint import requests_from_spec
from speed import probe, scale
from tracer import Tracer

#: Panel cells per (processors, pfail) pair; they walk the CCR axis
#: diagonally, so every CCR value is on the panel.
PANEL_PER_PAIR = {"montage-pathapprox": 1, "genome300-normal": 3}
#: Timed store answers averaged into one hit sample.
HIT_ASKS = 20
#: Grid cells outside the panel re-checked against the oracle after
#: the timed window.
ORACLE_SAMPLE = 6
#: Nominal pass time, which sizes the fixed work of a traced run.
NOMINAL_PASS_S = {"montage-pathapprox": 2.5, "genome300-normal": 0.6}
#: How a pass's time moves with the speed probe's, as a power (see
#: ``speed.py``).  A MONTAGE pass spends much of its time in the native
#: kernels, which the slow stretches slow less than interpreted code; a
#: GENOME pass is mostly interpreted.  Chosen as the powers that made
#: ``cells_per_s`` repeat best over 25 MONTAGE and 30 GENOME runs.
PASS_EXPONENT = {"montage-pathapprox": 0.7, "genome300-normal": 1.0}


def make_spec(workload: str) -> SweepSpec:
    if workload == "montage-pathapprox":
        # The ROADMAP's reference grid: MONTAGE-50, 4 x 3 x 7 = 84 cells.
        return SweepSpec(
            family="montage",
            sizes=(50,),
            processors={50: (3, 5, 7, 10)},
            pfails=(1e-2, 1e-3, 1e-4),
            ccrs=log_grid(1e-3, 1e0, 7),
            seed=2017,
            seed_policy="stable",
            name=workload,
        )
    if workload == "genome300-normal":
        # GENOME-300 with the paper's processors and GENOME CCR range,
        # priced by Clark's normal approximation: 2 x 3 x 7 = 42 cells.
        return SweepSpec(
            family="genome",
            sizes=(300,),
            processors={300: (18, 35)},
            pfails=(1e-2, 1e-3, 1e-4),
            ccrs=log_grid(1e-4, 1e-2, 7),
            seed=2017,
            method="normal",
            seed_policy="stable",
            name=workload,
        )
    raise SystemExit(f"unknown sweep workload {workload!r}")


class Tally:
    """Samples and checks of one stretch of work.

    ``misses`` and ``hits`` hold one row per request round, one sample
    per panel cell, in panel order; ``scales`` holds the speed factor
    (see ``speed.py``) of each of those samples, and ``pass_scales``
    that of each pass.
    """

    def __init__(self) -> None:
        self.passes: List[float] = []
        self.pass_scales: List[float] = []
        self.windows: List[Tuple[float, float]] = []
        self.misses: List[List[float]] = []
        self.hits: List[List[float]] = []
        self.scales: List[List[float]] = []
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.errors.append(note)

    def as_dict(self) -> Dict[str, Any]:
        return dict(vars(self))


def panel_of(spec: SweepSpec, per_pair: int) -> List[int]:
    """Grid indices of the panel: ``per_pair`` cells of each
    (processors, pfail) pair, on diagonals through the CCR axis."""
    nccr = len(spec.ccrs)
    pairs = len(requests_from_spec(spec)) // nccr
    return sorted(
        pair * nccr + (pair + d * nccr // per_pair) % nccr
        for pair in range(pairs)
        for d in range(per_pair)
    )


class SweepWorkload:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.spec = make_spec(workload)
        self.requests = requests_from_spec(self.spec)
        self.panel = panel_of(self.spec, PANEL_PER_PAIR[workload])
        # In memory: a file store's hit counter commits to disk every 64
        # hits, and this machine's disk latency then set the hit p90.
        # The service workload keeps a file store.
        self.store = ResultStore()
        self.scheduler = BatchScheduler(self.store)
        self.rng = random.Random(seed)
        #: The first pass's records, which every later answer must equal.
        self.expected: Optional[list] = None

    def close(self) -> None:
        self.store.close()

    def run(self, tally: Tally, seconds: float) -> None:
        """An untimed warm-up pass, then passes alternating with request
        rounds for ``seconds``."""
        self.run_pass(tally, timed=False)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.run_pass(tally)
            if self.expected is not None:
                self.request_round(tally)

    def run_pass(
        self, tally: Tally, tracer: Any = None, timed: bool = True
    ) -> None:
        """One ``run_sweep`` pass, checked and (if ``timed``) timed."""
        n = len(self.requests)
        before = probe()
        if tracer is not None:
            tracer.start()
        t0 = time.perf_counter()
        try:
            records = run_sweep(self.spec, jobs=1)
        except Exception as exc:  # noqa: BLE001 — a failed pass is counted
            records = [exc]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.stop()
            tally.windows.append((t0, t1))
        if timed:
            tally.passes.append(t1 - t0)
            tally.pass_scales.append(
                scale(before, probe(), PASS_EXPONENT[self.workload])
            )
        tally.attempted += n
        if len(records) != n:
            tally.fail(n, f"pass: {records!r:.300}")
            return
        if timed:
            tally.cells += n
        if self.expected is None:
            self.expected = records
        bad = sum(a != b for a, b in zip(records, self.expected))
        if bad:
            tally.fail(bad, f"pass: {bad} records differ from the first pass")

    def request_round(self, tally: Tally) -> None:
        """Every panel cell, fresh then repeated, in a seeded order,
        with a speed probe between cells."""
        misses = [0.0] * len(self.panel)
        hits = [0.0] * len(self.panel)
        scales = [0.0] * len(self.panel)
        after = probe()
        for pos in self.rng.sample(range(len(self.panel)), len(self.panel)):
            i = self.panel[pos]
            before = after
            misses[pos] = self.fresh(tally, i)
            hits[pos] = self.repeat(tally, i)
            after = probe()
            scales[pos] = scale(before, after)
        tally.misses.append(misses)
        tally.hits.append(hits)
        tally.scales.append(scales)

    def fresh(self, tally: Tally, i: int) -> float:
        """Compute cell ``i`` with the oracle, check and store it; returns
        the time taken."""
        want = self.expected[i]
        spec = self.spec
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            got = run_cell(
                spec.family, want.ntasks_requested, want.processors,
                want.pfail, want.ccr, seed=spec.seed, method=spec.method,
            )
        except Exception as exc:  # noqa: BLE001 — a failed check is counted
            got = exc
        spent = time.perf_counter() - t0
        if got != want:
            tally.fail(1, f"oracle: cell {i} differs: {got!r:.300}")
        else:
            self.store.put(self.requests[i], got)
        return spent

    def repeat(self, tally: Tally, i: int) -> float:
        """Ask for cell ``i`` from the store; returns one hit sample.

        The cell is asked once untimed, then ``HIT_ASKS`` times back to
        back, and the mean of those is the sample: a hit's latency is
        then the store path's own cost, not the cache misses the
        computation before it left, nor a lone young-generation
        collection landing in one 0.1 ms call.
        """
        spent = 0.0
        for ask in range(1 + HIT_ASKS):
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.scheduler.evaluate(self.requests[i])
            except Exception as exc:  # noqa: BLE001 — a failed check is counted
                tally.fail(1, f"store: cell {i}: {exc!r:.300}")
                continue
            if ask:
                spent += time.perf_counter() - t0
            if not out.cached or out.record != self.expected[i]:
                tally.fail(1, f"store: cell {i} answered wrongly")
        return spent / HIT_ASKS

    def check_sample(self, tally: Tally) -> None:
        """After the timed window: a seeded sample of the cells off the
        panel must equal the per-cell oracle too."""
        if self.expected is None:
            return
        off_panel = sorted(set(range(len(self.requests))) - set(self.panel))
        for i in self.rng.sample(off_panel, min(ORACLE_SAMPLE, len(off_panel))):
            self.fresh(tally, i)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    kernels = native.status()  # loads (or builds) the native kernels
    work = SweepWorkload(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        work.close()
        return 0

    result: Dict[str, Any] = {"kernels": kernels}
    try:
        tally = Tally()
        if args.trace:
            # Fixed work, the same untraced and traced, so layer totals
            # compare across commits and the two stretches give the
            # tracing overhead.
            passes = max(
                1, round(args.seconds / 2 / NOMINAL_PASS_S[args.workload])
            )
            reference = Tally()
            work.run_pass(reference, timed=False)  # both stretches start warm
            for _ in range(passes):
                work.run_pass(reference)
            tracer = Tracer().install()
            for _ in range(passes):
                work.run_pass(tally, tracer)
            result["reference"] = reference.as_dict()
            result["trace"] = tracer.dump()
        else:
            work.run(tally, args.seconds)
        work.check_sample(tally)
        result["tally"] = tally.as_dict()
    finally:
        work.close()
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
