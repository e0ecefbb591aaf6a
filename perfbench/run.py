#!/usr/bin/env python3
"""Benchmark of the repro toolkit: sweeps and the evaluation service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload montage-pathapprox --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``montage-pathapprox`` — serial ``run_sweep`` passes over the 84-cell
  MONTAGE-50 grid, PathApprox;
* ``genome300-normal`` — serial passes over a 42-cell GENOME-300 grid,
  Clark's normal approximation;
* ``service-mixed`` — ``repro serve`` in its own process, driven by
  closed-loop clients (half repeats answered from the store, half fresh
  GENOME-50 cells that need computing).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see ``tracer.py``).  The last line
of standard output is the result object; the line before it carries
the run's context (cores, versions, kernel backend, commit, seed) and
the raw samples.  On the sweep workloads every time is scaled to a
reference machine speed (see ``speed.py``); the context line also holds
the unscaled metrics.  The program builds nothing ahead of time: the native
kernels compile on first use into ``.perfbench_cache/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from speed import probe, scale
from tracer import quantile, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"

SWEEPS = ("montage-pathapprox", "genome300-normal")
SERVICE = "service-mixed"
WORKLOADS = SWEEPS + (SERVICE,)

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: How a sweep worker's set-up time moves with the speed probe's, as a
#: power (see ``speed.py``): imports and the kernel load are partly
#: process start and file reads, which the slow stretches slow less.
SETUP_EXPONENT = 0.7

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "req_per_s": "1/s",
    "hit_latency_p50_ms": "ms",
    "hit_latency_p90_ms": "ms",
    "miss_latency_p50_ms": "ms",
    "miss_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric units; anything not listed is a count.
LAYER_UNITS = {
    "engine.cache.hit_rate": "ratio",
    "kernels.native_ratio": "ratio",
    "kernels.pool_width_mean": "count",
    "service.dispatch.batch_size_mean": "count",
    "service.store.hit_rate": "ratio",
    "trace.overhead_frac": "ratio",
}

# -- service workload ----------------------------------------------------

#: Closed-loop clients, one connection each (never more than nproc).
CLIENTS = 2
#: Probability that a request repeats a cell its client already got.
REPEAT_P = 0.5
#: Replies of fresh cells re-checked against the per-cell oracle.
SERVICE_ORACLE_CELLS = 4
#: Nominal requests per second per client; sizes a traced run's work.
NOMINAL_CLIENT_RPS = 15
#: Set-up ends with one answered request outside the request stream.
WARMUP_CELL = {
    "family": "genome", "ntasks": 50, "processors": 3,
    "pfail": 0.01, "ccr": 0.5,
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def stop_process(proc: subprocess.Popen, sig: int = signal.SIGINT) -> None:
    """Signal ``proc``, and kill it if it has not ended within 20 s."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


# -- sweeps --------------------------------------------------------------


def start_sweep_worker(
    args: argparse.Namespace, setup_only: bool
) -> Tuple[subprocess.Popen, float]:
    """Start a sweep worker; returns it and its set-up time."""
    cmd = [
        sys.executable, str(HERE / "sweep_worker.py"),
        "--workload", args.workload, "--seconds", str(args.seconds),
        "--seed", str(args.seed), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        stop_process(proc, signal.SIGKILL)
        raise BenchError(f"sweep worker failed during set-up: {line!r}")
    return proc, setup


def sweep_metrics(
    tally: Dict[str, Any],
    setups: List[Tuple[float, float]],
    peak_rss_mb: float,
    scaled: bool,
) -> Dict[str, float]:
    """End-to-end metrics of a sweep run, its timings scaled to the
    reference speed (see ``speed.py``) or, with ``scaled`` false, as
    measured.

    A panel cell's miss (hit) latency is the median of its samples over
    the request rounds; the percentiles run over the panel's cells.
    ``req_per_s`` is the rate of one client asking for every panel cell
    fresh and then again, at those latencies.
    """

    def at_speed(times: List[float], scales: List[float]) -> List[float]:
        return [t * k for t, k in zip(times, scales)] if scaled else times

    def per_cell(rows: List[List[float]]) -> List[float]:
        return [
            statistics.median(at_speed(list(times), list(scales)))
            for times, scales in zip(zip(*rows), zip(*tally["scales"]))
        ]

    misses, hits = per_cell(tally["misses"]), per_cell(tally["hits"])
    passes = sum(at_speed(tally["passes"], tally["pass_scales"]))
    return {
        "setup_s": statistics.median(at_speed(*zip(*setups))),
        "cells_per_s": tally["cells"] / passes,
        "req_per_s": 2 * len(misses) / (sum(misses) + sum(hits)),
        "hit_latency_p50_ms": 1e3 * quantile(hits, 0.5),
        "hit_latency_p90_ms": 1e3 * quantile(hits, 0.9),
        "miss_latency_p50_ms": 1e3 * quantile(misses, 0.5),
        "miss_latency_p90_ms": 1e3 * quantile(misses, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def run_sweep_workload(
    args: argparse.Namespace,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    setups = []
    for _ in range(SETUPS):
        before = probe()
        proc, setup = start_sweep_worker(args, setup_only=True)
        try:
            proc.communicate(timeout=60)
        finally:
            stop_process(proc, signal.SIGKILL)
        setups.append((setup, scale(before, probe(), SETUP_EXPONENT)))
    proc, _ = start_sweep_worker(args, setup_only=False)
    try:
        out, _ = proc.communicate(timeout=170)
    finally:
        stop_process(proc, signal.SIGKILL)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"sweep worker exited with code {proc.returncode}")
    res = json.loads(lines[-1][len("RESULT "):])
    tally = res["tally"]
    samples = sum(len(row) for row in tally["misses"])
    detail: Dict[str, Any] = {
        "kernels": res["kernels"],
        "passes_s": tally["passes"],
        "pass_scales": tally["pass_scales"],
        "hit_samples": samples,
        "miss_samples": samples,
        "setups_s": [t for t, _ in setups],
        "setup_scales": [k for _, k in setups],
        "errors": tally["errors"][:20],
    }
    outcome = {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "kernels": res["kernels"],
    }
    if args.trace:
        ref = res["reference"]
        metrics, absent = summarize(res["trace"], tally["windows"])
        metrics["trace.overhead_frac"] = (
            sum(tally["passes"]) / sum(ref["passes"]) - 1.0
        )
        outcome["attempted"] += ref["attempted"]
        outcome["failed"] += ref["failed"]
        detail["absent_layers"] = absent
        detail["missing_entry_points"] = res["trace"]["missing"]
        detail["errors"] += ref["errors"][:20]
    else:
        if not tally["misses"]:
            raise BenchError("no request round finished; run longer")
        metrics = sweep_metrics(tally, setups, res["peak_rss_mb"], True)
        detail["unscaled"] = sweep_metrics(
            tally, setups, res["peak_rss_mb"], False
        )
    outcome["metrics"] = metrics
    return outcome, detail


# -- service -------------------------------------------------------------


class Server:
    """``repro serve`` (or its traced twin) in its own process.

    Construction is the set-up being timed: spawn, wait for the listening
    line, and answer one warm-up request (which loads the native kernels
    and the evaluation code paths).
    """

    def __init__(self, run_dir: Path, name: str, traced: bool) -> None:
        store = run_dir / f"{name}.db"
        self.dump = run_dir / f"{name}-spans.json"
        self.log_path = run_dir / f"{name}.log"
        if traced:
            cmd = [
                sys.executable, str(HERE / "serve_traced.py"),
                "--store", str(store), "--dump", str(self.dump),
            ]
        else:
            cmd = [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--store", str(store),
            ]
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                env=child_env(), cwd=ROOT,
            )
        try:
            url = self.wait_for(r"listening on (http://\S+)").group(1)
            parts = urlsplit(url)
            self.host, self.port = parts.hostname, parts.port
            status, _ = post(self.connect(), WARMUP_CELL)
            if status != 200:
                raise BenchError(f"warm-up request answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def wait_for(self, pattern: str, timeout: float = 60.0) -> "re.Match":
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            found = re.search(pattern, self.log_path.read_text("utf-8", "replace"))
            if found:
                return found
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(
            f"server never printed {pattern!r}; log tail: "
            + self.log_path.read_text("utf-8", "replace")[-2000:]
        )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def open_trace_window(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        self.wait_for("TRACE WINDOW OPEN")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024.0

    def kernels(self) -> Dict[str, Any]:
        conn = self.connect()
        try:
            conn.request("GET", "/status")
            return json.loads(conn.getresponse().read())["kernels"]
        finally:
            conn.close()

    def stop(self) -> Optional[Dict[str, Any]]:
        """Stop the server; returns the span dump of a traced one."""
        stop_process(self.proc)
        if self.dump.exists():
            return json.loads(self.dump.read_text())
        return None


def post(
    conn: http.client.HTTPConnection, payload: Dict[str, Any]
) -> Tuple[Optional[int], bytes]:
    body = json.dumps(payload).encode("utf-8")
    try:
        conn.request(
            "POST", "/evaluate", body, {"Content-Type": "application/json"}
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return None, b""


def client_loop(
    server: Server,
    rng: random.Random,
    replies: list,
    deadline: Optional[float],
    count: Optional[int],
) -> None:
    """One closed-loop client: send, wait for the reply, send the next."""
    conn = server.connect()
    answered: List[Tuple[int, float, float]] = []
    try:
        while (
            time.perf_counter() < deadline if count is None
            else len(replies) < count
        ):
            if answered and rng.random() < REPEAT_P:
                cell, fresh = rng.choice(answered), False
            else:
                cell = (
                    rng.choice((3, 5)),
                    rng.choice((1e-2, 1e-3)),
                    10.0 ** rng.uniform(-3.0, 0.0),
                )
                fresh = True
            payload = {
                "family": "genome", "ntasks": 50, "processors": cell[0],
                "pfail": cell[1], "ccr": cell[2],
            }
            t0 = time.perf_counter()
            status, body = post(conn, payload)
            replies.append((cell, fresh, status, body, time.perf_counter() - t0))
            if fresh and status == 200:
                answered.append(cell)
    finally:
        conn.close()


def drive(
    server: Server, seed: int, seconds: Optional[float], count: Optional[int]
) -> Tuple[list, float, float]:
    """Run the clients; returns (replies, window start, window end)."""
    per_client: List[list] = [[] for _ in range(CLIENTS)]
    t0 = time.perf_counter()
    deadline = t0 + seconds if seconds is not None else None
    threads = [
        threading.Thread(
            target=client_loop,
            args=(server, random.Random(f"{seed}/{i}"), per_client[i],
                  deadline, count),
        )
        for i in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for replies in per_client for r in replies], t0, time.perf_counter()


def check_replies(replies: list, seed: int) -> Tuple[int, Dict[str, list], List[str]]:
    """Failed count, latencies by hit/miss, and error notes.

    Every reply for a fingerprint must repeat the first reply's record
    exactly, and a seeded sample of fresh cells must equal the per-cell
    oracle ``run_cell``.
    """
    failed = 0
    errors: List[str] = []
    lat: Dict[str, list] = {"hit": [], "miss": []}
    first: Dict[str, str] = {}
    fresh: List[Tuple[tuple, dict]] = []
    for cell, is_fresh, status, body, latency in replies:
        if status != 200:
            failed += 1
            errors.append(f"status {status} for {cell}: {body[:200]!r}")
            continue
        reply = json.loads(body)
        lat["hit" if reply["cached"] else "miss"].append(latency)
        record = json.dumps(reply["record"], sort_keys=True)
        if first.setdefault(reply["fingerprint"], record) != record:
            failed += 1
            errors.append(f"reply for {cell} differs from the first one")
        if is_fresh:
            fresh.append((cell, reply["record"]))

    from repro.engine.records import record_to_dict
    from repro.experiments.figures import run_cell

    sample = random.Random(seed).sample(
        fresh, min(SERVICE_ORACLE_CELLS, len(fresh))
    )
    for (p, pfail, ccr), record in sample:
        try:
            expect = json.loads(
                json.dumps(record_to_dict(run_cell("genome", 50, p, pfail, ccr)))
            )
        except Exception as exc:  # noqa: BLE001 — a failed check is counted
            expect = repr(exc)
        if expect != record:
            failed += 1
            errors.append(f"oracle differs for {(p, pfail, ccr)}: {expect!r}")
    return failed, lat, errors


def run_service_workload(
    args: argparse.Namespace, run_dir: Path
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    servers: List[Server] = []

    def start(name: str, traced: bool = False) -> Server:
        server = Server(run_dir, name, traced)
        servers.append(server)
        return server

    try:
        if args.trace:
            # Fixed work, the same untraced and traced (one fresh server
            # and store each), so layer totals compare across commits and
            # the two stretches give the tracing overhead.
            count = max(10, round(args.seconds / 2 * NOMINAL_CLIENT_RPS))
            ref_server = start("reference")
            ref, r0, r1 = drive(ref_server, args.seed, None, count)
            kernels = ref_server.kernels()
            ref_server.stop()
            server = start("traced", traced=True)
            server.open_trace_window()
            replies, t0, t1 = drive(server, args.seed, None, count)
            dump = server.stop()
            if dump is None:
                raise BenchError("traced server wrote no spans")
            metrics, absent = summarize(dump, [(t0, t1)])
            metrics["trace.overhead_frac"] = (
                (len(ref) / (r1 - r0)) / (len(replies) / (t1 - t0)) - 1.0
            )
            replies = ref + replies
            extra: Dict[str, Any] = {
                "absent_layers": absent,
                "missing_entry_points": dump["missing"],
            }
        else:
            setups = []
            for i in range(SETUPS - 1):
                server = start(f"setup-{i}")
                setups.append(server.setup_s)
                server.stop()
            server = start("measured")
            setups.append(server.setup_s)
            replies, t0, t1 = drive(server, args.seed, args.seconds, None)
            rss = server.peak_rss_mb()
            kernels = server.kernels()
            server.stop()
            extra = {"setups_s": setups}
    finally:
        for server in servers:
            stop_process(server.proc)

    failed, lat, errors = check_replies(replies, args.seed)
    if not args.trace:
        window = t1 - t0
        ok = len(lat["hit"]) + len(lat["miss"])
        metrics = {
            "setup_s": statistics.median(setups),
            "cells_per_s": len(lat["miss"]) / window,
            "req_per_s": ok / window,
            "hit_latency_p50_ms": 1e3 * quantile(lat["hit"], 0.5),
            "hit_latency_p90_ms": 1e3 * quantile(lat["hit"], 0.9),
            "miss_latency_p50_ms": 1e3 * quantile(lat["miss"], 0.5),
            "miss_latency_p90_ms": 1e3 * quantile(lat["miss"], 0.9),
            "peak_rss_mb": rss,
        }
    detail = {
        "kernels": kernels,
        "clients": CLIENTS,
        "hit_samples": len(lat["hit"]),
        "miss_samples": len(lat["miss"]),
        "errors": errors[:20],
        **extra,
    }
    outcome = {
        "attempted": len(replies),
        "failed": failed,
        "kernels": kernels,
        "metrics": metrics,
    }
    return outcome, detail


# -- driver --------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 prefix over the program's sources (the checkout may have
    no git metadata)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_context(args: argparse.Namespace, kernels: Dict[str, Any]) -> Dict[str, Any]:
    try:
        numpy_version: Optional[str] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    nproc = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernels.get("backend"),
        "kernel_compiler": kernels.get("compiler"),
        "kernel_object": kernels.get("cached_object"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {ROOT / 'src'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2

    # The oracle checks of the service replies run in this process; the
    # native kernels build into the checkout, in every process.
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_NATIVE_CACHE"] = str(CACHE / "native")
    run_dir = CACHE / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == SERVICE:
            outcome, detail = run_service_workload(args, run_dir)
        else:
            outcome, detail = run_sweep_workload(args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    context = run_context(args, outcome["kernels"])
    if context["kernel_backend"] != "native":
        print(
            "perfbench: WARNING: the python kernel fallback served this run "
            f"({outcome['kernels'].get('build_error')}); do not compare it "
            "with native runs",
            file=sys.stderr,
        )
    detail["failed_frac"] = outcome["failed"] / max(1, outcome["attempted"])
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {
        name: {
            "value": value,
            "unit": units.get(
                name,
                "s" if name.endswith(("_s", ".s", ".p50", ".p90")) else "count",
            ),
        }
        for name, value in sorted(outcome["metrics"].items())
    }
    print(json.dumps({"context": context, "detail": detail}))
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": max(1, outcome["attempted"]),
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
