#!/usr/bin/env python3
"""Self-check of the benchmark: every workload at minimal length.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

For each workload, untraced and traced, it asserts that

* every metric ``BENCHMARK.json`` names is emitted, with its unit, and
  no other;
* no operation failed;
* the traced run's accounting sums: top-level spans plus
  ``trace.unaccounted_s`` equal ``trace.wall_s``.

It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seconds per checked run: short, since only the output is checked.
SECONDS = 2


def run(cwd: Path, args: List[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(
        ROOT,
        ["--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
         "--trace", str(trace)],
    )
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["failed"] == 0 and result["correct"], (
        f"{where}: {result['failed']} of {result['attempted']} failed\n"
        + proc.stdout.strip().splitlines()[-2]
    )
    wanted = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{where}: metrics differ from BENCHMARK.json: " + str(
        {k: (got.get(k), wanted.get(k)) for k in set(got) ^ set(wanted)}
    )
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        wall = values["trace.wall_s"]
        total = values["trace.toplevel_s"] + values["trace.unaccounted_s"]
        assert abs(total - wall) <= 1e-9 * max(1.0, wall), (where, total, wall)
        assert 0.0 <= values["trace.unaccounted_s"] <= wall, (where, values)
    else:
        assert all(v > 0 for v in values.values()), (where, values)
    print(f"ok  {where}: {result['attempted']} operations")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark: a clean refusal."""
    bare = ROOT / ".perfbench_cache" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = run(
            bare,
            ["--workload", "genome300-normal", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"metrics"' not in proc.stdout, "printed a result without sources"
    print("ok  refuses to run without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
