#!/usr/bin/env python3
"""Smoke test of the benchmark harness.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced twice and
traced once with one seed, and checks that
  - each run exits 0 and ends with a well-formed result line,
  - the metric names and units printed match BENCHMARK.json,
  - all three runs print the same result digest,
  - in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits nonzero without printing a result.
Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        "bench/run.py",
        "--workload",
        workload,
        "--seed",
        str(SEED),
        "--seconds",
        "0.2",
        "--trace",
        str(trace),
        "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(name: str, spec: dict, failures: list) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    digests = []
    for trace in (0, 0, 1):
        proc = run(ROOT, name, trace)
        if proc.returncode != 0:
            failures.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            return
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"{name} trace={trace}: result keys {sorted(result)}")
        if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
            failures.append(f"{name} trace={trace}: result {result['correct']}, "
                            f"{result['attempted']} attempted, {result['failed']} failed")
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        if units != expected[trace]:
            missing = sorted(set(expected[trace]) ^ set(units))
            failures.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json {missing}")
        digests += [line.split()[-1] for line in lines if line.startswith("digest ")]
    if len(digests) != 3 or len(set(digests)) != 1:
        failures.append(f"{name}: digests differ between runs with one seed: {digests}")


def check_without_sources(spec: dict, failures: list) -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("without sources the benchmark did not fail cleanly")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec, failures)
        print(f"{workload['name']}: done", flush=True)
    check_without_sources(spec, failures)
    for failure in failures:
        print("FAIL", failure)
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
