"""Smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at reduced size (``--size small``), untraced and
traced, and asserts that each run exits 0 with correct outputs and
emits every metric BENCHMARK.json names, with its unit, in the result
line and with a sample count in the readable report. Then checks that
the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep-default", "simulate-roa", "care-lti")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=300)


def check_run(workload: str, trace: int, declared: list[dict]) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, f"{where}: metric names differ"
    report = lines[:-1]
    for spec in declared:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], f"{where}: {spec['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            f"{where}: {spec['name']} = {got['value']!r}"
        assert any(line.split()[:1] == [spec["name"]] and spec["unit"] in line.split()
                   and " n=" in line for line in report), \
            f"{where}: {spec['name']} missing from the report"
    print(f"ok  {where}: {len(metrics)} metrics, {result['attempted']} ops")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"metrics"' not in proc.stdout, "printed a result without the program's sources"
    print("ok  refuses to run without the program's sources")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        check_run(workload, 0, declared["end_to_end"])
        check_run(workload, 1, declared["per_layer"])
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
