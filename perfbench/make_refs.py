"""Record the references that the benchmark's oracles compare with.

    python3 perfbench/make_refs.py

Runs the default ``sweep`` and ``roa``, and ``simulate`` for every design
at every integer angle the simulate-roa workload can draw, then writes
``refs/seed_refs.json`` (sha256 of each CSV and the stabilized verdict of
each simulate) and ``refs/sweep_costs.csv`` (the sweep's J_sontag,
J_lqr and J_fbl columns as printed). The committed files were recorded
from the unmodified initial sources; record them again only together
with a documented change of the outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from workloads import Op

    work = ROOT / ".bench_out" / f"refs-{os.getpid()}"
    clock = time.perf_counter

    def run(kind, label, args, **kw):
        out = work / label
        op = Op(kind=kind, label=label, argv=[kind, *args, "--out", str(out)], out=out, **kw)
        _, res = workloads.call(op, clock)
        if res.rc != 0:
            raise SystemExit(f"{op.argv} failed: {res.exc or res.rc}")
        return op, res

    def sha(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    try:
        refs = {"trajectory": {}}
        op, _ = run("sweep", "sweep", [])
        refs["sweep"] = {"sha256": sha(op.out / "sweep.csv")}
        with open(op.out / "sweep.csv") as src, \
                open(workloads.REF_DIR / "sweep_costs.csv", "w", newline="") as dst:
            rows = list(csv.reader(src))[1:]
            dst.writelines(",".join(r[1:4]) + "\n" for r in rows)
        op, _ = run("roa", "roa", [])
        refs["roa"] = {"sha256": sha(op.out / "roa.csv")}
        for design in workloads.DESIGNS:
            table = refs["trajectory"][design] = {}
            for deg in range(workloads.THETA_MIN_DEG, workloads.THETA_MAX_DEG + 1):
                op, res = run("simulate", "sim", ["--design", design, "--theta0-deg", str(deg)],
                              design=design, deg=deg)
                table[str(deg)] = {"sha256": sha(op.out / "trajectory.csv"),
                                   "stabilized": "stabilized = True" in res.stdout}
        (workloads.REF_DIR / "seed_refs.json").write_text(json.dumps(refs, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
