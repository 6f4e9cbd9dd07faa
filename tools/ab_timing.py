"""Time the working tree's package against a git revision's, side by side.

    python tools/ab_timing.py --against REV [--rounds N]

Extracts REV's ``src`` (``git archive REV src``) into a temporary
directory, renames its package to ``sontagctl_base`` and imports it in
this process beside the working tree's ``sontagctl``. Each round times,
for both packages in turn (the side that goes first alternates), one
``simulate`` per design from 45 degrees, one ``rollout_costs`` per
sweep design over the default sweep's rows, and one ``roa_certify``
followed by ``write_roa_csv`` (into the temporary directory), all at
the default config.
Prints per item the median seconds of each side, the median and the
lower and upper quartiles of the per-round ratios (working tree over
REV; below 1 is faster) and in how many rounds the working tree was
faster. Runs on one BLAS thread.
Timings on a shared host drift; the ratio of two alternating sides
drifts much less than either side alone.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

ROOT = Path(__file__).resolve().parents[1]
DEGREES = 45.0
SIMULATE = ("i", "ii", "iii", "iv")
ROLLOUT = (("sontag", "i"), ("lqr", "iv"), ("fbl", "iii"))


def _jobs(pkg: str, tmp: str) -> dict:
    """Item name -> zero-argument callable, built from package ``pkg``;
    the ``roa`` item writes its CSV into directory ``tmp``."""
    import numpy as np

    analysis = importlib.import_module(f"{pkg}.analysis")
    config = importlib.import_module(f"{pkg}.config")
    control = importlib.import_module(f"{pkg}.control")
    clf_mod = importlib.import_module(f"{pkg}.clf")
    sim = importlib.import_module(f"{pkg}.sim")

    cfg = config.load_config(None)
    results = {d: control.synthesize_design(d, cfg.system, cfg.fbl, cfg.Q, cfg.R)
               for d in SIMULATE}
    one = sim.SimConfig(h=cfg.sim.h, n_steps=cfg.sim.n_steps, zoh=cfg.sim.zoh,
                        x0=np.array([np.radians(DEGREES), 0.0]))
    lo, hi = cfg.theta_range_deg
    thetas = np.linspace(lo, hi, cfg.n_angles)
    X0 = np.stack([np.radians(thetas), np.zeros(cfg.n_angles)])

    def simulate(res):
        clf = res.clf if res.clf is not None else clf_mod.build_lqr_clf(res.lqr)
        return lambda: sim.simulate(cfg.system, res.controller, one, clf=clf)

    def rollout(res):
        return lambda: sim.rollout_costs(cfg.system, res.controller, X0, cfg.Q, cfg.R,
                                         cfg.sim.h, cfg.sim.n_steps, zoh=cfg.sim.zoh)

    def roa():
        cert = analysis.roa_certify(cfg.system, results["i"].clf, lqr=results["iv"].controller,
                                    sontag=results["i"].controller, grid=cfg.grid, C=cfg.sublevel)
        analysis.write_roa_csv(cert, Path(tmp) / f"roa-{pkg}.csv")

    jobs = {f"simulate-{d}": simulate(results[d]) for d in SIMULATE}
    jobs.update({f"rollout-{name}": rollout(results[d]) for name, d in ROLLOUT})
    jobs["roa"] = roa
    return jobs


def _import_base(rev: str, tmp: str) -> str:
    """Extract REV's package into ``tmp`` as ``sontagctl_base``; its own
    imports are relative, so it loads under the new name."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/sontagctl"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    (Path(tmp) / "src" / "sontagctl").rename(Path(tmp) / "sontagctl_base")
    sys.path.insert(0, tmp)
    return "sontagctl_base"


def _seconds(job) -> float:
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="git revision whose src is the baseline")
    parser.add_argument("--rounds", type=int, default=7, help="alternating rounds (default 7)")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("need at least one round")

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": _jobs(_import_base(args.against, tmp), tmp),
                 "tree": _jobs("sontagctl", tmp)}
        times = {side: {item: [] for item in sides[side]} for side in sides}
        for r in range(args.rounds):
            for side in (("base", "tree") if r % 2 == 0 else ("tree", "base")):
                for item, job in sides[side].items():
                    times[side][item].append(_seconds(job))

    print(f"{args.rounds} rounds, 1 BLAS thread; seconds; ratio = working tree / {args.against}")
    print(f"{'item':18s} {'base':>9s} {'tree':>9s} {'ratio':>7s} {'q1':>7s} {'q3':>7s} faster")
    for item in sides["base"]:
        base, tree = times["base"][item], times["tree"][item]
        ratios = [t / b for t, b in zip(tree, base)]
        q1, ratio, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                         if len(ratios) > 1 else ratios * 3)
        faster = sum(t < b for t, b in zip(tree, base))
        print(f"{item:18s} {statistics.median(base):9.4f} {statistics.median(tree):9.4f}"
              f" {ratio:7.3f} {q1:7.3f} {q3:7.3f} {faster}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
