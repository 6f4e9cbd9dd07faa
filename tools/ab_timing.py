"""Time the working tree's package against a git revision's, side by side.

    python tools/ab_timing.py --against REV [--rounds N]

Extracts REV's ``src`` (``git archive REV src``) twice into a temporary
directory, as the packages ``sontagctl_base`` and ``sontagctl_ctrl``,
and imports both in this process beside the working tree's
``sontagctl``. The items are one ``simulate`` per design from 45
degrees, one ``rollout_costs`` per sweep design over the default
sweep's rows, and one ``roa_certify`` followed by ``write_roa_csv``
(into the temporary directory), all at the default config, and ``care``,
one ``synthesize_design("iv", *lti_system(A, B), I, I)`` on a seeded
n = 32, m = 8 system drawn as the benchmark's ``care-lti`` draws them
(the LTI model's construction and check, the CARE solve). Each round
runs the items in a shuffled order and each item on the three packages
in a shuffled order, both drawn from a fixed seed, so that no side
keeps the first or last place.
Prints per item the median seconds of REV and of the working tree, the
median and the lower and upper quartiles of the per-round ratios
(working tree over REV; below 1 is faster), in how many rounds the
working tree was faster, and the same median and quartiles for the
control ratio, REV's second copy over REV: the same code on both sides,
so how far its quartiles stray from 1 is the bias and noise of the
host. Runs on one BLAS thread.
Timings on a shared host drift; the ratio of two interleaved sides
drifts much less than either side alone.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import random
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
#: Seed of the run order; fixed, so that reruns shuffle alike.
ORDER_SEED = 2027
#: Size and seed of the ``care`` item's system.
CARE_N, CARE_SEED = 32, 2029


def _jobs(pkg: str, tmp: str) -> dict:
    """Item name -> zero-argument callable, built from package ``pkg``;
    the ``roa`` item writes its CSV into directory ``tmp``."""
    import numpy as np

    analysis = importlib.import_module(f"{pkg}.analysis")
    config = importlib.import_module(f"{pkg}.config")
    control = importlib.import_module(f"{pkg}.control")
    model = importlib.import_module(f"{pkg}.model")
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
    rng = np.random.default_rng(CARE_SEED)
    A = rng.normal(size=(CARE_N, CARE_N)) / np.sqrt(CARE_N)
    B = rng.normal(size=(CARE_N, CARE_N // 4))
    I_n, I_m = np.eye(CARE_N), np.eye(CARE_N // 4)

    jobs["roa"] = roa
    jobs["care"] = lambda: control.synthesize_design("iv", *model.lti_system(A, B), I_n, I_m)
    return jobs


def _import_rev(rev: str, tmp: str, name: str) -> str:
    """Extract REV's package into ``tmp`` as ``name``; its own imports are
    relative, so it loads under the new name."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/sontagctl"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    (Path(tmp) / "src" / "sontagctl").rename(Path(tmp) / name)
    if tmp not in sys.path:
        sys.path.insert(0, tmp)
    return name


def _quartiles(values: list) -> list:
    """[q1, median, q3] of ``values``."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _seconds(job) -> float:
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="git revision whose src is the baseline")
    parser.add_argument("--rounds", type=int, default=7, help="shuffled rounds (default 7)")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("need at least one round")

    sys.path.insert(0, str(ROOT / "src"))
    rng = random.Random(ORDER_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: _jobs(_import_rev(args.against, tmp, f"sontagctl_{side}"), tmp)
                 for side in ("base", "ctrl")}
        sides["tree"] = _jobs("sontagctl", tmp)
        times = {side: {item: [] for item in sides[side]} for side in sides}
        items, order = list(sides["tree"]), list(sides)
        for _ in range(args.rounds):
            rng.shuffle(items)
            for item in items:
                rng.shuffle(order)
                for side in order:
                    times[side][item].append(_seconds(sides[side][item]))

    print(f"{args.rounds} rounds, 1 BLAS thread; seconds; ratio = working tree / {args.against};"
          f" control = {args.against} / {args.against}")
    print(f"{'item':18s} {'base':>9s} {'tree':>9s} {'ratio':>7s} {'q1':>7s} {'q3':>7s} faster"
          f" {'control':>7s} {'q1':>7s} {'q3':>7s}")
    for item in sides["base"]:
        base, tree, ctrl = (times[side][item] for side in ("base", "tree", "ctrl"))
        q1, ratio, q3 = _quartiles([t / b for t, b in zip(tree, base)])
        c1, control, c3 = _quartiles([c / b for c, b in zip(ctrl, base)])
        faster = sum(t < b for t, b in zip(tree, base))
        print(f"{item:18s} {statistics.median(base):9.4f} {statistics.median(tree):9.4f}"
              f" {ratio:7.3f} {q1:7.3f} {q3:7.3f} {faster:>2d}/{args.rounds:<3d}"
              f" {control:7.3f} {c1:7.3f} {c3:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
