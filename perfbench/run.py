"""sontagctl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the root of a source checkout; the program is imported from
``src/``. One process runs one workload: it measures set-up time in
fresh interpreters, generates the inputs from the seed, then runs whole
passes over the workload's ops until ``--seconds`` have elapsed (at
least one pass; with ``--trace 1`` at least one untraced and one traced
pass, alternating). Every op's output goes through an oracle; an op
that fails or misses its oracle counts as failed.

With ``--trace 0`` the result line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics. The gated
timings ``wall_ref`` and ``op_p50_ref`` are ``wall_s`` and
``op_ms_p50`` with every op timed in units of a reference kernel run
just before it (see ``ReferenceKernel``); the raw seconds are reported
too. A readable
report with sample counts precedes the result line, and the full
report, with the environment, is written to ``.bench_out/``, together
with the spans of a traced run. The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep-default", "simulate-roa", "care-lti")

#: BLAS threads for every process the benchmark runs; at most nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 5
#: op_ms_p90 is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: The reference kernel runs before each untraced op, at least once and
#: until its total time reaches this share of the untraced op time so far.
REF_SHARE = 0.1

SETUP_CHILD = """
import sys, time
src, bench, workload, seed, size, work = sys.argv[1:7]
sys.path[:0] = [src, bench]
t0 = time.perf_counter()
import sontagctl
import workloads
workloads.make_inputs(workload, int(seed), size, work)
print(repr(time.perf_counter() - t0))
"""


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def measure_setup(args, workdir) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), args.workload,
             str(args.seed), args.size, str(workdir / f"setup-{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class ReferenceKernel:
    """Fixed work that never touches sontagctl: numpy arithmetic on a
    1000-row batch and on a single state, and one dense 768x768 LU, in
    about equal parts (like the rollout, simulate and CARE work).

    It runs right before every untraced op (see REF_SHARE). On a shared
    host the speed of the machine swings by tens of percent from one
    minute to the next, and it moves this kernel and the program alike;
    the gated timing metrics divide each op's time by the kernel's time
    just before it, which cancels the swing but not a change of the
    program.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg
        self._np, self._lu = np, scipy.linalg.lu_factor
        self._M = np.array([[1.0, 0.2], [0.2, 2.0]])
        self._X = np.linspace(0.0, 1.0, 2000).reshape(1000, 2)
        self._x = np.array([0.3, 0.1])
        rng = np.random.default_rng(0)
        self._L = rng.normal(size=(768, 768)) + 768.0 * np.eye(768)

    def __call__(self) -> float:
        np, M, X, x = self._np, self._M, self._X, self._x
        acc = 0.0
        for _ in range(600):
            Y = (X @ M) * X
            acc += float(Y.sum(axis=-1).max()) + float(np.sin(X[:, 0]).sum())
        for _ in range(3000):
            acc += float(((x @ M) * x).sum())
        self._lu(self._L, check_finite=False)
        return acc


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "machine": platform.machine(),
    }


def run_passes(args, ops, oracle, tracer):
    """Whole passes over ``ops`` for about ``args.seconds``; returns pass records."""
    import sontagctl
    import workloads
    clock = time.perf_counter
    kernel = ReferenceKernel()
    ref_total = op_total = 0.0
    passes = []
    start = clock()
    while True:
        pass_start = clock()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.reset_counters()
            tracer.install(sontagctl)
        record = {"traced": traced, "ops": [], "ref_s": []}
        try:
            for op in ops:
                tracer.op_id += 1
                ref = None
                if not traced:
                    before = []
                    while not before or ref_total < REF_SHARE * op_total:
                        t0 = clock()
                        kernel()
                        before.append(clock() - t0)
                        ref_total += before[-1]
                    record["ref_s"] += before
                    ref = statistics.median(before)
                seconds, outcome = workloads.call(op, clock)
                record["ops"].append((op, seconds, outcome, ref))
                if not traced:
                    op_total += seconds
        finally:
            if traced:
                tracer.uninstall()
        record["wall_s"] = sum(s for _, s, _, _ in record["ops"])
        checks = [oracle.check(op, outcome) for op, _, outcome, _ in record["ops"]]
        record["checks"] = checks
        if traced:
            record["layers"] = layer_metrics(tracer, record, first=not any(
                p["traced"] for p in passes))
        record["elapsed_s"] = clock() - pass_start
        passes.append(record)
        # Start another pass only if at least half of it fits in the budget,
        # so a run ends on average at --seconds.
        half_pass = _median([p["elapsed_s"] for p in passes]) / 2
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and clock() - start + half_pass > args.seconds:
            return passes


LAYER_SPANS = {
    "linalg.solve_lyapunov": ("linalg.solve_lyapunov",),
    "linalg.is_hurwitz": ("linalg.is_hurwitz",),
    "riccati.solve_care": ("riccati.solve_care",),
    "control.sontag": ("control.SontagController.u",
                       "control.SontagController.closed_loop_deriv",
                       "control.SontagController.evaluate"),
    "control.fbl": ("control.FblController.u",),
    "control.lqr": ("control.LqrController.u",),
    "model.f": ("model.f",),
    "model.G": ("model.G",),
    "model.fG": ("model.f", "model.G"),
    "clf.grad": ("clf.QuadraticClf.grad", "clf.TransformedClf.grad"),
    "clf.value": ("clf.QuadraticClf.value", "clf.TransformedClf.value"),
    "sim.rk4_step": ("sim.rk4_step",),
    "sim.rollout_costs": ("sim.rollout_costs",),
    "sim.simulate": ("sim.simulate",),
    "sim.lyap_decay_check": ("sim.lyap_decay_check",),
    "sim.write_trajectory_csv": ("sim.write_trajectory_csv",),
    "analysis.roa_certify": ("analysis.roa_certify",),
    "analysis.largest_certified_sublevel": ("analysis.largest_certified_sublevel",),
    "analysis.sweep_initial_angles": ("analysis.sweep_initial_angles",),
    "analysis.write_sweep_csv": ("analysis.write_sweep_csv",),
    "analysis.write_roa_csv": ("analysis.write_roa_csv",),
    "config.load_config": ("config.load_config",),
    "cli.main": ("cli.main",),
}
MODULES = ("cli", "config", "analysis", "sim", "control", "clf", "model", "riccati", "linalg")


def layer_metrics(tracer, record, first: bool) -> dict:
    """Per-layer values of one traced pass, as {name: (value, unit)}."""
    import workloads
    from tracing import ROW_NAMES
    calls, self_s, rows = tracer.calls, tracer.self_s, tracer.rows
    m = {}
    for layer, names in LAYER_SPANS.items():
        c = sum(calls[n] for n in names)
        s = sum(self_s[n] for n in names)
        r = sum(rows[n] for n in names)
        m[f"{layer}.calls"] = (c, "count")
        m[f"{layer}.self_s"] = (s, "s")
        if any(n in ROW_NAMES for n in names):
            m[f"{layer}.rows"] = (r, "count")
            m[f"{layer}.us_per_krow"] = (s * 1e9 / r if r else 0.0, "us")
    for mod in MODULES:
        m[f"module.{mod}.self_s"] = (
            sum(v for k, v in self_s.items() if k.split(".", 1)[0] == mod), "s")
    for n in workloads.SIZES["full"]["care_n"]:
        m[f"riccati.solve_care.ms.n{n}"] = (_median(tracer.care_by_n.get(n, [])), "ms")
    care = calls["riccati.solve_care"]
    m["riccati.lyap_per_solve"] = (calls["linalg.solve_lyapunov"] / care if care else 0.0, "ratio")
    steps = calls["sim.rk4_step"]
    m["model.fG_per_rk4_step"] = (
        (calls["model.f"] + calls["model.G"]) / (2 * steps) if steps else 0.0, "ratio")
    for key in ("sim.halted_rows", "sim.lambda_fallbacks", "sim.clf_violation_flags"):
        m[key] = (tracer.counts[key], "count")
    m["analysis.grid_points_per_s"] = (
        tracer.grid_points / tracer.grid_seconds if tracer.grid_seconds else 0.0, "1/s")
    if first:
        m["riccati.rel_err_max"] = (workloads.care_rel_err(tracer.care_solves), "ratio")
    m["io.csv_changed"] = (sum(c.csv_changed for c in record["checks"]), "count")
    m["io.bytes_written"] = (sum(c.bytes_written for c in record["checks"]), "B")
    m["trace.wall_s"] = (record["wall_s"], "s")
    return m


def summarize(passes, setup_times) -> dict:
    """Every metric of the run as {name: {"value", "unit", "samples"}}."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    op_ms = [s * 1e3 for p in plain for _, s, _, _ in p["ops"]]
    op_ref = [s / ref for p in plain for _, s, _, ref in p["ops"]]
    reject_ms = [s * 1e3 for p in plain for op, s, _, _ in p["ops"] if op.kind == "reject"]
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not c.ok for c in checks)
    ref_s = [t for p in plain for t in p["ref_s"]]
    wall_ref = [sum(s / ref for _, s, _, ref in p["ops"]) for p in plain]
    out = {
        "setup_s": (_median(setup_times), "s", len(setup_times)),
        "wall_s": (_median([p["wall_s"] for p in plain]), "s", len(plain)),
        "op_ms_p50": (_median(op_ms), "ms", len(op_ms)),
        "ref_ms": (_median(ref_s) * 1e3, "ms", len(ref_s)),
        "wall_ref": (_median(wall_ref), "ref", len(plain)),
        "op_p50_ref": (_median(op_ref), "ref", len(op_ref)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "failed_ratio": (failed / len(checks), "ratio", len(checks)),
        "io.csv_changed": (_median([sum(c.csv_changed for c in p["checks"]) for p in passes]),
                           "count", len(passes)),
    }
    if len(op_ms) >= 10 * TAIL_SAMPLES:
        out["op_ms_p90"] = (_percentile(op_ms, 90), "ms", len(op_ms))
    if reject_ms:
        out["reject_ms_p50"] = (_median(reject_ms), "ms", len(reject_ms))
    if traced:
        layer_names = traced[0]["layers"].keys()
        for name in layer_names:
            values = [p["layers"][name][0] for p in traced if name in p["layers"]]
            out[name] = (_median(values), traced[0]["layers"][name][1], len(values))
        out["trace.overhead_ratio"] = (out["trace.wall_s"][0] / out["wall_s"][0], "ratio",
                                       len(traced))
    return {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in out.items()}


def result_line(args, metrics, passes, declared) -> dict:
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not c.ok for c in checks)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    chosen = {}
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise SystemExit(f"metric {spec['name']} [{spec['unit']}] was not measured")
        chosen[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": chosen}


def print_report(env, metrics, passes) -> None:
    print(f"# workload {env['workload']}  seed {env['seed']}  trace {env['trace']}"
          f"  size {env['size']}")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  nproc {env['nproc']}  blas_threads {env['blas_threads']}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    if "op_ms_p90" not in metrics:
        n = metrics["op_ms_p50"]["samples"]
        print(f"{'op_ms_p90':44s} {'n/a':>16s} {'ms':6s} n={n} "
              f"(needs {10 * TAIL_SAMPLES} for {TAIL_SAMPLES} beyond p90)")
    for p in passes:
        for (op, _, _, _), c in zip(p["ops"], p["checks"]):
            if not c.ok:
                print(f"FAILED {op.label}: {c.reason}")


def run_workload(args) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        setup_times = measure_setup(args, workdir)
        import workloads
        from tracing import Tracer
        ops = workloads.make_inputs(args.workload, args.seed, args.size, workdir / "run")
        oracle = workloads.Oracle(args.size)
        oracle.prepare(ops)
        tracer = Tracer()
        passes = run_passes(args, ops, oracle, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args)
    metrics = summarize(passes, setup_times)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.csv")
        metrics["trace.spans_dropped"] = {"value": tracer.spans_dropped, "unit": "count",
                                          "samples": 1}
    timings = [{"traced": p["traced"],
                "ops": [[op.label, s, ref] for op, s, _, ref in p["ops"]]} for p in passes]
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "setup_s": setup_times, "passes": timings}, indent=1))
    print_report(env, metrics, passes)
    print(json.dumps(result_line(args, metrics, passes, declared)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; their reports in order."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small shrinks every workload for the smoke check")
    args = parser.parse_args(argv)
    if not (SRC / "sontagctl" / "__init__.py").is_file():
        print(f"error: no sontagctl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
