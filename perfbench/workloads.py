"""Workload inputs, program calls and output oracles.

Three workloads, each a fixed list of ops that one pass runs in order:

- ``sweep-default``: ``sontagctl sweep`` at the default configuration
  (1000 angles x designs sontag/fbl/lqr x 1500 RK4 steps, batched 1000
  rows wide);
- ``simulate-roa``: ``sontagctl simulate`` for designs i-iv at
  seed-drawn integer angles, one angle per design in each of four 20
  degree strata of [5, 85], and one ``sontagctl roa`` at the default
  configuration after each group of four simulates;
- ``care-lti``: ``synthesize_design("iv", *lti_system(A, B), I, I)`` on
  seeded random systems with n in {4, 8, 16, 24, 32} and m = max(1,
  n // 4), plus seeded non-stabilizable pairs at n <= 4, which must
  raise ``NotStabilizable``.

An op is one CLI command, or one CARE solve or rejection. The program
receives only what ``make_inputs`` generates from the seed.
``size="small"`` shrinks every workload for the harness smoke check;
the oracles that compare with the seed-commit references then only
check structure.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sontagctl
import sontagctl.cli

REF_DIR = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("sweep-default", "simulate-roa", "care-lti")
DESIGNS = ("i", "ii", "iii", "iv")
THETA_MIN_DEG, THETA_MAX_DEG = 5, 85
#: Relative tolerances of the oracles.
CARE_RTOL = 1e-8
SWEEP_RTOL = 1e-9
#: Stabilized rows of the default sweep (sontag, lqr, fbl).
SWEEP_STABILIZED = {"sontag": 1000, "lqr": 751, "fbl": 1000}

SIZES = {
    "full": {
        "config": None, "n_steps": 1500, "n_angles": 1000, "roa_points": 101 * 101,
        "angle_slots": 4, "care_n": (4, 8, 16, 24, 32), "reject_n": (2, 2, 3, 3, 4),
    },
    "small": {
        "config": {"sim": {"n_steps": 100}, "sweep": {"n_angles": 16},
                   "roa": {"points_per_axis": [21, 21]}},
        "n_steps": 100, "n_angles": 16, "roa_points": 21 * 21,
        "angle_slots": 1, "care_n": (4, 8), "reject_n": (2,),
    },
}


@dataclass
class Op:
    """One program call and what its oracle needs."""

    kind: str                      # sweep | simulate | roa | care | reject
    label: str
    argv: list[str] | None = None
    out: Path | None = None
    design: str | None = None
    deg: int | None = None
    system: tuple | None = None    # (A, B, Q, R) for CARE ops
    ref_P: np.ndarray | None = None


@dataclass
class Outcome:
    """What a call returned; exactly one of the fields is meaningful."""

    rc: int | None = None
    stdout: str = ""
    P: np.ndarray | None = None
    exc: BaseException | None = None


@dataclass
class Check:
    ok: bool
    csv_changed: int = 0
    bytes_written: int = 0
    reason: str = ""


# -- inputs ------------------------------------------------------------------

def _angle_draws(rng, slots: int) -> np.ndarray:
    """Integer angles per (design, slot), one uniform draw in each of
    ``slots`` equal strata of [THETA_MIN_DEG, THETA_MAX_DEG]."""
    edges = np.linspace(THETA_MIN_DEG, THETA_MAX_DEG + 1, slots + 1).astype(int)
    return np.array([[int(rng.integers(edges[j], edges[j + 1])) for j in range(slots)]
                     for _ in DESIGNS])


def _random_lti(rng, n: int):
    m = max(1, n // 4)
    return rng.normal(size=(n, n)) / np.sqrt(n), rng.normal(size=(n, m))


def _non_stabilizable(rng, n: int):
    """Staircase-form pair: a controllable (n-1)-block coupled to one
    unstable mode that no input reaches."""
    k = n - 1
    A = np.zeros((n, n))
    A[:k, :k] = rng.normal(size=(k, k))
    A[:k, k] = rng.normal(size=k)
    A[k, k] = rng.uniform(0.5, 2.0)
    B = np.zeros((n, 1))
    B[:k, 0] = rng.normal(size=k)
    return A, B


def make_inputs(workload: str, seed: int, size: str, workdir) -> list[Op]:
    """The op list of one pass, generated from the seed alone."""
    spec = SIZES[size]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    common = ["--seed", str(seed)]
    if spec["config"] is not None:
        cfg_path = workdir / "config.yaml"
        cfg_path.write_text(json.dumps(spec["config"]))   # JSON is valid YAML
        common += ["--config", str(cfg_path)]

    def cli_op(kind, label, args, **kw):
        out = workdir / label
        return Op(kind=kind, label=label, argv=[kind, *args, "--out", str(out), *common],
                  out=out, **kw)

    if workload == "sweep-default":
        return [cli_op("sweep", "sweep", [])]
    if workload == "simulate-roa":
        angles = _angle_draws(rng, spec["angle_slots"])
        ops = []
        for slot in range(spec["angle_slots"]):
            for d, design in enumerate(DESIGNS):
                deg = int(angles[d, slot])
                ops.append(cli_op("simulate", f"sim-{design}-{slot}",
                                  ["--design", design, "--theta0-deg", str(deg)],
                                  design=design, deg=deg))
            ops.append(cli_op("roa", f"roa-{slot}", []))
        return ops
    if workload == "care-lti":
        ops = []
        for n in spec["care_n"]:
            A, B = _random_lti(rng, n)
            ops.append(Op(kind="care", label=f"care-n{n}",
                          system=(A, B, np.eye(n), np.eye(B.shape[1]))))
        for i, n in enumerate(spec["reject_n"]):
            A, B = _non_stabilizable(rng, n)
            ops.append(Op(kind="reject", label=f"reject-n{n}-{i}",
                          system=(A, B, np.eye(n), np.eye(1))))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- calls -------------------------------------------------------------------

def call(op: Op, clock) -> tuple[float, Outcome]:
    """Run one op through the program's public entry point and time it.

    Names are looked up on the package at call time, so a traced pass
    goes through the wrapped functions.
    """
    if op.kind in ("care", "reject"):
        A, B, Q, R = op.system
        t0 = clock()
        try:
            result = sontagctl.synthesize_design("iv", *sontagctl.lti_system(A, B), Q, R)
        except Exception as exc:  # the oracle decides whether this was expected
            return clock() - t0, Outcome(exc=exc)
        return clock() - t0, Outcome(P=result.lqr.P)
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sontagctl.cli.main(op.argv)
    except Exception as exc:
        return clock() - t0, Outcome(exc=exc)
    return clock() - t0, Outcome(rc=rc, stdout=out.getvalue())


# -- oracles -----------------------------------------------------------------

class Oracle:
    """Checks outputs against independent references and the seed commit."""

    def __init__(self, size: str):
        self.spec = SIZES[size]
        self.refs = json.loads((REF_DIR / "seed_refs.json").read_text()) if size == "full" else None
        self._sweep_costs = None

    def prepare(self, ops: list[Op]) -> None:
        """Reference Riccati solutions from scipy, outside any timing."""
        import scipy.linalg
        for op in ops:
            if op.kind == "care":
                op.ref_P = scipy.linalg.solve_continuous_are(*op.system)

    def check(self, op: Op, res: Outcome) -> Check:
        if op.kind == "care":
            if res.exc is not None:
                return Check(False, reason=f"raised {type(res.exc).__name__}: {res.exc}")
            err = _rel_err(res.P, op.ref_P)
            ok = err <= CARE_RTOL
            return Check(ok, reason="" if ok else f"P rel err {err:.3e}")
        if op.kind == "reject":
            if isinstance(res.exc, sontagctl.NotStabilizable):
                return Check(True)
            got = "a design" if res.exc is None else type(res.exc).__name__
            return Check(False, reason=f"expected NotStabilizable, got {got}")
        if res.exc is not None:
            return Check(False, reason=f"raised {type(res.exc).__name__}: {res.exc}")
        if res.rc != 0:
            return Check(False, reason=f"exit code {res.rc}")
        csv_name = {"sweep": "sweep.csv", "simulate": "trajectory.csv", "roa": "roa.csv"}[op.kind]
        path = op.out / csv_name
        if not path.is_file():
            return Check(False, reason=f"{csv_name} missing")
        data = path.read_bytes()
        nbytes = sum(p.stat().st_size for p in op.out.iterdir() if p.is_file())
        rows = list(csv.reader(io.StringIO(data.decode())))
        ok, reason = getattr(self, f"_check_{op.kind}")(op, res.stdout, rows)
        changed = 0
        if self.refs is not None:
            changed = int(hashlib.sha256(data).hexdigest() != self._ref_sha(op))
        return Check(ok, csv_changed=changed, bytes_written=nbytes, reason=reason)

    def _ref_sha(self, op: Op) -> str:
        if op.kind == "simulate":
            return self.refs["trajectory"][op.design][str(op.deg)]["sha256"]
        return self.refs[op.kind]["sha256"]

    def _check_sweep(self, op, stdout, rows):
        body = rows[1:]
        if len(body) != self.spec["n_angles"]:
            return False, f"sweep.csv has {len(body)} rows"
        J = np.array([[float(v) for v in r[1:4]] for r in body])
        stab = {name: sum(int(r[col]) for r in body)
                for name, col in (("sontag", 6), ("lqr", 7), ("fbl", 8))}
        if self.refs is None:
            return True, ""
        if stab != SWEEP_STABILIZED:
            return False, f"stabilized counts {stab}"
        if self._sweep_costs is None:
            with open(REF_DIR / "sweep_costs.csv") as fh:
                self._sweep_costs = np.array([[float(v) for v in r] for r in csv.reader(fh)])
        ref = self._sweep_costs
        same_inf = np.array_equal(np.isinf(J), np.isinf(ref))
        finite = np.isfinite(ref)
        if not same_inf or not np.allclose(J[finite], ref[finite], rtol=SWEEP_RTOL, atol=0.0):
            return False, "sweep costs differ from the seed reference"
        return True, ""

    def _check_simulate(self, op, stdout, rows):
        body = rows[1:]
        full = self.spec["n_steps"] + 1
        halted = bool(body) and any(f in body[-1][-1] for f in ("divergence", "domain_violation"))
        if not body or len(body) > full or (len(body) < full and not halted):
            return False, f"trajectory.csv has {len(body)} rows"
        if self.refs is not None:
            want = self.refs["trajectory"][op.design][str(op.deg)]["stabilized"]
            if f"stabilized = {want}" not in stdout:
                return False, f"stabilized differs from the seed reference ({want})"
        return True, ""

    def _check_roa(self, op, stdout, rows):
        if len(rows) - 1 != self.spec["roa_points"]:
            return False, f"roa.csv has {len(rows) - 1} rows"
        if "subset_holds = True" not in stdout:
            return False, "LQR members not contained in Sontag members"
        return True, ""


def _rel_err(P, ref) -> float:
    return float(np.abs(P - ref).max() / np.abs(ref).max())


def care_rel_err(solves) -> float:
    """Largest relative distance of traced Riccati solutions from scipy's."""
    import scipy.linalg
    return max((_rel_err(P, scipy.linalg.solve_continuous_are(A, B, Q, R))
                for A, B, Q, R, P in solves), default=0.0)
