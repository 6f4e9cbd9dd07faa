"""Grid certification of attraction regions and the initial-angle sweep.

Grid checks here are sampling, not formal certificates: membership is
exact at the sampled points and says nothing in between. A sublevel
constant is an order statistic of the sampled CLF values, decided by the
exact sign of each sample's CLF derivative, and sweep rows are produced
in deterministic angle order.
The sweep's three design rollouts run at the same time in forked worker
processes, at most one per design; each rollout is computed whole by one
process, so the results do not depend on the worker count.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from .linalg import _row_dot, _row_max_abs, as_vector
from .model import SystemModel
from .sim import SimConfig, _closed_loop, rollout_costs

#: The designs an angle sweep compares, in the order their rollouts
#: start. At the default config the Sontag law's rollout (~0.63 s) runs
#: alone on one of two workers, and the LQR's (~0.35 s) then the FBL
#: law's (~0.38 s) run on the other, which bounds the sweep. No other
#: split of three whole rollouts over two workers finishes sooner.
_SWEEP_DESIGNS = ("sontag", "lqr", "fbl")


@dataclass(frozen=True)
class GridSpec:
    """A rectangular grid of evaluation points."""

    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: tuple[int, ...]

    def __post_init__(self):
        lower = as_vector(self.lower, "lower")
        upper = as_vector(self.upper, "upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        points = tuple(operator.index(k) for k in self.points_per_axis)  # integers only
        object.__setattr__(self, "points_per_axis", points)
        if lower.shape != upper.shape or len(self.points_per_axis) != lower.shape[0]:
            raise ValueError("grid bounds and axis counts disagree")
        if not np.all(lower < upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if any(k < 2 for k in self.points_per_axis):
            raise ValueError("need at least two points per axis")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, k)
                for lo, hi, k in zip(self.lower, self.upper, self.points_per_axis)]

    def points(self) -> np.ndarray:
        """The grid as a (dim, N) stack, the last axis varying fastest."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh).reshape(self.dim, -1)


@dataclass(frozen=True)
class RoaCertificate:
    """Grid membership of the sampled attraction-region sets.

    A point is a member when it is nonzero, lies in the sublevel set
    V <= C, and the CLF strictly decays there under the controller
    (Vdot < 0). ``C_lqr`` and ``C_sontag`` are each law's largest
    sampled sublevel constant on the grid, each a sampled V (or 0).
    ``points`` is (N, dim), one row per point.
    """

    C: float
    C_lqr: float
    C_sontag: float
    grid: GridSpec
    points: np.ndarray
    values: np.ndarray
    members_lqr: np.ndarray
    members_sontag: np.ndarray
    subset_holds: bool


@dataclass
class SweepResult:
    """Costs, ratios, and stabilization flags over initial angles."""

    theta0_deg: np.ndarray
    j_sontag: np.ndarray
    j_lqr: np.ndarray
    j_fbl: np.ndarray
    ratio_lqr: np.ndarray
    ratio_fbl: np.ndarray
    stab_sontag: np.ndarray
    stab_lqr: np.ndarray
    stab_fbl: np.ndarray

    def summary_lines(self) -> list[str]:
        lines = []
        for name, stab in (("sontag", self.stab_sontag), ("lqr", self.stab_lqr),
                           ("fbl", self.stab_fbl)):
            if stab.any():
                th = self.theta0_deg[stab]
                lines.append(f"{name}: stabilized {int(stab.sum())}/{stab.size} angles"
                             f" ({th.min():.3g} to {th.max():.3g} deg)")
            else:
                lines.append(f"{name}: stabilized 0/{stab.size} angles")
        for name, ratio in (("ratio_lqr", self.ratio_lqr), ("ratio_fbl", self.ratio_fbl)):
            finite = ratio[np.isfinite(ratio)]
            if finite.size:
                lines.append(f"{name}: min {finite.min():.6g}, max {finite.max():.6g}"
                             f" over {finite.size} rows")
            else:
                lines.append(f"{name}: no finite rows")
        return lines


def _origin_ring(grid: GridSpec) -> np.ndarray:
    """Indices of the grid nodes immediately surrounding the node
    closest to the origin (the innermost shell of the grid): those at
    Chebyshev index distance 1 from it."""
    center = [np.argmin(np.abs(ax)) for ax in grid.axes()]
    idx = np.indices(grid.points_per_axis).reshape(grid.dim, -1)
    dist = np.abs(idx - np.array(center)[:, None]).max(axis=0)
    return np.flatnonzero(dist == 1)


def _largest_sublevel(V: np.ndarray, nonzero: np.ndarray, decays: np.ndarray,
                      ring: np.ndarray) -> float:
    """Largest sampled C such that every nonzero sample with V <= C
    decays: the largest nonzero sample's V strictly below the smallest V
    of a nonzero sample that does not decay. It is 0 when no sample lies
    below, or when the innermost shell ``ring`` around the origin fails."""
    if not bool(np.all(decays[ring])):
        return 0.0
    Vnz = V[nonzero]
    failing = Vnz[~decays[nonzero]].min(initial=np.inf)
    return float(Vnz[Vnz < failing].max(initial=0.0))


def roa_certify(sys: SystemModel, clf, *, lqr, sontag, grid: GridSpec,
                C: float | None = None) -> RoaCertificate:
    """Evaluate membership of every grid point in the sampled
    attraction sets of the LQR and the Sontag-type controller and test
    whether the LQR members are contained in the Sontag members.

    The grid, V, its gradient and each law's closed loop are evaluated
    once. A point decays under a law when its Vdot is negative, an exact
    sign. Each law's largest certified sublevel constant comes from
    these; C defaults to the larger of the two."""
    if C is not None and not C >= 0:
        raise ValueError("sublevel constant must be nonnegative")
    pts = grid.points()
    nonzero = _row_max_abs(pts) > 0.0
    V = np.asarray(clf.value(pts), dtype=float)
    grad = np.asarray(clf.grad(pts), dtype=float)
    decays_lqr, decays_sontag = (_row_dot(grad, _closed_loop(sys, law)(pts)[0]) < 0.0
                                 for law in (lqr, sontag))
    ring = _origin_ring(grid)
    C_lqr = _largest_sublevel(V, nonzero, decays_lqr, ring)
    C_sontag = _largest_sublevel(V, nonzero, decays_sontag, ring)
    if C is None:
        C = max(C_lqr, C_sontag)
    in_level = nonzero & (V <= C)
    mem_lqr = in_level & decays_lqr
    mem_sontag = in_level & decays_sontag
    subset = bool(np.all(mem_sontag | ~mem_lqr))
    return RoaCertificate(C=float(C), C_lqr=C_lqr, C_sontag=C_sontag, grid=grid, points=pts.T,
                          values=V, members_lqr=mem_lqr, members_sontag=mem_sontag,
                          subset_holds=subset)


#: A worker's jobs. Set only in forked workers, by their pool initializer.
_worker_jobs: tuple = ()


def _init_worker(jobs: tuple) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _run_worker_job(index: int):
    return _worker_jobs[index]()


def _run_each(jobs: tuple) -> list:
    """Each job's result, in job order.

    The jobs run at the same time in forked worker processes, one worker
    per job and per usable CPU. They run in this process, one after
    another, where only one CPU is usable, where the platform cannot
    fork, or where this process is a daemon (a ``multiprocessing.Pool``
    worker), which may start no process. The jobs reach the workers
    through fork, never pickled: they may hold closures. Only a job's
    index goes out and its result comes back. A job's exception is
    raised here, and every worker has exited when this returns or
    raises.
    """
    # Imported here, not with the module: the pool machinery takes 16-23 ms
    # to import, which every other command would pay.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    getaffinity = getattr(os, "sched_getaffinity", None)
    cpus = len(getaffinity(0)) if getaffinity else (os.cpu_count() or 1)
    workers = min(len(jobs), cpus)
    if workers < 2 or not hasattr(os, "fork") or multiprocessing.current_process().daemon:
        return [job() for job in jobs]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(jobs,)) as pool:
        futures = [pool.submit(_run_worker_job, i) for i in range(len(jobs))]
        return [future.result() for future in futures]


def sweep_initial_angles(sys: SystemModel, designs: Mapping[str, object], Q, R,
                         cfg: SimConfig, n_angles: int = 1000,
                         theta_range_deg: tuple[float, float] = (0.0, 89.0)) -> SweepResult:
    """Simulate each design from rest at equidistant initial angles and
    compare quadratic costs.

    ``designs`` must map 'sontag', 'lqr', and 'fbl' to controllers.
    Ratios are the Sontag cost over the other design's cost, defined
    only where the denominator run stabilized (NaN marks unavailable),
    with the all-zero equilibrium row set to 1 by convention.

    Each design's rollout over all angles is one ``rollout_costs`` call.
    The three calls run at the same time in forked worker processes, at
    most one worker per design and per usable CPU, or one after another
    in this process where one CPU is usable, the platform has no
    ``fork`` or this process is a daemon. Every row is bitwise what the
    in-process call gives, whatever the worker count.
    """
    for key in _SWEEP_DESIGNS:
        if key not in designs:
            raise ValueError(f"designs must provide a {key!r} controller")
    if sys.n != 2:
        raise ValueError("the angle sweep expects a (angle, rate) state")
    lo, hi = theta_range_deg
    thetas = np.linspace(lo, hi, n_angles)
    X0 = np.stack([np.radians(thetas), np.zeros(n_angles)])

    jobs = tuple(partial(rollout_costs, sys, designs[name], X0, Q, R, cfg.h, cfg.n_steps,
                         zoh=cfg.zoh) for name in _SWEEP_DESIGNS)
    J = {}
    stab = {}
    for name, (costs, stabilized, _) in zip(_SWEEP_DESIGNS, _run_each(jobs)):
        J[name], stab[name] = costs, stabilized

    def ratio_to(denom: str) -> np.ndarray:
        out = np.full(n_angles, np.nan)
        ok = stab[denom] & np.isfinite(J[denom]) & (J[denom] > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[ok] = J["sontag"][ok] / J[denom][ok]
        both_zero = stab[denom] & (J[denom] == 0.0) & (J["sontag"] == 0.0)
        out[both_zero] = 1.0
        return out

    return SweepResult(
        theta0_deg=thetas,
        j_sontag=J["sontag"], j_lqr=J["lqr"], j_fbl=J["fbl"],
        ratio_lqr=ratio_to("lqr"), ratio_fbl=ratio_to("fbl"),
        stab_sontag=stab["sontag"], stab_lqr=stab["lqr"], stab_fbl=stab["fbl"],
    )


def write_sweep_csv(result: SweepResult, path) -> None:
    """Sweep rows as CSV; +inf costs print as 'inf' and unavailable
    ratios as empty fields. The body is formatted in one pass and
    written once."""
    header = ("theta0_deg,J_sontag,J_lqr,J_fbl,ratio_lqr,ratio_fbl,"
              "stab_sontag,stab_lqr,stab_fbl")
    cells = np.column_stack([result.theta0_deg, result.j_sontag, result.j_lqr, result.j_fbl,
                             result.ratio_lqr, result.ratio_fbl, result.stab_sontag,
                             result.stab_lqr, result.stab_fbl]).ravel().tolist()
    lqr_ok = (~np.isnan(result.ratio_lqr)).tolist()
    fbl_ok = (~np.isnan(result.ratio_fbl)).tolist()
    # One format per ratio availability; "%.0s" takes its value and
    # prints nothing, leaving the field empty.
    num, empty = "%.17g,", "%.0s,"
    fmt = {(ok_l, ok_f): (num * 4 + (num if ok_l else empty) + (num if ok_f else empty)
                          + "%d,%d,%d\n")
           for ok_l in (True, False) for ok_f in (True, False)}
    body = "".join(fmt[ok_l, ok_f] for ok_l, ok_f in zip(lqr_ok, fbl_ok))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.write(body % tuple(cells))


def write_roa_csv(cert: RoaCertificate, path) -> None:
    """Grid membership as CSV: coordinates, CLF value, member flags. A
    grid repeats each axis value once per row of the others, so each float
    column formats each distinct bit pattern (-0.0 and NaN payloads apart)
    once, found by a dict: ``np.unique`` raised peak RSS by ~0.5 MB."""
    n = cert.points.shape[1]
    header = [f"x{i + 1}" for i in range(n)] + ["V", "member_lqr", "member_sontag"]
    columns = []
    for column in (*cert.points.T, cert.values):
        bits = np.asarray(column, dtype=float).view(np.int64).tolist()
        distinct = list(dict.fromkeys(bits))
        values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
        texts = ("%.17g\n" * len(values) % tuple(values)).splitlines()
        columns.append(list(map(dict(zip(distinct, texts)).__getitem__, bits)))
    columns.append(["1" if m else "0" for m in cert.members_lqr.tolist()])
    columns.append(["1\n" if m else "0\n" for m in cert.members_sontag.tolist()])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(",".join, zip(*columns)))


__all__ = [
    "GridSpec",
    "RoaCertificate",
    "SweepResult",
    "roa_certify",
    "sweep_initial_angles",
    "write_roa_csv",
    "write_sweep_csv",
]
