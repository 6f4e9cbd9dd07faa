"""Grid certification of attraction regions and the initial-angle sweep.

Grid checks here are sampling, not formal certificates: membership and
violation reports are exact at the sampled points and say nothing in
between. Sublevel constants come from a bisection over the sampled
CLF values, and sweep rows are produced in deterministic angle order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linalg import _row_dot, _row_max_abs, as_matrix, as_square, as_vector, symmetrize
from .model import FeedbackLinearization, SystemModel, apply_input
from .sim import SimConfig, _closed_loop, rollout_costs

#: Grid membership requires the CLF derivative below this margin.
VDOT_TOL = 1e-12
#: Scale-aware threshold for treating the input direction as zero.
BETA_TOL = 1e-9
#: Bisection iterations for the largest certified sublevel constant.
BISECTION_ITERS = 40


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
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)


@dataclass(frozen=True)
class RoaCertificate:
    """Grid membership of the sampled attraction-region sets.

    A point is a member when it is nonzero, lies in the sublevel set
    V <= C, and the CLF strictly decays there under the controller.
    ``C_lqr`` and ``C_sontag`` are each law's largest sampled sublevel
    constant on the grid.
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


@dataclass(frozen=True)
class GlobalClfReport:
    """Sampled check of the transformed-coordinates CLF condition."""

    n_checked: int
    violations: np.ndarray
    ok: bool


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


def _vdot_under(sys: SystemModel, clf, controller, pts: np.ndarray) -> np.ndarray:
    U, fX, GX, _ = _closed_loop(sys, controller, pts)
    xdot = fX + apply_input(GX, U)
    return _row_dot(np.asarray(clf.grad(pts), dtype=float), xdot)


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
    """Largest C such that every nonzero sample with V <= C decays,
    found by bisection over the sampled values. Returns 0 when the
    innermost shell ``ring`` around the origin already fails, or when
    the certified sublevel contains no sample at all."""
    if ring.size and not bool(np.all(decays[ring])):
        return 0.0
    Vnz = V[nonzero]
    ok = decays[nonzero]
    if bool(np.all(ok)):
        return float(Vnz.max())
    lo, hi = 0.0, float(Vnz.max())
    for _ in range(BISECTION_ITERS):
        mid = 0.5 * (lo + hi)
        if bool(np.all(ok[Vnz <= mid])):
            lo = mid
        else:
            hi = mid
    if not bool(np.any(Vnz <= lo)):
        return 0.0
    return lo


def roa_certify(sys: SystemModel, clf, *, lqr, sontag, grid: GridSpec,
                C: float | None = None) -> RoaCertificate:
    """Evaluate membership of every grid point in the sampled
    attraction sets of the LQR and the Sontag-type controller and test
    whether the LQR members are contained in the Sontag members.

    The grid, V and each law's decay mask are evaluated once. Each
    law's largest certified sublevel constant comes from them; C
    defaults to the larger of the two."""
    if C is not None and not C >= 0:
        raise ValueError("sublevel constant must be nonnegative")
    pts = grid.points()
    nonzero = _row_max_abs(pts) > 0.0
    V = np.asarray(clf.value(pts), dtype=float)
    decays_lqr = _vdot_under(sys, clf, lqr, pts) < -VDOT_TOL
    decays_sontag = _vdot_under(sys, clf, sontag, pts) < -VDOT_TOL
    ring = _origin_ring(grid)
    C_lqr = _largest_sublevel(V, nonzero, decays_lqr, ring)
    C_sontag = _largest_sublevel(V, nonzero, decays_sontag, ring)
    if C is None:
        C = max(C_lqr, C_sontag)
    in_level = nonzero & (V <= C)
    mem_lqr = in_level & decays_lqr
    mem_sontag = in_level & decays_sontag
    subset = bool(np.all(mem_sontag | ~mem_lqr))
    return RoaCertificate(C=float(C), C_lqr=C_lqr, C_sontag=C_sontag, grid=grid, points=pts,
                          values=V, members_lqr=mem_lqr, members_sontag=mem_sontag,
                          subset_holds=subset)


def global_clf_sample_check(fbl: FeedbackLinearization, P_tilde, grid: GridSpec) -> GlobalClfReport:
    """Sample the transformed-coordinates CLF condition on a grid.

    At each nonzero point z the check requires either a strictly
    negative drift quadratic form z'(A'P + PA)z / 2 or an input
    direction z'P B above BETA_TOL |z|. Reports the violating points
    (expected: none for a valid construction).
    """
    P = symmetrize(as_square(P_tilde, "P_tilde"))
    A = as_square(fbl.A_tilde, "A_tilde")
    B = as_matrix(fbl.B_tilde, "B_tilde")
    Z = grid.points()
    nonzero = _row_max_abs(Z) > 0.0
    M = symmetrize(A.T @ P + P @ A)
    alpha = 0.5 * _row_dot(Z @ M, Z)
    beta = Z @ (P @ B)
    z_norm = np.sqrt(_row_dot(Z, Z))
    has_input = _row_max_abs(beta) > BETA_TOL * z_norm
    violating = nonzero & ~(alpha < 0.0) & ~has_input
    return GlobalClfReport(n_checked=int(nonzero.sum()),
                           violations=Z[violating],
                           ok=not bool(violating.any()))


def sweep_initial_angles(sys: SystemModel, designs: Mapping[str, object], Q, R,
                         cfg: SimConfig, n_angles: int = 1000,
                         theta_range_deg: tuple[float, float] = (0.0, 89.0)) -> SweepResult:
    """Simulate each design from rest at equidistant initial angles and
    compare quadratic costs.

    ``designs`` must map 'sontag', 'lqr', and 'fbl' to controllers.
    Ratios are the Sontag cost over the other design's cost, defined
    only where the denominator run stabilized (NaN marks unavailable),
    with the all-zero equilibrium row set to 1 by convention.
    """
    for key in ("sontag", "lqr", "fbl"):
        if key not in designs:
            raise ValueError(f"designs must provide a {key!r} controller")
    if sys.n != 2:
        raise ValueError("the angle sweep expects a (angle, rate) state")
    lo, hi = theta_range_deg
    thetas = np.linspace(lo, hi, n_angles)
    X0 = np.stack([np.radians(thetas), np.zeros(n_angles)], axis=-1)

    J = {}
    stab = {}
    for name in ("sontag", "lqr", "fbl"):
        J[name], stab[name], _ = rollout_costs(
            sys, designs[name], X0, Q, R, cfg.h, cfg.n_steps, zoh=cfg.zoh)

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
    ratios as empty fields."""
    header = ("theta0_deg,J_sontag,J_lqr,J_fbl,ratio_lqr,ratio_fbl,"
              "stab_sontag,stab_lqr,stab_fbl")
    rows = np.column_stack([result.theta0_deg, result.j_sontag, result.j_lqr, result.j_fbl,
                            result.ratio_lqr, result.ratio_fbl, result.stab_sontag,
                            result.stab_lqr, result.stab_fbl]).tolist()
    lqr_ok = (~np.isnan(result.ratio_lqr)).tolist()
    fbl_ok = (~np.isnan(result.ratio_fbl)).tolist()
    # One format per ratio availability; "%.0s" takes its value and
    # prints nothing, leaving the field empty.
    num, empty = "%.17g,", "%.0s,"
    fmt = {(ok_l, ok_f): (num * 4 + (num if ok_l else empty) + (num if ok_f else empty)
                          + "%d,%d,%d\n")
           for ok_l in (True, False) for ok_f in (True, False)}
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row, ok_l, ok_f in zip(rows, lqr_ok, fbl_ok):
            fh.write(fmt[ok_l, ok_f] % tuple(row))


def write_roa_csv(cert: RoaCertificate, path) -> None:
    """Grid membership as CSV: coordinates, CLF value, member flags."""
    n = cert.points.shape[1]
    header = [f"x{i + 1}" for i in range(n)] + ["V", "member_lqr", "member_sontag"]
    rows = np.column_stack([cert.points, cert.values, cert.members_lqr,
                            cert.members_sontag]).tolist()
    fmt = "%.17g," * (n + 1) + "%d,%d\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(fmt % tuple(row))


__all__ = [
    "BETA_TOL",
    "BISECTION_ITERS",
    "GlobalClfReport",
    "GridSpec",
    "RoaCertificate",
    "SweepResult",
    "VDOT_TOL",
    "global_clf_sample_check",
    "roa_certify",
    "sweep_initial_angles",
    "write_roa_csv",
    "write_sweep_csv",
]
