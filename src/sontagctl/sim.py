"""Fixed-step closed-loop simulation and cost evaluation.

Integration is classical 4th-order Runge-Kutta with the controller
re-evaluated at every stage state (continuous feedback); an optional
zero-order hold freezes the input over each step instead. Costs are a
left Riemann sum of the running quadratic cost over the step-start
samples: under the default continuous feedback they are first order in
h while the states are fourth order (ROADMAP item 10 replaces the sum
with the RK4 stage quadrature).

One private kernel, ``_closed_loop``, decides how a controller's
closed loop is evaluated at given states: a Sontag law answers from
its Lie-term evaluation, which already holds f and G, and any other
law from u, f and G. The step-start evaluation also supplies RK4's
first stage, so a step evaluates the model four times, with or
without a zero-order hold. One stepping loop on that kernel serves
both ``simulate`` (a batch of one, recorded step by step) and
``rollout_costs`` (many rows, costs only), so both share one halt
policy. Stacked states are coordinates-first, (n, N); on the batch of
one, an (n,) state, every row quantity (the Lie terms, the Sontag
factor, the state norm and the row masks) is a numpy scalar, not a 0-d
array. All pathologies become per-step flags rather than exceptions: a
state beyond the divergence guard, a non-finite state, or a control
evaluation that comes back non-finite halts the run with the
corresponding flag, and a halted run carries an infinite cost so sweep
rows stay comparable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .control import SontagController, _clf_violations, _Parts
from .linalg import (_all_rows, _row_all_finite, _row_dot, _row_max_abs, _stack_matmul, as_square,
                     as_vector)
from .model import SystemModel, apply_input

#: A run halts once the state norm passes this bound.
DIVERGENCE_GUARD = 1e6
#: A run counts as stabilized when the final state norm is below this.
STABILIZATION_TOL = 1e-2
#: Overflow and NaN on the way to a halt are flagged, not warned about.
_HALT_ERRSTATE = {"over": "ignore", "invalid": "ignore"}

FLAG_CLF_VIOLATION = "clf_violation"
FLAG_DOMAIN = "domain_violation"
FLAG_DIVERGENCE = "divergence"


class NonPositiveLambda(Exception):
    """A recorded scaling factor was nonpositive, signalling a CLF
    condition breach along the trajectory."""


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation settings."""

    h: float = 0.01
    n_steps: int = 1500
    x0: np.ndarray | None = None
    zoh: bool = False

    def __post_init__(self):
        if not 0 < self.h < np.inf:
            raise ValueError("step size must be positive and finite")
        object.__setattr__(self, "n_steps", operator.index(self.n_steps))  # integers only
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if self.x0 is not None:
            object.__setattr__(self, "x0", as_vector(self.x0, "x0"))


@dataclass
class Trajectory:
    """A recorded closed-loop run.

    For a completed run of N steps there are N+1 states (rows of an
    (N+1, n) array) and N inputs with times[k] = k*h; a halted run is
    truncated at the offending step, whose state row carries the halt
    flag. ``lambdas`` holds the Sontag scaling factor at step starts
    with NaN where undefined, and is None for controllers without one.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    clf_values: np.ndarray | None
    lambdas: np.ndarray | None
    flags: list[str] = field(default_factory=list)
    diverged: bool = False
    stabilized: bool = False
    h: float = 0.01


@dataclass(frozen=True)
class CostReport:
    """Quadratic and inverse-optimal cost of one run."""

    j_quadratic: float
    j_distorted: float
    lambda_fallback_count: int
    stabilized: bool


def _closed_loop(sys: SystemModel, controller, X):
    """The closed loop evaluated at X: (U, f, G, parts). A Sontag law
    answers from its own evaluation, which already holds f and G, and
    returns it as ``parts``; any other law answers with u(X), f(X) and
    G(X) and no parts."""
    if isinstance(controller, SontagController):
        p = controller._parts(X)
        return p.U, p.f, p.G, p
    U = np.asarray(controller.u(X), dtype=float)
    return U, np.asarray(sys.f(X), dtype=float), np.asarray(sys.G(X), dtype=float), None


def _rk4(sys: SystemModel, controller, x, h: float, zoh: bool, U, fx, Gx) -> np.ndarray:
    """The RK4 successor of x given its step-start evaluation (U, f, G):
    k1 = f + G U, and the later stages evaluate the closed loop again,
    or the model alone under the held input U when ``zoh``."""
    if zoh:
        def stage(xs):
            return np.asarray(sys.f(xs), dtype=float) + apply_input(sys.G(xs), U)
    else:
        def stage(xs):
            Us, fs, Gs, _ = _closed_loop(sys, controller, xs)
            return fs + apply_input(Gs, Us)

    k1 = fx + apply_input(Gx, U)
    k2 = stage(x + (0.5 * h) * k1)
    k3 = stage(x + (0.5 * h) * k2)
    k4 = stage(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(sys: SystemModel, controller, x, h: float, *, zoh: bool = False):
    """One classical Runge-Kutta step of xdot = f(x) + G(x) u(x).

    The controller is re-evaluated at each stage state unless ``zoh``
    holds the step-start input. Accepts stacked states.
    """
    x = np.asarray(x, dtype=float)
    U, fx, Gx, _ = _closed_loop(sys, controller, x)
    return _rk4(sys, controller, x, h, zoh, U, fx, Gx)


class _Step(NamedTuple):
    """What one step of ``_rollout`` did, per row."""

    X: np.ndarray            # step-start states
    U: np.ndarray            # step-start inputs, zero where not finite
    parts: _Parts | None     # the Sontag evaluation at X, if any
    running: np.ndarray      # rows not halted before this step
    u_ok: np.ndarray         # input finite; a row without one halts
    X_new: np.ndarray        # RK4 successor (discarded where the row halts)
    x_max: np.ndarray        # max |X_new|, NaN or inf where X_new is not finite


def _rollout(sys: SystemModel, controller, X, h: float, n_steps: int, zoh: bool, on_step):
    """The closed-loop stepping loop behind ``simulate`` and
    ``rollout_costs``, on (n,) or stacked (n, ...) states.

    The closed loop is evaluated once per step start, and that
    evaluation also supplies RK4's k1. ``on_step`` sees every step as a
    ``_Step``. A row halts at the first step whose input or successor is
    not finite or whose successor passes the divergence guard; halted
    rows stay frozen, and the loop ends early once every row has halted.
    Returns the (stabilized, halted) row masks.
    """
    X = np.asarray(X, dtype=float)
    running = np.ones(X.shape[1:], dtype=bool)[()]
    with np.errstate(**_HALT_ERRSTATE):
        for _ in range(n_steps):
            U, fX, GX, parts = _closed_loop(sys, controller, X)
            u_ok = _row_all_finite(U)
            if not _all_rows(u_ok):
                U = np.where(u_ok, U, 0.0)
            X_new = _rk4(sys, controller, X, h, zoh, U, fX, GX)
            x_max = _row_max_abs(X_new)
            on_step(_Step(X, U, parts, running, u_ok, X_new, x_max))
            ok = running & u_ok & (x_max <= DIVERGENCE_GUARD)
            if _all_rows(ok):
                X = X_new
                continue
            running = ok
            X = np.where(ok, X_new, X)
            if not ok.any():
                break
    stabilized = running & (_row_max_abs(X) < STABILIZATION_TOL)
    return stabilized, ~running


def simulate(sys: SystemModel, controller, cfg: SimConfig, clf=None) -> Trajectory:
    """Run a closed loop from cfg.x0 and record everything.

    Inputs are sampled at step starts (these are the samples the costs
    integrate); the CLF value is recorded at every state when a CLF is
    supplied, and the Sontag scaling factor at step starts when the
    controller has one. A halting step leaves its flag on the state row
    it started from, or, for a state beyond the divergence guard, on
    that recorded state.
    """
    x0 = np.zeros(sys.n) if cfg.x0 is None else cfg.x0
    if x0.shape[0] != sys.n:
        raise ValueError("x0 dimension does not match the system")
    is_sontag = isinstance(controller, SontagController)

    states = [x0]
    inputs: list[np.ndarray] = []
    lams: list[float] = []
    flags: list[list[str]] = [[]]

    def record(s: _Step) -> None:
        if is_sontag and _clf_violations(s.parts):
            flags[-1].append(FLAG_CLF_VIOLATION)
        if not s.u_ok:
            flags[-1].append(FLAG_DOMAIN)
            return
        inputs.append(s.U)
        if is_sontag:
            lams.append(float(s.parts.lam) if s.parts.nonzero else np.nan)
        if not math.isfinite(s.x_max):
            flags[-1].append(FLAG_DIVERGENCE)
            return
        states.append(s.X_new)
        flags.append([FLAG_DIVERGENCE] if s.x_max > DIVERGENCE_GUARD else [])

    stabilized, halted = _rollout(sys, controller, x0, cfg.h, cfg.n_steps, cfg.zoh, record)
    X = np.array(states)
    with np.errstate(**_HALT_ERRSTATE):  # x0 is recorded even beyond the divergence guard
        V = None if clf is None else np.asarray(clf.value(X.T), dtype=float)
    return Trajectory(
        times=cfg.h * np.arange(len(states)),
        states=X,
        inputs=np.array(inputs, dtype=float).reshape(len(inputs), sys.m),
        clf_values=V,
        lambdas=np.array(lams) if is_sontag else None,
        flags=[";".join(f) for f in flags],
        diverged=bool(halted),
        stabilized=bool(stabilized),
        h=cfg.h,
    )


def _running_cost(X, U, Q, R) -> np.ndarray:
    """The quadratic running cost x'Qx + u'Ru per row."""
    return _row_dot(_stack_matmul(X, Q), X) + _row_dot(_stack_matmul(U, R), U)


def cost_index(traj: Trajectory, Q, R) -> float:
    """Discrete quadratic performance index (h/2) sum x'Qx + u'Ru over
    the step-start samples, with the trajectory's step h. Diverged runs
    cost +inf."""
    Q = as_square(Q, "Q")
    R = as_square(R, "R")
    if traj.diverged:
        return float("inf")
    return float(0.5 * traj.h * np.sum(_running_cost(traj.states[:-1].T, traj.inputs.T, Q, R)))


def distorted_cost(traj: Trajectory, Q, R) -> tuple[float, int]:
    """Inverse-optimal cost: the quadratic running cost weighted by the
    reciprocal scaling factor, with 1 substituted where the factor is
    undefined. Returns the cost and the substitution count.

    Raises NonPositiveLambda when a recorded factor is nonpositive.
    """
    Q = as_square(Q, "Q")
    R = as_square(R, "R")
    n_inputs = traj.inputs.shape[0]
    if traj.lambdas is None:
        lam = np.full(n_inputs, np.nan)
    else:
        lam = np.asarray(traj.lambdas, dtype=float)
    undefined = ~np.isfinite(lam)
    if np.any(lam[~undefined] <= 0.0):
        raise NonPositiveLambda("recorded scaling factor is nonpositive")
    fallback = int(undefined.sum())
    if traj.diverged:
        return float("inf"), fallback
    w = np.where(undefined, 1.0, lam)
    cost = _running_cost(traj.states[:-1].T, traj.inputs.T, Q, R)
    return float(0.5 * traj.h * np.sum(cost / w)), fallback


def make_cost_report(traj: Trajectory, Q, R) -> CostReport:
    j_dist, fallback = distorted_cost(traj, Q, R)
    return CostReport(
        j_quadratic=cost_index(traj, Q, R),
        j_distorted=j_dist,
        lambda_fallback_count=fallback,
        stabilized=traj.stabilized,
    )


def lyap_decay_check(traj: Trajectory, clf, sys: SystemModel, Q, R) -> float:
    """Largest normalized mismatch between the finite-difference CLF
    decay rate along the trajectory and the closed-form rate of the
    Sontag-type law.

    At each interior step the central difference (V[k+1] - V[k-1]) /
    (2h) is compared with -sqrt(a^2 + x'Qx * b R^{-1} b') (or a where b
    vanishes); the mismatch is normalized by 1 + |closed form|.
    """
    if traj.clf_values is None:
        raise ValueError("trajectory was recorded without CLF values")
    if traj.states.shape[0] < 3:
        return 0.0
    p = SontagController(clf, sys, Q, R)._parts(traj.states[1:-1].T)
    rhs = np.where(p.nonzero, -np.sqrt(p.a * p.a + p.q * p.beta), p.a)
    V = traj.clf_values
    fd = (V[2:] - V[:-2]) / (2.0 * traj.h)
    mismatch = np.abs(fd - rhs) / (1.0 + np.abs(rhs))
    return float(mismatch.max())


def rollout_costs(sys: SystemModel, controller, X0, Q, R, h: float, n_steps: int,
                  *, zoh: bool = False):
    """Quadratic costs of many closed-loop runs at once.

    X0 is an (n, N) stack of initial states. Rows whose run diverges
    (state guard exceeded, non-finite state, or non-finite control) are
    frozen and reported with infinite cost. Returns (costs, stabilized,
    diverged) arrays over rows.
    """
    Q = as_square(Q, "Q")
    R = as_square(R, "R")
    X0 = np.asarray(X0, dtype=float)
    costs = np.zeros(X0.shape[1:])

    def add_cost(s: _Step) -> None:
        nonlocal costs
        live = s.running & s.u_ok
        cost = 0.5 * h * _running_cost(s.X, s.U, Q, R)
        costs += cost if _all_rows(live) else np.where(live, cost, 0.0)

    stabilized, diverged = _rollout(sys, controller, X0, h, n_steps, zoh, add_cost)
    return np.where(diverged, np.inf, costs), stabilized, diverged


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a run as CSV: t, states, inputs, V, lambda, flags.

    Floats carry 17 significant digits; the lambda field is empty where
    the factor is undefined, and input/lambda fields are empty on the
    final state row. The body is formatted in one pass and written once.
    """
    n_rows, n = traj.states.shape
    n_inputs, m = traj.inputs.shape
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"u{j + 1}" for j in range(m)] + ["V", "lambda", "flags"])
    U = np.full((n_rows, m), np.nan)
    U[:n_inputs] = traj.inputs[:n_rows]
    lam = np.full(n_rows, np.nan)
    if traj.lambdas is not None:
        lam[:len(traj.lambdas)] = traj.lambdas[:n_rows]
    columns = [traj.times, traj.states, U]
    if traj.clf_values is not None:
        columns.append(traj.clf_values)
    rows = np.column_stack(columns + [lam]).tolist()
    has_lam = np.isfinite(lam).tolist()
    flags = traj.flags[:n_rows] + [""] * (n_rows - len(traj.flags))
    for row, flag in zip(rows, flags):
        row.append(flag)

    # One format per (inputs, lambda) presence; "%.0s" takes its value
    # and prints nothing, leaving the field empty.
    num, empty = "%.17g,", "%.0s,"
    v_field = num if traj.clf_values is not None else ","
    fmt = {(with_u, with_lam): (num * (1 + n) + (num if with_u else empty) * m + v_field
                                + (num if with_lam else empty) + "%s\n")
           for with_u in (True, False) for with_lam in (True, False)}
    body = "".join(fmt[k < n_inputs, has_lam[k]] for k in range(n_rows))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(body % tuple(chain.from_iterable(rows)))


__all__ = [
    "CostReport",
    "DIVERGENCE_GUARD",
    "FLAG_CLF_VIOLATION",
    "FLAG_DIVERGENCE",
    "FLAG_DOMAIN",
    "NonPositiveLambda",
    "STABILIZATION_TOL",
    "SimConfig",
    "Trajectory",
    "cost_index",
    "distorted_cost",
    "lyap_decay_check",
    "make_cost_report",
    "rk4_step",
    "rollout_costs",
    "simulate",
    "write_trajectory_csv",
]
