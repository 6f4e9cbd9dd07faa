"""Fixed-step closed-loop simulation and cost evaluation.

Integration is classical 4th-order Runge-Kutta with the controller
re-evaluated at every stage state (continuous feedback); an optional
zero-order hold freezes the input over each step instead. Costs are a
left Riemann sum of the running quadratic cost over the step-start
samples: under the default continuous feedback they are first order in
h while the states are fourth order (ROADMAP item 10 replaces the sum
with the RK4 stage quadrature). The CLF-dependent cost of a Sontag law
is -int Vdot dt, read off the closed-form rate that ``simulate`` records
with the law (``distorted_cost``).

One stepping loop, ``_rollout``, serves ``simulate`` (a batch of one,
recorded step by step) and ``rollout_costs`` (many rows, costs only), so
both share one halt policy. Its stage function, built once per rollout
by ``_closed_loop``, evaluates f and G once at given states for the law;
the step-start evaluation is also RK4's first stage, so a step evaluates
the model four times, with or without a zero-order hold. Stacked states
are coordinates-first, (n, N); the batch of one, an (n,) state, runs on
Python floats with no numpy call in a stage, with a stack column's bits:
its stage adds G u into f in one loop, ``clf._lie_rows`` and the
contractions (``linalg._contract``) sum its floats in loops, and the laws
pick their branches in Python. Pathologies halt a run with a flag, not an
exception, and a halted run costs +inf.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .control import SontagController, _clf_violations, _Parts
from .linalg import (_all_rows, _coefficients, _contract, _row_all_finite, _row_dot, _row_max_abs,
                     as_square, as_vector)
from .model import SystemModel, _model_at, apply_input

#: A run halts once the state norm passes this bound.
DIVERGENCE_GUARD = 1e6
#: A run counts as stabilized when the final state norm is below this.
STABILIZATION_TOL = 1e-2
#: Overflow and NaN on the way to a halt are flagged, not warned about.
_HALT_ERRSTATE = {"over": "ignore", "invalid": "ignore"}

FLAG_CLF_VIOLATION = "clf_violation"
FLAG_DOMAIN = "domain_violation"
FLAG_DIVERGENCE = "divergence"


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
    with NaN where undefined, and ``vdot`` the law's closed-form CLF rate
    there: -sqrt(a^2 + x'Qx beta) where beta = b R^{-1} b' > 0, and a
    where beta = 0. Both are None for controllers that are not Sontag
    laws. The CLF-dependent cost of the run is -int Vdot dt.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    clf_values: np.ndarray | None
    lambdas: np.ndarray | None
    vdot: np.ndarray | None = None
    flags: list[str] = field(default_factory=list)
    diverged: bool = False
    stabilized: bool = False
    h: float = 0.01


def _closed_loop(sys: SystemModel, controller):
    """The stage function of a rollout, with the law (``_law``, or ``u``
    on X) resolved once: stage(X) -> (f + G U, U, parts) from one
    ``_model_at``, stage(X, held) under a held input."""
    law = getattr(controller, "_law", None) or (
        lambda X, fX, GX, u=controller.u: (np.asarray(u(X), dtype=float), None))

    def stage(X, held=None):
        X, fX, GX = _model_at(sys, X)
        U, parts = law(X, fX, GX) if held is None else (held, None)
        if type(fX) is list:  # f_k + (G U)_k, (G U)_k summed from +0.0 as apply_input does
            xdot = []
            for f_k, G_k in zip(fX, GX):
                s = 0.0
                for p in map(operator.mul, G_k, U):
                    s += p
                xdot.append(f_k + s)
            return xdot, U, parts
        return fX + apply_input(GX, U), U, parts

    return stage


def _rk4(stage, X, h: float, zoh: bool):
    """(successor, U, parts) of one RK4 step; ``zoh`` holds the law's U."""
    k1, U, parts = stage(X)
    held = U if zoh else None
    if type(X) is list:  # one state: the same combinations on Python floats
        k2 = stage([x + 0.5 * h * k for x, k in zip(X, k1)], held)[0]
        k3 = stage([x + 0.5 * h * k for x, k in zip(X, k2)], held)[0]
        k4 = stage([x + h * k for x, k in zip(X, k3)], held)[0]
        return [x + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for x, a, b, c, d in zip(X, k1, k2, k3, k4)], U, parts
    k2 = stage(X + (0.5 * h) * k1, held)[0]
    k3 = stage(X + (0.5 * h) * k2, held)[0]
    k4 = stage(X + h * k3, held)[0]
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), U, parts


def rk4_step(sys: SystemModel, controller, x, h: float, *, zoh: bool = False):
    """One classical Runge-Kutta step of xdot = f(x) + G(x) u(x) on (n,)
    or stacked states; the controller is re-evaluated at each stage state
    unless ``zoh`` holds the step-start input."""
    X = np.asarray(x, dtype=float)
    X = _rk4(_closed_loop(sys, controller), X.tolist() if X.ndim == 1 else X, h, zoh)[0]
    return np.asarray(X, dtype=float)


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
    evaluation is also RK4's k1. ``on_step`` sees every step as a
    ``_Step``. A row halts at the first step whose input or successor is
    not finite or whose successor passes the divergence guard; halted
    rows stay frozen, and the loop ends early once every row has halted.
    Returns the (stabilized, halted) row masks.
    """
    X = np.asarray(X, dtype=float)
    X, running = (X.tolist(), True) if X.ndim == 1 else (X, np.ones(X.shape[1:], dtype=bool))
    stage = _closed_loop(sys, controller)
    with np.errstate(**_HALT_ERRSTATE):
        for _ in range(n_steps):
            X_new, U, parts = _rk4(stage, X, h, zoh)
            u_ok = _row_all_finite(U)
            if not _all_rows(u_ok):
                U = np.where(u_ok, U, 0.0)
            x_max = _row_max_abs(X_new)
            on_step(_Step(X, U, parts, running, u_ok, X_new, x_max))
            ok = running & u_ok & (x_max <= DIVERGENCE_GUARD)
            if _all_rows(ok):
                X = X_new
                continue
            running = ok
            if type(ok) is bool or not ok.any():
                break
            X = np.where(ok, X_new, X)
    stabilized = running & (_row_max_abs(X) < STABILIZATION_TOL)
    return stabilized, np.logical_not(running)


def simulate(sys: SystemModel, controller, cfg: SimConfig, clf=None) -> Trajectory:
    """Run a closed loop from cfg.x0 and record everything.

    Inputs are sampled at step starts (these are the samples the costs
    integrate); the CLF value is recorded at every state when a CLF is
    supplied, and a Sontag law's scaling factor and closed-form CLF rate
    at step starts, from the evaluation that gave the input. A halting
    step leaves its flag on the state row it started from, or, for a
    state beyond the divergence guard, on that recorded state.
    """
    x0 = np.zeros(sys.n) if cfg.x0 is None else cfg.x0
    if x0.shape[0] != sys.n:
        raise ValueError("x0 dimension does not match the system")

    states = [x0]
    inputs: list[np.ndarray] = []
    lams: list[float] = []
    vdots: list[float] = []
    flags: list[list[str]] = [[]]
    is_sontag = False

    def record(s: _Step) -> None:
        nonlocal is_sontag
        p = s.parts
        is_sontag = p is not None
        if is_sontag and _clf_violations(p):
            flags[-1].append(FLAG_CLF_VIOLATION)
        if not s.u_ok:
            flags[-1].append(FLAG_DOMAIN)
            return
        inputs.append(s.U)
        if is_sontag:
            lams.append(float(p.lam) if p.nonzero else np.nan)
            vdots.append(-math.sqrt(p.a * p.a + p.q * p.beta) if p.nonzero else float(p.a))
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
        vdot=np.array(vdots) if is_sontag else None,
        flags=[";".join(f) for f in flags],
        diverged=bool(halted),
        stabilized=bool(stabilized),
        h=cfg.h,
    )


def _running_cost(X, U, Q, R, xQx=None) -> np.ndarray:
    """x'Qx + u'Ru per row, Q and R as ``_coefficients``; x'Qx is ``xQx`` if given
    (a Sontag law's own q, bit for bit the same where the law's Q is this Q)."""
    return (_row_dot(_contract(Q, X), X) if xQx is None else xQx) + _row_dot(_contract(R, U), U)


def cost_index(traj: Trajectory, Q, R) -> float:
    """Discrete quadratic performance index (h/2) sum x'Qx + u'Ru over
    the step-start samples, with the trajectory's step h. Diverged runs
    cost +inf."""
    Q = _coefficients(as_square(Q, "Q"))
    R = _coefficients(as_square(R, "R"))
    if traj.diverged:
        return float("inf")
    return float(0.5 * traj.h * np.sum(_running_cost(traj.states[:-1].T, traj.inputs.T, Q, R)))


def distorted_cost(traj: Trajectory) -> float:
    """CLF-dependent cost (1/2) int (x'Qx + u'Ru)/lambda dt of a Sontag-law
    run, which the law minimizes. Its integrand is -2 Vdot along the law,
    so this is -h sum of the recorded ``vdot`` over the step starts, the
    samples ``cost_index`` sums. Diverged runs cost +inf; a run recorded
    without ``vdot`` raises ValueError."""
    if traj.vdot is None:
        raise ValueError("trajectory was recorded without a Sontag law's CLF rate")
    if traj.diverged:
        return float("inf")
    return float(-traj.h * np.sum(traj.vdot)) + 0.0  # a run at rest costs +0, not -0


def lyap_decay_check(traj: Trajectory) -> float:
    """Largest normalized mismatch between the finite-difference CLF
    decay rate along a Sontag-law run and the closed-form rate recorded
    with the law.

    At each interior step the central difference (V[k+1] - V[k-1]) /
    (2h) is compared with ``vdot[k]``; the mismatch is normalized by
    1 + |vdot[k]|.
    """
    if traj.clf_values is None or traj.vdot is None:
        raise ValueError("trajectory was recorded without CLF values or a Sontag law")
    V = traj.clf_values
    if V.shape[0] < 3:
        return 0.0
    rhs = traj.vdot[1:V.shape[0] - 1]
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
    law_q = isinstance(controller, SontagController) and Q.tobytes() == controller.Q.tobytes()
    Q, R = _coefficients(Q), _coefficients(as_square(R, "R"))
    X0 = np.asarray(X0, dtype=float)
    costs = np.zeros(X0.shape[1:])

    def add_cost(s: _Step) -> None:
        nonlocal costs
        live = s.running & s.u_ok
        cost = 0.5 * h * _running_cost(s.X, s.U, Q, R, s.parts.q if law_q else None)
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
    "DIVERGENCE_GUARD",
    "FLAG_CLF_VIOLATION",
    "FLAG_DIVERGENCE",
    "FLAG_DOMAIN",
    "STABILIZATION_TOL",
    "SimConfig",
    "Trajectory",
    "cost_index",
    "distorted_cost",
    "lyap_decay_check",
    "rk4_step",
    "rollout_costs",
    "simulate",
    "write_trajectory_csv",
]
