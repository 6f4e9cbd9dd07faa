"""A 40-digit closed-loop oracle: the pendulum's RK4 rollout in mpmath.

The oracle runs the same discrete loop as ``simulate`` (classical RK4,
the law re-evaluated at every stage state) on the same float design (P,
K, Q, R and the model's float constants, each read as its exact binary
value), with the law, f and G evaluated at 40 digits. So what it
measures is the rounding of the float rollout alone, whatever the BLAS
kernel: each recorded state must lie within a relative bound of the mp
state.
"""

import math

import mpmath
import numpy as np
import pytest

from sontagctl.model import PendulumParams
from sontagctl.sim import SimConfig, simulate

#: Digits of the oracle's arithmetic.
DPS = 40
#: Steps from 45 degrees: the state falls by a factor of 200 to 300 over
#: them, so the comparison covers the approach rather than a settled tail.
STEPS = 300
#: Relative bound on every recorded state. The float rollouts sit a few
#: 1e-15 from the oracle (at most 2.0e-15 for design i and 1.3e-15 for
#: design iv with OpenBLAS's SkylakeX kernel, 3.9e-15 and 1.4e-15 with
#: Haswell and Sandybridge), so 1e-12 leaves room for rounding and still
#: catches a wrong operation of order 1e-12 or more.
RTOL = 1e-12


def _pendulum_law(res):
    """Design i or iv as an mp function of an mp state list."""
    mpf = mpmath.mpf
    if res.selector == "iv":
        K = [[mpf(k) for k in row] for row in res.lqr.K.tolist()]
        return lambda x: [-sum(k * xi for k, xi in zip(row, x)) for row in K]
    ctrl = res.controller
    P = [[mpf(v) for v in row] for row in res.clf.P.tolist()]
    Q = [[mpf(v) for v in row] for row in ctrl.Q.tolist()]
    R_inv = [[mpf(v) for v in row] for row in ctrl.R_inv.tolist()]

    def law(x, f, G):
        grad = [sum(p * xi for p, xi in zip(row, x)) for row in P]
        a = sum(g * fi for g, fi in zip(grad, f))
        b = [sum(grad[i] * G[i][j] for i in range(len(x))) for j in range(len(G[0]))]
        q = sum(xi * sum(v * xj for v, xj in zip(row, x)) for xi, row in zip(x, Q))
        Rb = [sum(r * bj for r, bj in zip(row, b)) for row in R_inv]
        beta = sum(bj * rj for bj, rj in zip(b, Rb))
        if beta == 0:
            return [mpf(0)] * len(b)
        s = mpmath.sqrt(a * a + q * beta)
        lam = q / (s - a) if a < 0 else (a + s) / beta
        return [-lam * r for r in Rb]

    return law


def _mp_rollout(res, x0, h, n_steps):
    """The recorded states of ``simulate`` as the oracle computes them."""
    mpf = mpmath.mpf
    p = PendulumParams()   # the default pendulum's float constants, formed as the model forms them
    denom = p.inertia + p.mass * p.length**2
    drift_gain = mpf(p.mass * p.gravity * p.length / denom)
    input_gain = mpf(p.mass * p.length / denom)
    law = _pendulum_law(res)

    def closed_loop(x):
        f = [x[1], drift_gain * mpmath.sin(x[0])]
        G = [[mpf(0)], [-input_gain * mpmath.cos(x[0])]]
        u = law(x) if res.selector == "iv" else law(x, f, G)
        return [fi + sum(g * uj for g, uj in zip(row, u)) for fi, row in zip(f, G)]

    with mpmath.workdps(DPS):
        h = mpf(h)
        x = [mpf(v) for v in x0]
        states = [x]
        for _ in range(n_steps):
            k1 = closed_loop(x)
            k2 = closed_loop([xi + h / 2 * k for xi, k in zip(x, k1)])
            k3 = closed_loop([xi + h / 2 * k for xi, k in zip(x, k2)])
            k4 = closed_loop([xi + h * k for xi, k in zip(x, k3)])
            x = [xi + h / 6 * (a + 2 * b + 2 * c + d)
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
            states.append(x)
        return states


@pytest.mark.parametrize("selector", ["i", "iv"])
def test_rollout_within_oracle(pendulum, pendulum_designs, selector):
    sys_m, _ = pendulum
    res = pendulum_designs[selector]
    cfg = SimConfig(h=0.01, n_steps=STEPS, x0=[math.radians(45.0), 0.0])
    traj = simulate(sys_m, res.controller, cfg)
    assert not traj.diverged and traj.states.shape == (STEPS + 1, 2)
    oracle = _mp_rollout(res, cfg.x0.tolist(), cfg.h, STEPS)
    with mpmath.workdps(DPS):
        for k, (x, x_mp) in enumerate(zip(traj.states.tolist(), oracle)):
            scale = max(abs(v) for v in x_mp)
            err = max(abs(mpmath.mpf(v) - v_mp) for v, v_mp in zip(x, x_mp)) / scale
            assert err <= RTOL, (k, float(err))
