"""State-feedback controllers: Sontag-type, LQR, feedback-linearizing.

The Sontag-type law scales the input direction R^{-1} b(x)' by a
state-dependent factor chosen so that the loop both enforces Lyapunov
decay and, whenever the CLF satisfies the Hamilton-Jacobi-Bellman
equation (in particular for LTI systems with the LQR value function),
reproduces the optimal feedback exactly. The factor

    lam = (a + sqrt(a^2 + q * beta)) / beta,   q = x'Qx, beta = b R^{-1} b'

admits the algebraically equal form q / (sqrt(a^2 + q*beta) - a); the
implementation picks the branch that avoids cancellation based on the
sign of a. Where b(x) vanishes the control is zero, the factor is
undefined, and a flag records whether the CLF decrease condition broke
down there.

All controllers evaluate on (n,) states or (n, ...) stacks and return
(m,) or (m, ...) inputs, with state products by ``linalg._stack_matmul``;
states outside a CLF or linearization domain, or with singular gamma,
get NaN inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clf import build_global_clf, build_lqr_clf, lie_terms
from .linalg import (_all_rows, _row_dot, _select, _stack_matmul, as_matrix, as_square,
                     cholesky_pd, max_abs, solve_many, symmetrize)
from .model import FeedbackLinearization, SystemModel, fd_jacobian, linearize
from .riccati import LqrDesign, solve_care

#: Below this pivot magnitude the input transformation counts as singular.
GAMMA_PIVOT_TOL = 1e-12


def _lambda_array(a, q, beta):
    """Scaling factor of the Sontag-type law, elementwise, on numpy
    scalars or arrays (``beta`` may also be a Python float); callers
    guard beta > 0 on used lanes. A single state's numpy scalars stay
    scalars and go through no array conversion.

    With q >= 0 the result is nonnegative, strictly positive when q > 0,
    and equals 1 exactly when a = (beta - q) / 2, the relation the
    Riccati equation enforces along LQR value functions. Selecting
    numerator and denominator by the sign of a picks the cancellation-free
    branch and keeps every denominator positive, so no masked division
    is needed.
    """
    s = np.sqrt(a * a + q * beta)
    neg = a < 0.0
    num = _select(neg, q, a + s)
    denom = _select(neg, s - a, beta)
    return num / denom


class _Parts(NamedTuple):
    """One Sontag-type evaluation at (n,) or stacked states, with the
    terms it was built from. ``lam`` is meaningful only where ``nonzero``."""

    U: np.ndarray
    lam: np.ndarray
    nonzero: np.ndarray
    ok: np.ndarray
    a: np.ndarray
    beta: np.ndarray
    q: np.ndarray
    x_norm: np.ndarray
    f: np.ndarray
    G: np.ndarray


def _clf_violations(p: _Parts) -> np.ndarray:
    """Zero-branch states where the drift does not decay V: the CLF
    decrease condition failed there."""
    return p.ok & ~p.nonzero & (p.a >= 0.0) & (p.x_norm > 0.0)


class SontagController:
    """Sontag-type feedback built from a CLF and quadratic weights."""

    def __init__(self, clf, sys: SystemModel, Q, R):
        Q = as_square(Q, "Q")
        R = as_square(R, "R")
        if Q.shape[0] != sys.n or R.shape[0] != sys.m:
            raise ValueError("weight dimensions do not match the system")
        cholesky_pd(Q)
        cholesky_pd(R)
        self.clf = clf
        self.sys = sys
        self.Q = symmetrize(Q)
        self.R = symmetrize(R)
        self.R_inv = symmetrize(solve_many(self.R, np.eye(sys.m)))

    def _parts(self, X) -> _Parts:
        X = np.asarray(X, dtype=float)
        lt = lie_terms(self.clf, self.sys, X)
        Rb = _stack_matmul(lt.b, self.R_inv)
        beta = _row_dot(lt.b, Rb)
        q = _row_dot(_stack_matmul(X, self.Q), X)
        all_nonzero = _all_rows(lt.nonzero)
        lam = _lambda_array(lt.a, q, beta if all_nonzero else _select(lt.nonzero, beta, 1.0))
        U = Rb * -lam
        if not all_nonzero:
            U = np.where(lt.nonzero, U, 0.0)
        if not _all_rows(lt.ok):
            U = np.where(lt.ok, U, np.nan)
        # positional, as in lie_terms
        return _Parts(U, lam, lt.nonzero, lt.ok, lt.a, beta, q, lt.x_norm, lt.f, lt.G)

    def u(self, X) -> np.ndarray:
        """Control input for stacked states; NaN outside the CLF domain."""
        return self._parts(X).U


class LqrController:
    """Linear state feedback u = -K x."""

    def __init__(self, K):
        self.K = as_matrix(K, "K")

    def u(self, X) -> np.ndarray:
        return -_stack_matmul(np.asarray(X, dtype=float), self.K.T)


class FblController:
    """Cancels the model nonlinearity through the input transformation
    and applies a linear gain in the transformed coordinates."""

    def __init__(self, fbl: FeedbackLinearization, K_fbl):
        self.fbl = fbl
        self.K_fbl = as_matrix(K_fbl, "K_fbl")

    def u(self, X) -> np.ndarray:
        """Control input for stacked states; NaN where gamma is singular
        or the state left the linearization domain."""
        X = np.asarray(X, dtype=float)
        Z = np.asarray(self.fbl.T(X), dtype=float)
        rhs = -(np.asarray(self.fbl.psi(Z), dtype=float) + _stack_matmul(Z, self.K_fbl.T))
        gam = np.asarray(self.fbl.gamma(Z), dtype=float)
        ok = self.fbl.domain(Z)
        m = self.K_fbl.shape[0]
        if m == 1:
            g = gam[0, 0]
            ok = ok & (np.abs(g) > GAMMA_PIVOT_TOL)
            if _all_rows(ok):
                return rhs / g
            U = rhs / np.where(ok, g, 1.0)
        else:  # numpy's batched solvers want the matrix axes last
            gam = np.moveaxis(gam, (0, 1), (-2, -1))
            det = np.linalg.det(gam)
            ok = ok & (np.abs(det) > GAMMA_PIVOT_TOL)
            safe = np.where(ok[..., None, None], gam, np.eye(m))
            U = np.linalg.solve(safe, np.moveaxis(rhs, 0, -1)[..., None])[..., 0]
            U = np.moveaxis(U, -1, 0)
        if _all_rows(ok):
            return U
        return np.where(ok, U, np.nan)


def fbl_gain_design(fbl: FeedbackLinearization, design: LqrDesign) -> np.ndarray:
    """Gain on the transformed coordinates that makes the full
    feedback-linearizing law match the LQR gain to first order at the
    origin: K = gamma(0) K_lqr J_T0^{-1} - dpsi/dz(0).

    The returned gain is verified by finite-differencing the assembled
    control law at the origin against -R^{-1} B' P.
    """
    n = design.A.shape[0]
    zero = np.zeros(n)
    gamma0 = np.asarray(fbl.gamma(zero), dtype=float)
    if fbl.psi_jac is not None:
        dpsi0 = np.asarray(fbl.psi_jac(zero), dtype=float)
    else:
        dpsi0 = fd_jacobian(fbl.psi, zero)
    KJ = solve_many(fbl.J_T0.T, design.K.T).T   # K_lqr J_T0^{-1}
    K_fbl = gamma0 @ KJ - dpsi0
    ctrl = FblController(fbl, K_fbl)
    jac = fd_jacobian(ctrl.u, zero)
    target = -design.K
    # Written so that a NaN Jacobian (gamma singular at run time) fails.
    if not max_abs(jac - target) <= 1e-6 * (1.0 + max_abs(target)):
        raise ValueError("feedback-linearizing gain failed its local-optimality check")
    return K_fbl


def hjb_residual(clf, sys: SystemModel, Q, R, X) -> np.ndarray:
    """Residual of the Hamilton-Jacobi-Bellman equation at (n,) or
    stacked (n, ...) states: x'Qx/2 + a(x) - b(x) R^{-1} b(x)'/2. Zero
    exactly where the CLF agrees with the optimal value function; NaN
    outside the CLF domain."""
    p = SontagController(clf, sys, Q, R)._parts(X)
    return 0.5 * p.q + p.a - 0.5 * p.beta


DESIGN_SELECTORS = ("i", "ii", "iii", "iv")

DESIGN_LABELS = {
    "i": "sontag, quadratic clf",
    "ii": "sontag, transformed clf",
    "iii": "feedback linearization",
    "iv": "lqr",
}


@dataclass(frozen=True)
class SynthesisResult:
    """Everything produced for one controller design."""

    selector: str
    label: str
    lqr: LqrDesign
    clf: object | None
    controller: object


def synthesize_design(selector: str, sys: SystemModel,
                      fbl: FeedbackLinearization | None, Q, R) -> SynthesisResult:
    """Run the synthesis pipeline for one benchmark design.

    Linearizes the model, gates on stabilizability through the Riccati
    solve, and assembles the selected controller:

    - i:   Sontag-type law with the quadratic LQR-value-function CLF;
    - ii:  Sontag-type law with the transformed-coordinates CLF;
    - iii: pure feedback linearization with a locally optimal gain;
    - iv:  the LQR itself.
    """
    if selector not in DESIGN_SELECTORS:
        raise ValueError(f"unknown design selector {selector!r}")
    if selector in ("ii", "iii") and fbl is None:
        raise ValueError(f"design {selector} needs a feedback-linearization structure")
    A, B = linearize(sys)
    design = solve_care(A, B, Q, R)
    if selector == "i":
        clf = build_lqr_clf(design)
        controller = SontagController(clf, sys, design.Q, design.R)
    elif selector == "ii":
        clf = build_global_clf(design, fbl)
        controller = SontagController(clf, sys, design.Q, design.R)
    elif selector == "iii":
        clf = None
        controller = FblController(fbl, fbl_gain_design(fbl, design))
    else:
        clf = None
        controller = LqrController(design.K)
    return SynthesisResult(selector=selector, label=DESIGN_LABELS[selector],
                           lqr=design, clf=clf, controller=controller)


__all__ = [
    "DESIGN_LABELS",
    "DESIGN_SELECTORS",
    "FblController",
    "GAMMA_PIVOT_TOL",
    "LqrController",
    "SontagController",
    "SynthesisResult",
    "fbl_gain_design",
    "hjb_residual",
    "synthesize_design",
]
