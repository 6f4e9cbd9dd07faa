"""State-feedback controllers: Sontag-type, LQR, feedback-linearizing.

The Sontag-type law scales the input direction R^{-1} b(x)' by a
state-dependent factor chosen so that the loop both enforces Lyapunov
decay and, whenever the CLF satisfies the Hamilton-Jacobi-Bellman
equation (in particular for LTI systems with the LQR value function),
reproduces the optimal feedback exactly. The factor

    lam = (a + sqrt(a^2 + q * beta)) / beta,   q = x'Qx, beta = b R^{-1} b'

admits the algebraically equal form q / (sqrt(a^2 + q*beta) - a); the
implementation picks the branch that avoids cancellation based on the
sign of a. Where beta is exactly 0, the quantity the factor divides
by, the control is zero, the factor is undefined, and a flag records
whether the CLF decrease condition broke down there.

All controllers map (n,) states or (n, ...) stacks to (m,) or (m, ...)
inputs, NaN outside a CLF or linearization domain or at singular gamma.
Every product with a matrix (M x, R^{-1} b') is the fixed-order sum
``linalg._contract``: one state, run on Python floats, has a stack column's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clf import _lie_rows, build_global_clf, build_lqr_clf
from .linalg import (PIVOT_RTOL, SingularMatrix, _all_rows, _certified_inverse, _coefficients,
                     _contract, as_matrix, as_square, cholesky_pd, max_abs, solve_many, symmetrize)
from .model import (FeedbackLinearization, SystemModel, _model_at, apply_input, fd_jacobian,
                    identity_coordinates, linearize, lti_system)
from .riccati import LqrDesign, solve_care


def _lambda_array(a, q, beta):
    """Scaling factor of the Sontag-type law, elementwise, on one state's
    Python floats or on arrays (``beta`` may be a Python float beside
    them), with no array conversion; callers guard beta > 0 on used lanes.

    With q >= 0 the result is nonnegative, strictly positive when q > 0,
    and equals 1 exactly when a = (beta - q) / 2, the relation the
    Riccati equation enforces along LQR value functions. Selecting
    numerator and denominator by the sign of a picks the cancellation-free
    branch and keeps every denominator positive, so no masked division
    is needed.
    """
    v = a * a + q * beta
    if isinstance(v, float):  # one state: the branch a's sign picks, in Python
        s = math.sqrt(v) if v >= 0.0 else np.sqrt(v)  # numpy's NaN below 0
        return q / (s - a) if a < 0.0 else (a + s) / beta
    s = np.sqrt(v)
    neg = a < 0.0
    return np.where(neg, q, a + s) / np.where(neg, s - a, beta)


class _Parts(NamedTuple):
    """One Sontag-type evaluation at (n,) or stacked states (on one state
    U a list of floats, the rest floats and bools), with the terms it was
    built from. ``nonzero`` is beta > 0, and ``lam`` is meaningful only there."""

    U: np.ndarray
    lam: np.ndarray
    nonzero: np.ndarray
    ok: np.ndarray
    a: np.ndarray
    beta: np.ndarray
    q: np.ndarray


def _clf_violations(p: _Parts) -> np.ndarray:
    """Nonzero zero-branch states (q > 0) where the drift does not decay
    V: the CLF condition failed there (``^ True`` negates a bool, ``~`` not)."""
    return p.ok & (p.nonzero ^ True) & (p.a >= 0.0) & (p.q > 0.0)


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
        self._Q, self._R_inv = _coefficients(self.Q), _coefficients(self.R_inv)

    def _parts(self, X) -> _Parts:
        return self._law(*_model_at(self.sys, np.asarray(X, dtype=float)))[1]

    def _law(self, X, fX, GX) -> tuple[np.ndarray, _Parts]:
        """(U, parts) at states X from the model's f(X) and G(X), with U
        built from its rows u_j = Rb_j * -lam: a list on one state."""
        _, a, _, ok, Rb, beta, q = _lie_rows(self.clf, X, fX, GX, self._R_inv, self._Q)
        nonzero = beta > 0.0
        if type(X) is list:  # one state: the branches its bools pick, in Python
            lam = _lambda_array(a, q, beta if nonzero else 1.0)
            U = [r * -lam if nonzero else 0.0 for r in Rb] if ok else [np.nan] * len(Rb)
            return U, _Parts(U, lam, nonzero, ok, a, beta, q)
        all_nonzero = _all_rows(nonzero)
        lam = _lambda_array(a, q, beta if all_nonzero else np.where(nonzero, beta, 1.0))
        U = [r * -lam for r in Rb]
        if not all_nonzero:
            U = [np.where(nonzero, u, 0.0) for u in U]
        if not _all_rows(ok):
            U = [np.where(ok, u, np.nan) for u in U]
        U = np.array(U)
        return U, _Parts(U, lam, nonzero, ok, a, beta, q)  # positional, as in lie_terms

    def u(self, X) -> np.ndarray:
        """Control input for stacked states; NaN outside the CLF domain."""
        return np.asarray(self._parts(X).U, dtype=float)


class LqrController:
    """Linear state feedback u = -K x."""

    def __init__(self, K):
        self.K = as_matrix(K, "K")
        self._K = _coefficients(self.K)

    def u(self, X) -> np.ndarray:
        return self._law(np.asarray(X, dtype=float), None, None)[0]

    def _law(self, X, fX, GX) -> tuple[np.ndarray, None]:
        U = _contract(self._K, X)
        return ([-u for u in U] if type(X) is list else -U), None


def _in_z(fbl: FeedbackLinearization, X, v, GX, rows=slice(None)):
    """Rows ``rows`` of J_T v and J_T G(X) at states X; under ``identity_coordinates``
    a slice, with no Jacobian (``T_jac``, or finite differences), and lists kept."""
    if fbl.T is identity_coordinates:
        return v[rows], GX[rows]
    J = np.asarray(fd_jacobian(fbl.T, X) if fbl.T_jac is None else fbl.T_jac(X), dtype=float)[rows]
    return apply_input(J, v), apply_input(J[:, :, None], GX[:, None])


def _input_rows(fbl: FeedbackLinearization, B) -> tuple[slice | np.ndarray, np.ndarray]:
    """(idx, gamma(0)): the rows whose unit vectors are B_tilde's columns,
    as a slice (a view) when consecutive, and (J_T0 B)[idx] for B = G(0)."""
    Bt = as_matrix(fbl.B_tilde, "B_tilde")
    idx = np.argmax(Bt, axis=0)
    if not np.array_equal(Bt, np.eye(len(Bt))[:, idx]):
        raise ValueError("feedback linearization needs unit-vector columns in B_tilde")
    idx = slice(idx[0], idx[0] + len(idx)) if np.all(np.diff(idx) == 1) else idx
    gamma0 = (np.asarray(fbl.J_T0, dtype=float) @ B)[idx]
    try:
        _certified_inverse(gamma0)
    except SingularMatrix as exc:
        raise ValueError("gamma must be nonsingular at the origin") from exc
    return idx, gamma0


class FblController:
    """Feedback linearization: u solves psi + gamma u = -K_fbl z, with
    psi = (J_T f - A_tilde T)[idx] and gamma = (J_T G)[idx] read off f and
    G (``_input_rows``); gamma is singular where |det gamma| <=
    PIVOT_RTOL |det gamma(0)|."""

    def __init__(self, fbl: FeedbackLinearization, sys: SystemModel, K_fbl):
        self.fbl = fbl
        self.sys = sys
        self.K_fbl = as_matrix(K_fbl, "K_fbl")
        self._idx, gamma0 = _input_rows(fbl, np.asarray(sys.G(np.zeros(sys.n)), dtype=float))
        self._K_eff = _coefficients(self.K_fbl - np.asarray(fbl.A_tilde, dtype=float)[self._idx])
        self._pivot = float(PIVOT_RTOL * abs(np.linalg.det(gamma0)))

    def u(self, X) -> np.ndarray:
        """Control input; NaN where gamma is singular or outside the domain."""
        return np.asarray(self._law(*_model_at(self.sys, np.asarray(X, float)))[0], float)

    def _law(self, X, fX, GX) -> tuple[np.ndarray, None]:
        m = self.K_fbl.shape[0]
        if type(fX) is list and (m > 1 or self.fbl.T is not identity_coordinates):  # as arrays
            return self._law(np.array(X), np.array(fX), np.array(GX))[0].tolist(), None
        Z = X if self.fbl.T is identity_coordinates else np.asarray(self.fbl.T(X), dtype=float)
        Jf, gam = _in_z(self.fbl, X, fX, GX, self._idx)
        ZK = _contract(self._K_eff, Z)
        ok = self.fbl.domain(Z)
        if type(fX) is list:  # one state, one input: Python floats
            g = gam[0][0]
            return [-(Jf[0] + ZK[0]) / g if ok and abs(g) > self._pivot else np.nan], None
        rhs = -(Jf + ZK)
        if m == 1:
            g = gam[0, 0]
            ok = ok & (np.abs(g) > self._pivot)
            U = rhs / (g if _all_rows(ok) else np.where(ok, g, 1.0))
        else:  # numpy's batched solvers want the matrix axes last
            gam = np.moveaxis(gam, (0, 1), (-2, -1))
            ok = ok & (np.abs(np.linalg.det(gam)) > self._pivot)
            safe = np.where(ok[..., None, None], gam, np.eye(m))
            U = np.linalg.solve(safe, np.moveaxis(rhs, 0, -1)[..., None])[..., 0]
            U = np.moveaxis(U, -1, 0)
        return (U if _all_rows(ok) else np.where(ok, U, np.nan)), None


def fbl_gain_design(fbl: FeedbackLinearization, design: LqrDesign) -> np.ndarray:
    """Gain on the transformed coordinates that makes the full
    feedback-linearizing law match the LQR gain to first order at the
    origin: K = gamma(0) K_lqr J_T0^{-1} - dpsi/dz(0), with gamma(0) =
    (J_T0 B)[idx] and dpsi/dz(0) = (J_T0 A J_T0^{-1} - A_tilde)[idx].
    Verified by finite-differencing the assembled law at the origin against
    -R^{-1} B' P on the linear model (A, B), all its first order needs."""
    idx, gamma0 = _input_rows(fbl, design.B)
    J = np.asarray(fbl.J_T0, dtype=float)
    K_fbl = (solve_many(J.T, (gamma0 @ design.K - (J @ design.A)[idx]).T).T
             + np.asarray(fbl.A_tilde, dtype=float)[idx])
    ctrl = FblController(fbl, lti_system(design.A, design.B)[0], K_fbl)
    jac = fd_jacobian(ctrl.u, np.zeros(len(J)))
    target = -design.K
    # Written so that a NaN Jacobian (gamma singular at run time) fails.
    if not max_abs(jac - target) <= 1e-6 * (1.0 + max_abs(target)):
        raise ValueError("feedback-linearizing gain failed its local-optimality check")
    return K_fbl


def _check_normal_form(sys: SystemModel, fbl: FeedbackLinearization) -> None:
    """ValueError unless J_T(f + G u) - A_tilde T and J_T G vanish off the
    range of B_tilde, relative to their terms (1e-6 admits a finite-
    difference J_T), at eight domain points and inputs of size ~1 to ~1e-3
    from a seeded LCG (Knuth's MMIX constants; numpy.random costs ~6 MB)."""
    s, W = 1, []
    for _ in range(8 * (sys.n + sys.m)):
        s = (6364136223846793005 * s + 1442695040888963407) % 2**64
        W.append(s / 2.0**63 - 1.0)
    X, U = np.split(np.reshape(W, (sys.n + sys.m, 8)) * np.logspace(0.0, -3.0, 8), [sys.n])
    inside = np.asarray(fbl.domain(np.asarray(fbl.T(X), dtype=float)), dtype=bool)
    X, fX, GX = _model_at(sys, X[:, inside])
    zdot, JG = _in_z(fbl, X, fX + apply_input(GX, U[:, inside]), GX)
    AT = _contract(_coefficients(fbl.A_tilde), np.asarray(fbl.T(X), dtype=float))
    Bt = as_matrix(fbl.B_tilde, "B_tilde")
    off = _coefficients((np.eye(len(Bt)) - Bt @ solve_many(Bt.T @ Bt, Bt.T)).T)  # off range(B~)
    if not (max_abs(_contract(off, zdot - AT)) <= 1e-6 * (max_abs(zdot) + max_abs(AT))
            and max_abs(_contract(off, JG)) <= 1e-6 * max_abs(JG)):
        raise ValueError("the model does not have the declared normal form")


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

    Checks a design ii or iii structure against the model
    (``_check_normal_form``), linearizes the model, gates on
    stabilizability through the Riccati solve, and assembles the
    selected controller:

    - i:   Sontag-type law with the quadratic LQR-value-function CLF;
    - ii:  Sontag-type law with the transformed-coordinates CLF;
    - iii: pure feedback linearization with a locally optimal gain;
    - iv:  the LQR itself.
    """
    if selector not in DESIGN_SELECTORS:
        raise ValueError(f"unknown design selector {selector!r}")
    if selector in ("ii", "iii"):
        if fbl is None:
            raise ValueError(f"design {selector} needs a feedback-linearization structure")
        _check_normal_form(sys, fbl)
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
        controller = FblController(fbl, sys, fbl_gain_design(fbl, design))
    else:
        clf = None
        controller = LqrController(design.K)
    return SynthesisResult(selector=selector, label=DESIGN_LABELS[selector],
                           lqr=design, clf=clf, controller=controller)


__all__ = [
    "DESIGN_LABELS",
    "DESIGN_SELECTORS",
    "FblController",
    "LqrController",
    "SontagController",
    "SynthesisResult",
    "fbl_gain_design",
    "hjb_residual",
    "synthesize_design",
]
