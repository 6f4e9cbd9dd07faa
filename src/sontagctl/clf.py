"""Control Lyapunov functions and their Lie derivatives.

Two families are provided: plain quadratic functions built from a
Riccati solution, and quadratic-in-transformed-coordinates functions
for feedback-linearizable models. Both expose batch-capable ``value``
and ``grad`` on (n,) states or (n, ...) stacks; states outside a
transformed CLF's domain evaluate to NaN, and so do their Lie terms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import (_all_rows, _row_all_finite, _row_dot, _row_max_abs, _stack_matmul, as_square,
                     cholesky_pd, max_abs, solve_many, symmetrize)
from .model import FeedbackLinearization, SystemModel, fd_jacobian, identity_coordinates

#: Base absolute tolerance for treating the input-direction derivative as zero.
B_TOL_BASE = 1e-9
#: Tolerance scale for the drift-decay test in the CLF condition.
A_TOL = 1e-9


class QuadraticClf:
    """V(x) = x' P x / 2 with P symmetric positive definite."""

    def __init__(self, P):
        P = as_square(P, "P")
        cholesky_pd(P)
        self.P = symmetrize(P)
        self.p_norm = max_abs(self.P)

    def value(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return 0.5 * _row_dot(_stack_matmul(X, self.P), X)

    def grad(self, X) -> np.ndarray:
        return _stack_matmul(np.asarray(X, dtype=float), self.P)


class TransformedClf:
    """V(x) = T(x)' P_tilde T(x) / 2 on the linearization domain."""

    def __init__(self, P_tilde, fbl: FeedbackLinearization):
        P_tilde = as_square(P_tilde, "P_tilde")
        cholesky_pd(P_tilde)
        self.P_tilde = symmetrize(P_tilde)
        self.fbl = fbl
        self.p_norm = max_abs(self.P_tilde)

    def value(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Z = np.asarray(self.fbl.T(X), dtype=float)
        ok = self.fbl.domain(Z)
        v = 0.5 * _row_dot(_stack_matmul(Z, self.P_tilde), Z)
        return np.where(ok, v, np.nan)

    def grad(self, X) -> np.ndarray:
        """T_jac(x)' P_tilde T(x), NaN outside the domain. Under declared
        identity coordinates this is P_tilde x; adding +0.0 turns -0.0
        into +0.0 as the contraction with an identity Jacobian does."""
        X = np.asarray(X, dtype=float)
        if self.fbl.T is identity_coordinates:
            ok = self.fbl.domain(X)
            g = _stack_matmul(X, self.P_tilde) + 0.0
        else:
            Z = np.asarray(self.fbl.T(X), dtype=float)
            ok = self.fbl.domain(Z)
            if self.fbl.T_jac is not None:
                J = np.asarray(self.fbl.T_jac(X), dtype=float)
            else:
                J = fd_jacobian(self.fbl.T, X)
            g = _row_dot(J, _stack_matmul(Z, self.P_tilde)[:, None])
        if _all_rows(ok):
            return g
        return np.where(ok, g, np.nan)


class LieTerms(NamedTuple):
    """CLF gradient, model terms and Lie derivatives at stacked states."""

    grad: np.ndarray     # (n, ...)
    f: np.ndarray        # (n, ...)
    G: np.ndarray        # (n, m, ...)
    a: np.ndarray        # (...)    grad V . f
    b: np.ndarray        # (m, ...) grad V . G
    x_norm: np.ndarray   # (...)    |x|
    nonzero: np.ndarray  # (...)    b beyond the zero-direction threshold
    ok: np.ndarray       # (...)    finite gradient: inside the CLF domain


def lie_terms(clf, sys: SystemModel, X) -> LieTerms:
    """a = grad V . f(x) and b = grad V . G(x) at (n,) or (n, ...)
    states, with the gradient and model evaluations they came from.
    Entries are NaN outside the CLF domain.

    ``nonzero`` is the one test for an available input direction: b
    counts as zero up to the scale-aware threshold
    B_TOL_BASE (1 + |P| |x|)."""
    X = np.asarray(X, dtype=float)
    grad = np.asarray(clf.grad(X), dtype=float)
    fX = np.asarray(sys.f(X), dtype=float)
    GX = np.asarray(sys.G(X), dtype=float)
    a = _row_dot(grad, fX)
    b = _row_dot(grad[:, None], GX)
    x_norm = np.sqrt(_row_dot(X, X))
    nonzero = _row_max_abs(b) > B_TOL_BASE + (B_TOL_BASE * clf.p_norm) * x_norm
    # positional: building a NamedTuple from keywords costs ~0.8 us more a call
    return LieTerms(grad, fX, GX, a, b, x_norm, nonzero, _row_all_finite(grad))


def transform_P(P, J_T0) -> np.ndarray:
    """Pull a quadratic-form matrix back through the linearized
    coordinate change: returns J_T0^{-T} P J_T0^{-1}."""
    P = as_square(P, "P")
    cholesky_pd(P)
    J = as_square(J_T0, "J_T0")
    Y = solve_many(J.T, P)            # J^{-T} P
    Pt = solve_many(J.T, Y.T).T       # (J^{-T} Y')' = Y J^{-1}
    return symmetrize(Pt)


def clf_condition_at(clf, sys: SystemModel, X) -> np.ndarray:
    """Pointwise CLF decrease condition at (n,) or stacked (n, ...)
    nonzero states, as a row mask.

    True where some input direction is available (``nonzero`` of
    ``lie_terms``) or the drift alone decays V (a below -A_TOL |x|^2);
    False outside the CLF domain.
    """
    X = np.asarray(X, dtype=float)
    lt = lie_terms(clf, sys, X)
    return lt.nonzero | (lt.a < -A_TOL * _row_dot(X, X))


def build_lqr_clf(design) -> QuadraticClf:
    """Quadratic CLF from the value function of an LQR design."""
    return QuadraticClf(design.P)


def build_global_clf(design, fbl: FeedbackLinearization) -> TransformedClf:
    """CLF quadratic in the transformed coordinates whose quadratic
    Taylor part at the origin matches the LQR value function.

    On a bounded linearization domain the resulting function is a CLF
    on that domain only; the domain is carried along and enforced.
    """
    return TransformedClf(transform_P(design.P, fbl.J_T0), fbl)


__all__ = [
    "A_TOL",
    "B_TOL_BASE",
    "LieTerms",
    "QuadraticClf",
    "TransformedClf",
    "build_global_clf",
    "build_lqr_clf",
    "clf_condition_at",
    "lie_terms",
    "transform_P",
]
