"""Control Lyapunov functions and their Lie derivatives.

Two families are provided: plain quadratic functions built from a
Riccati solution, and quadratic-in-transformed-coordinates functions
for feedback-linearizable models. Both expose batch-capable ``value``
and ``grad`` on (n,) states or (n, ...) stacks; states outside a
transformed CLF's domain evaluate to NaN, and so do their Lie terms.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (NotPositiveDefinite, _all_rows, _row_all_finite, _row_dot, _row_max_abs,
                     _stack_matmul, as_matrix, as_square, cholesky_pd, solve_many, symmetrize)
from .model import FeedbackLinearization, SystemModel, fd_jacobian, identity_coordinates


class QuadraticClf:
    """V(x) = x' P x / 2 with P symmetric positive definite."""

    def __init__(self, P):
        P = as_square(P, "P")
        cholesky_pd(P)
        self.P = symmetrize(P)

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
    ok: np.ndarray       # (...)    finite gradient: inside the CLF domain


def lie_terms(clf, sys: SystemModel, X) -> LieTerms:
    """a = grad V . f(x) and b = grad V . G(x) at (n,) or (n, ...)
    states, with the gradient and model evaluations they came from.
    Entries are NaN outside the CLF domain."""
    X = np.asarray(X, dtype=float)
    grad = np.asarray(clf.grad(X), dtype=float)
    fX = np.asarray(sys.f(X), dtype=float)
    GX = np.asarray(sys.G(X), dtype=float)
    a = _row_dot(grad, fX)
    b = _row_dot(grad[:, None], GX)
    # positional: building a NamedTuple from keywords costs ~0.8 us more a call
    return LieTerms(grad, fX, GX, a, b, _row_all_finite(grad))


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

    True where b(x) != 0 or a(x) < 0, both compared exactly with 0;
    False outside the CLF domain.
    """
    lt = lie_terms(clf, sys, X)
    return (_row_max_abs(lt.b) > 0.0) | (lt.a < 0.0)


def global_clf_margin(fbl: FeedbackLinearization, P_tilde) -> float:
    """Exact certificate that V = z' P_tilde z / 2 meets the CLF
    condition at every nonzero z where gamma is nonsingular.

    There b = 0 exactly on ker(B_tilde' P_tilde), which the columns of
    N = P_tilde^{-1} B_perp span (B_perp from a complete QR of B_tilde),
    and on it a = z'Mz / 2 with M = A_tilde' P_tilde + P_tilde A_tilde.
    So the condition holds iff -N'MN is positive definite (Finsler's
    lemma). Returns the smallest Cholesky pivot of -N'MN, 0.0 when the
    Cholesky fails, and +inf when m = n, where b = 0 only at z = 0.
    """
    P = as_square(P_tilde, "P_tilde")
    cholesky_pd(P)
    P = symmetrize(P)
    A = as_square(fbl.A_tilde, "A_tilde")
    B = as_matrix(fbl.B_tilde, "B_tilde")
    n, m = B.shape
    if m == n:
        return math.inf
    N = solve_many(P, np.linalg.qr(B, mode="complete")[0][:, m:])
    try:
        L = cholesky_pd(symmetrize(-(N.T @ (A.T @ P + P @ A) @ N)))
    except NotPositiveDefinite:
        return 0.0
    return float(L.diagonal().min())


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
    "LieTerms",
    "QuadraticClf",
    "TransformedClf",
    "build_global_clf",
    "build_lqr_clf",
    "clf_condition_at",
    "global_clf_margin",
    "lie_terms",
    "transform_P",
]
