"""Control Lyapunov functions and their Lie derivatives.

Two families are provided: plain quadratic functions built from a
Riccati solution, and quadratic-in-transformed-coordinates functions
for feedback-linearizable models. Both expose batch-capable ``value``
and ``grad`` on (n,) states or (n, ...) stacks; states outside a
transformed CLF's domain evaluate to NaN, and so do their Lie terms.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .linalg import (NotPositiveDefinite, _all_rows, _coefficients, _contract, _row_all_finite,
                     _row_dot, _row_max_abs, as_matrix, as_square, cholesky_pd, solve_many,
                     symmetrize)
from .model import FeedbackLinearization, SystemModel, _model_at, fd_jacobian, identity_coordinates


class QuadraticClf:
    """V(x) = x' P x / 2 with P symmetric positive definite."""

    def __init__(self, P):
        P = as_square(P, "P")
        cholesky_pd(P)
        self.P = symmetrize(P)
        self._grad = partial(_contract, _coefficients(self.P))   # P x

    def value(self, X) -> np.ndarray:
        return 0.5 * _row_dot(self._grad(X), X)

    def grad(self, X) -> np.ndarray:
        return self._grad(np.asarray(X, dtype=float))


class TransformedClf:
    """V(x) = T(x)' P_tilde T(x) / 2 on the linearization domain."""

    def __init__(self, P_tilde, fbl: FeedbackLinearization):
        P_tilde = as_square(P_tilde, "P_tilde")
        cholesky_pd(P_tilde)
        self.P_tilde = symmetrize(P_tilde)
        self._Pz = partial(_contract, _coefficients(self.P_tilde))   # P_tilde z
        self.fbl = fbl

    def value(self, X) -> np.ndarray:
        Z = np.asarray(self.fbl.T(np.asarray(X, dtype=float)), dtype=float)
        ok, V = self.fbl.domain(Z), 0.5 * _row_dot(self._Pz(Z), Z)
        if np.ndim(ok):
            return np.where(ok, V, np.nan)
        return V if ok else np.nan  # one state: a float, not a 0-d array

    def grad(self, X) -> np.ndarray:
        return self._grad(np.asarray(X, dtype=float))

    def _grad(self, X):
        """T_jac(x)' P_tilde T(x) (P_tilde x under identity coordinates), NaN off the domain."""
        if self.fbl.T is identity_coordinates:
            ok, g = self.fbl.domain(X), self._Pz(X)
        elif type(X) is list:  # T and T_jac take one state as an (n,) array
            return self._grad(np.array(X)).tolist()
        else:
            Z = np.asarray(self.fbl.T(X), dtype=float)
            ok = self.fbl.domain(Z)
            J = (fd_jacobian(self.fbl.T, X) if self.fbl.T_jac is None
                 else np.asarray(self.fbl.T_jac(X), dtype=float))
            g = _row_dot(J, self._Pz(Z)[:, None])
        if _all_rows(ok):
            return g
        return [math.nan] * len(g) if type(g) is list else np.where(ok, g, np.nan)


class LieTerms(NamedTuple):
    """CLF gradient and Lie derivatives at stacked states."""

    grad: np.ndarray     # (n, ...)
    a: np.ndarray        # (...)    grad V . f
    b: np.ndarray        # (m, ...) grad V . G
    ok: np.ndarray       # (...)    finite gradient: inside the CLF domain


def lie_terms(clf, sys: SystemModel, X) -> LieTerms:
    """a = grad V . f(x) and b = grad V . G(x) at (n,) or (n, ...)
    states, with the gradient; NaN outside the CLF domain."""
    grad, a, b, ok = _lie_rows(clf, *_model_at(sys, np.asarray(X, dtype=float)))
    return LieTerms(np.asarray(grad, float), a, np.array(b), ok)  # positional: ~0.8 us faster


def _lie_rows(clf, X, fX, GX, R_inv=None, Q=None):
    """(grad, a, b, ok) at X from f(X) and G(X), plus (Rb, beta, q = x'Qx)
    given R_inv and Q as ``_coefficients``, one input at a time: b_j = grad
    V . G[:, j], Rb_j = (R^{-1} b')_j and beta = sum_j b_j Rb_j, sums in index
    order from +0.0, with b and Rb lists of m rows; floats on one state."""
    g = clf._grad(X) if hasattr(clf, "_grad") else np.asarray(clf.grad(X), dtype=float)
    if type(fX) is list:  # one state: a, b_j and the finite test inline on its floats
        g = g if type(g) is list else g.tolist()  # a public grad's array
        a, b = 0.0, [0.0] * len(GX[0])
        for g_k, f_k, G_k in zip(g, fX, GX):  # each sum in index order from +0.0
            a += g_k * f_k
            for j, G_kj in enumerate(G_k):
                b[j] += g_k * G_kj
        ok = all(map(math.isfinite, g))
    else:
        a, b = _row_dot(g, fX), [_row_dot(g, G_j) for G_j in GX.swapaxes(0, 1)]
        ok = _row_all_finite(g)
    out = g, a, b, ok
    if R_inv is None:
        return out
    Rb = _contract(R_inv, b)   # b is a list of rows, one state's or a stack's
    return (*out, Rb, _row_dot(b, Rb), _row_dot(_contract(Q, X), X))


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
