"""Continuous algebraic Riccati solver and LQR gain synthesis.

The stabilizing solution is computed by Newton iteration on the Riccati
residual (Kleinman's method), where every step solves one Lyapunov
equation for the current closed loop. The iteration needs a stabilizing
initial gain; that gain is produced by a shift continuation which
starts from the trivially stable matrix A - sigma*I, with sigma beyond
a norm bound on the spectrum of A, and walks sigma down to zero while
re-solving along the way. This keeps the whole solver free of
eigenvalue computations: only linear solves and Cholesky factorizations
are used, and every certificate (positive definiteness, Hurwitz
closed loop, residual size) is checked explicitly before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    LinalgError,
    SingularMatrix,
    as_matrix,
    as_square,
    cholesky_pd,
    is_hurwitz,
    max_abs,
    row_sum_norm,
    solve_lyapunov,
    solve_many,
    symmetrize,
)


class NotStabilizable(Exception):
    """The iteration failed to produce a certified stabilizing solution."""


class BadWeights(Exception):
    """Q or R failed the positive-definiteness certificate."""


#: Relative change of the solution at which Newton iteration stops.
CONVERGENCE_RTOL = 1e-12
#: A non-decreasing step below this relative size counts as the
#: round-off plateau; the final residual certificate still has to pass.
PLATEAU_RTOL = 1e-9
#: Iteration cap for a single Newton solve.
MAX_NEWTON_ITER = 200
#: Cap on shift-continuation rounds.
MAX_CONTINUATION_ROUNDS = 200
#: Relative residual bound certified for every returned solution.
RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class LqrDesign:
    """A certified LQR design: Riccati solution and feedback gain.

    Invariants established by ``solve_care``: P symmetric positive
    definite, K = R^{-1} B' P, the Riccati residual below
    ``RESIDUAL_RTOL`` relative to Q, and A - B K Hurwitz.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    K: np.ndarray
    are_residual: float


def _newton_iteration(A, B, Q, R, K0) -> np.ndarray:
    """Kleinman iteration from a gain K0 that stabilizes A.

    Stops when successive solutions agree to ``CONVERGENCE_RTOL``, or
    when the step has shrunk below ``PLATEAU_RTOL`` and stops
    contracting (the round-off floor for ill-conditioned instances);
    the caller's residual certificate remains the arbiter either way.
    """
    K = K0
    P_prev = None
    step_prev = np.inf
    for _ in range(MAX_NEWTON_ITER):
        closed = A - B @ K
        W = symmetrize(Q + K.T @ R @ K)
        try:
            P = solve_lyapunov(closed, W)
        except SingularMatrix as exc:
            raise NotStabilizable("Lyapunov step singular during Newton iteration") from exc
        K = solve_many(R, B.T @ P)
        if P_prev is not None:
            step = max_abs(P - P_prev)
            scale = max_abs(P_prev)
            if step <= CONVERGENCE_RTOL * scale:
                return P
            if step >= step_prev and step <= PLATEAU_RTOL * scale:
                return P
            step_prev = step
        P_prev = P
    raise NotStabilizable("Newton iteration did not converge")


def solve_care(A, B, Q, R) -> LqrDesign:
    """Stabilizing solution of A'P + PA - P B R^{-1} B' P + Q = 0.

    Q and R must be symmetric positive definite; (A, B) must be
    stabilizable. Raises BadWeights when the weights fail their
    certificate and NotStabilizable when no certified solution is
    reached.
    """
    A = as_square(A, "A")
    B = as_matrix(B, "B")
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValueError("B must have as many rows as A")
    m = B.shape[1]
    Q = as_square(Q, "Q")
    R = as_square(R, "R")
    if Q.shape[0] != n or R.shape[0] != m:
        raise ValueError("weight dimensions do not match the system")
    try:
        cholesky_pd(Q)
        cholesky_pd(R)
    except LinalgError as exc:
        raise BadWeights(f"Q and R must be symmetric positive definite: {exc}") from exc
    Q = symmetrize(Q)
    R = symmetrize(R)

    eye = np.eye(n)
    sigma = 0.0 if is_hurwitz(A) else 1.0 + row_sum_norm(A)
    sigma_floor = max(sigma, 1.0) * 2.0**-60
    K = np.zeros((m, n))
    P = None
    for _ in range(MAX_CONTINUATION_ROUNDS):
        P = _newton_iteration(A - sigma * eye, B, Q, R, K)
        K = solve_many(R, B.T @ P)
        if sigma == 0.0:
            break
        # Largest shift reduction for which the current gain still stabilizes.
        step = sigma
        while step > sigma_floor and not is_hurwitz(A - (sigma - step) * eye - B @ K):
            step *= 0.5
        if step <= sigma_floor:
            raise NotStabilizable("shift continuation stalled; (A, B) appears not stabilizable")
        sigma = 0.0 if step == sigma else sigma - step
    else:
        raise NotStabilizable("shift continuation exhausted its round budget")

    P = symmetrize(P)
    try:
        cholesky_pd(P)
    except LinalgError as exc:
        raise NotStabilizable("Riccati solution is not positive definite") from exc
    K = solve_many(R, B.T @ P)
    residual = max_abs(A.T @ P + P @ A - P @ B @ K + Q)
    if residual > RESIDUAL_RTOL * max_abs(Q):
        raise NotStabilizable(f"Riccati residual {residual:.3e} exceeds contract")
    if not is_hurwitz(A - B @ K):
        raise NotStabilizable("closed loop A - B K is not Hurwitz")
    return LqrDesign(A=A, B=B, Q=Q, R=R, P=P, K=K, are_residual=residual)

