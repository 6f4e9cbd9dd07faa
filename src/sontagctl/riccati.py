"""Continuous algebraic Riccati solver and LQR gain synthesis.

The stabilizing solution comes from the matrix sign function of the
Hamiltonian H = [[A, -B R^{-1} B'], [-Q, -A']]: its stable invariant
subspace is the graph [I; P]. Newton steps in defect-correction form,
each one Lyapunov solve for the current closed loop, then refine P to
the round-off floor. Once a step is at that floor, the closed loop moves
by round-off only, so the steps after it replay the Lyapunov sign
iterates of that first plateau step on their own defect (the chord
method) instead of inverting the closed loop again; a replay that
leaves the floor, or does not settle within the recorded iterates,
hands the next step back to a fresh solve. Only LU and Cholesky
factorizations are used, no eigensolvers, and every certificate
(positive definiteness, Hurwitz closed loop, residual size) is checked
explicitly before returning. The residual is bounded relative to the
size of its terms A'P, PBK and Q, whose rounding it measures.
P certifies the closed loop A - BK itself: P is positive definite and
a Cholesky of -(A_cl'P + P A_cl) = Q + K'RK - (residual) proves A_cl
Hurwitz by Lyapunov's theorem. The sign-function test ``is_hurwitz``
runs only when that Cholesky is inconclusive, which an ill-conditioned
Q causes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_NEWTON_ITER,
    LinalgError,
    SingularMatrix,
    _lyapunov,
    _replay_lyapunov,
    as_matrix,
    as_square,
    cholesky_pd,
    is_hurwitz,
    matrix_sign,
    max_abs,
    solve_many,
    symmetrize,
)


class NotStabilizable(Exception):
    """The iteration failed to produce a certified stabilizing solution."""


class BadWeights(Exception):
    """Q or R failed the positive-definiteness certificate."""


#: Newton steps below this relative size are at the round-off plateau,
#: where Newton's quadratic convergence leaves only rounding noise. The
#: refinement stops at the first plateau step that fails to halve the
#: step before it, and at the latest at the ``MAX_PLATEAU_STEPS``-th
#: plateau step, since halving noise is a coin toss; the final residual
#: certificate still has to pass.
PLATEAU_RTOL = 1e-9
MAX_PLATEAU_STEPS = 3
#: Residual bound certified for every returned solution, relative to
#: the size of the residual's terms (see ``_certified_residual``).
RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class LqrDesign:
    """A certified LQR design: Riccati solution and feedback gain.

    Invariants established by ``solve_care``: P symmetric positive
    definite, K = R^{-1} B' P, the Riccati residual below
    ``RESIDUAL_RTOL`` relative to 2|A'P| + |PBK| + |Q|, the size of the
    terms it is the rounding of, and A - B K Hurwitz, certified by a
    Cholesky of -((A - BK)'P + P(A - BK)), or by ``is_hurwitz`` where
    that Cholesky is inconclusive (ill-conditioned Q).
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    K: np.ndarray
    are_residual: float


def _sign_start(A, B, Q, R) -> np.ndarray:
    """Initial P from the stable graph subspace of sign(H).

    sign(H) + I annihilates [I; P], so [[S12], [S22 + I]] P =
    -[[S11 + I], [S21]], solved by normal equations.
    """
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = -B @ solve_many(R, B.T)
    H[n:, :n] = -Q
    H[n:, n:] = -A.T
    S = matrix_sign(H) + np.eye(2 * n)
    M, N = S[:, n:], S[:, :n]
    return symmetrize(solve_many(M.T @ M, -(M.T @ N)))


def _residual_and_scale(A, B, Q, P, K) -> tuple[float, float]:
    """The Riccati residual max |A'P + PA - PBK + Q| and the size of its
    terms, 2|A'P| + |PBK| + |Q|, the scale it is certified against: at
    a solution the residual is the rounding of those terms, which grows
    with |A||P| and not with |Q| alone."""
    AtP, PBK = A.T @ P, P @ B @ K
    residual = max_abs(AtP + P @ A - PBK + Q)
    return residual, 2 * max_abs(AtP) + max_abs(PBK) + max_abs(Q)


def _certified_residual(A, B, Q, P, K) -> float:
    """The Riccati residual, certified to be at most RESIDUAL_RTOL times
    its scale (``_residual_and_scale``). Raises NotStabilizable beyond
    that bound."""
    residual, scale = _residual_and_scale(A, B, Q, P, K)
    if residual > RESIDUAL_RTOL * scale:
        raise NotStabilizable(f"Riccati residual {residual:.3e} exceeds contract")
    return residual


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

    try:
        P = _sign_start(A, B, Q, R)
        step_prev = np.inf
        plateau_steps = 0
        trace = None
        for _ in range(MAX_NEWTON_ITER):
            K = solve_many(R, B.T @ P)
            W = symmetrize(A.T @ P + P @ A - P @ B @ K + Q)
            # on the plateau A - BK moves by round-off only: replay the
            # sign iterates of the first plateau step (the chord method)
            D = _replay_lyapunov(trace, W) if trace else None
            if D is None:
                trace = []
                D = _lyapunov(A - B @ K, W, trace)
            P = P + D
            step = max_abs(D)
            if step <= PLATEAU_RTOL * max_abs(P):
                plateau_steps += 1
                if step >= 0.5 * step_prev or plateau_steps == MAX_PLATEAU_STEPS:
                    break
            else:
                trace = None
            step_prev = step
        else:
            raise NotStabilizable("Newton defect correction did not settle")
    except SingularMatrix as exc:
        raise NotStabilizable("no stabilizing solution; (A, B) appears not stabilizable") from exc

    try:
        cholesky_pd(P)
    except LinalgError as exc:
        raise NotStabilizable("Riccati solution is not positive definite") from exc
    K = solve_many(R, B.T @ P)
    residual = _certified_residual(A, B, Q, P, K)
    A_cl = A - B @ K
    try:
        cholesky_pd(-symmetrize(A_cl.T @ P + P @ A_cl))
    except LinalgError:
        # inconclusive when Q + K'RK is near singular; the sign test decides
        if not is_hurwitz(A_cl):
            raise NotStabilizable("closed loop A - B K is not Hurwitz") from None
    return LqrDesign(A=A, B=B, Q=Q, R=R, P=P, K=K, are_residual=residual)

