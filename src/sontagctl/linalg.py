"""Dense linear algebra kernels for small control-design problems.

All routines operate on float64 numpy arrays at desk scale (dimensions
of order ten) and certify their own results: linear solves check pivot
magnitudes, and positive definiteness is certified by an actual Cholesky
factorization. One matrix-sign kernel, a Newton iteration built on LU
inversions alone, replaces eigensolvers: the Hurwitz test certifies
sign(A) = -I, and Lyapunov equations are read off the sign of a block
matrix.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg


class LinalgError(Exception):
    """Base class for failures of the numerical kernels."""


class SingularMatrix(LinalgError):
    """Pivoting detected numerical rank deficiency."""


class NotSymmetric(LinalgError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(LinalgError):
    """Cholesky factorization hit a nonpositive pivot."""


#: Pivots below this fraction of the largest pivot count as zero.
PIVOT_RTOL = 1e-12
#: Allowed relative asymmetry of inputs that must be symmetric.
SYMMETRY_RTOL = 1e-12
#: Relative change of successive sign iterates at which the iteration
#: has settled; also the distance from -I of a Hurwitz matrix's sign.
SIGN_RTOL = 1e-9
#: Iteration cap for the Newton iterations (matrix sign, Riccati).
MAX_NEWTON_ITER = 200


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    M = np.asarray(value, dtype=float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"{name} must be 2-d with at least one row and column")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def as_square(value, name: str = "matrix") -> np.ndarray:
    M = as_matrix(value, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def as_vector(value, name: str = "vector") -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"{name} must be 1-d with at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def max_abs(a) -> float:
    """Largest entry magnitude; the infinity norm used throughout."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _row_dot(A: np.ndarray, B: np.ndarray):
    """sum_k A[..., k] * B[..., k] over the last axis, for broadcastable
    float arrays. Adds the products column by column in index order from
    +0.0, which is numpy's order for sums of fewer than 8 terms, so the
    result is bitwise ``(A * B).sum(axis=-1)`` there (numpy sums 8 or
    more terms pairwise). Column arithmetic avoids numpy's per-row
    reduction loop over a short axis; indexing the columns on the
    leading axis of the transposed product makes them numpy scalars,
    not 0-d arrays, when there is a single row."""
    columns = (A * B).T
    s = columns[0] + 0.0
    for k in range(1, columns.shape[0]):
        s += columns[k]
    return s.T


def _row_max_abs(A: np.ndarray):
    """``np.abs(A).max(axis=-1)`` by column arithmetic; NaN propagates."""
    absA = np.abs(A)
    m = absA[..., 0]
    for k in range(1, A.shape[-1]):
        m = np.maximum(m, absA[..., k])
    return m


def _row_all_finite(A: np.ndarray):
    """``np.isfinite(A).all(axis=-1)`` by column arithmetic."""
    ok = np.isfinite(A[..., 0])
    for k in range(1, A.shape[-1]):
        ok &= np.isfinite(A[..., k])
    return ok


def symmetrize(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def _check_symmetric(M: np.ndarray, name: str) -> None:
    dev = max_abs(M - M.T)
    if dev > SYMMETRY_RTOL * max(max_abs(M), np.finfo(float).tiny):
        raise NotSymmetric(f"{name} deviates from symmetry by {dev:.3e}")


def _lu_factor(A: np.ndarray):
    """LU with partial pivoting; raises SingularMatrix on tiny pivots."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    largest = float(pivots.max())
    if largest == 0.0 or float(pivots.min()) < PIVOT_RTOL * largest:
        raise SingularMatrix("pivot below rank-deficiency threshold")
    return lu, piv


def solve_linear(A, b) -> np.ndarray:
    """Solve A x = b for square A by partially pivoted LU."""
    A = as_square(A, "A")
    b = as_vector(b, "b")
    if b.shape[0] != A.shape[0]:
        raise ValueError("right-hand side does not conform with A")
    return scipy.linalg.lu_solve(_lu_factor(A), b, check_finite=False)


def solve_many(A, B) -> np.ndarray:
    """Solve A X = B with a matrix right-hand side."""
    A = as_square(A, "A")
    B = as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise ValueError("right-hand side does not conform with A")
    return scipy.linalg.lu_solve(_lu_factor(A), B, check_finite=False)


def cholesky_pd(M) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises NotSymmetric when the input is visibly asymmetric and
    NotPositiveDefinite when a pivot fails; success doubles as the
    positive-definiteness certificate used throughout the package.
    """
    M = as_square(M, "M")
    _check_symmetric(M, "M")
    try:
        return np.linalg.cholesky(symmetrize(M))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc


def matrix_sign(Z) -> np.ndarray:
    """sign(Z) by the determinant-scaled Newton iteration.

    Iterates Z <- (c Z + (c Z)^{-1}) / 2 with c = |det Z|^{-1/n}, read
    off the LU pivots, until successive iterates agree to ``SIGN_RTOL``.
    sign(Z) has the eigenvectors of Z with eigenvalues -1 for the stable
    and +1 for the unstable ones. Raises SingularMatrix when an iterate
    is singular or the iteration does not settle, which is what
    eigenvalues on or near the imaginary axis cause.
    """
    Z = as_square(Z, "Z")
    eye = np.eye(Z.shape[0])
    for _ in range(MAX_NEWTON_ITER):
        lu_piv = _lu_factor(Z)
        c = np.exp(-np.mean(np.log(np.abs(np.diag(lu_piv[0])))))
        Z_next = 0.5 * (c * Z + scipy.linalg.lu_solve(lu_piv, eye, check_finite=False) / c)
        if max_abs(Z_next - Z) <= SIGN_RTOL * max_abs(Z_next):
            return Z_next
        Z = Z_next
    raise SingularMatrix("sign iteration did not settle; eigenvalues near the imaginary axis")


def _is_minus_identity(S: np.ndarray) -> bool:
    """Whether a computed matrix sign is -I, i.e. its argument is Hurwitz."""
    return max_abs(S + np.eye(S.shape[0])) <= SIGN_RTOL


def solve_lyapunov(A, W) -> np.ndarray:
    """Solve A' X + X A = -W for Hurwitz A and symmetric W.

    Reads X off sign([[A, 0], [-W, -A']]) = [[-I, 0], [-2X, I]]. Raises
    SingularMatrix when A is not Hurwitz. The result is symmetrized
    before returning.
    """
    A = as_square(A, "A")
    W = as_square(W, "W")
    if A.shape != W.shape:
        raise ValueError("A and W must have identical shapes")
    _check_symmetric(W, "W")
    n = A.shape[0]
    S = matrix_sign(np.block([[A, np.zeros((n, n))], [-W, -A.T]]))
    if not _is_minus_identity(S[:n, :n]):
        raise SingularMatrix("A is not Hurwitz")
    return symmetrize(-0.5 * S[n:, :n])


def is_hurwitz(A) -> bool:
    """Whether all eigenvalues of A lie in the open left half plane,
    certified as sign(A) = -I; a sign iteration that cannot settle
    maps to False."""
    A = as_square(A, "A")
    try:
        return _is_minus_identity(matrix_sign(A))
    except SingularMatrix:
        return False
