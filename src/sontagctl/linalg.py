"""Dense linear algebra kernels for small control-design problems.

All routines operate on float64 numpy arrays at desk scale (dimensions
of order ten) and certify their own results: every LU solve checks the
1-norm condition number of its matrix, and positive definiteness is
certified by an actual Cholesky factorization. One matrix-sign kernel,
a Newton iteration built on LU inversions alone, replaces eigensolvers:
the Hurwitz test certifies sign(A) = -I, and Lyapunov equations are read
off the sign of the block matrix [[A, 0], [-W, -A']], iterated on its
n-by-n blocks (Roberts' form) so that only A is ever inverted. Products
with states are sums in index order from +0.0 with no BLAS call (``_contract``).
"""

from __future__ import annotations

import math
import operator

import numpy as np


class LinalgError(Exception):
    """Base class for failures of the numerical kernels."""


class SingularMatrix(LinalgError):
    """The condition certificate detected numerical rank deficiency."""


class NotSymmetric(LinalgError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(LinalgError):
    """Cholesky factorization hit a nonpositive pivot."""


#: A matrix whose 1-norm condition number exceeds 1/PIVOT_RTOL counts
#: as singular.
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
    if not np.isfinite(M).all():
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
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def max_abs(a) -> float:
    """Largest entry magnitude; the infinity norm used throughout."""
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def _row_dot(A, B):
    """sum_k A[k] * B[k] over the leading (coordinate) axis of (n, ...)
    float arrays; a float over one state's n floats (lists, or (n,) arrays
    read as them). Adds in index order from +0.0, numpy's order for sums of
    fewer than 8 terms, so the result is bitwise ``(A * B).sum(axis=0)``."""
    if type(A) is list:
        s = 0.0
        for r in map(operator.mul, A, B):
            s += r
        return s
    if A.ndim == 1:
        return _row_dot(A.tolist(), B.tolist())
    rows = A * B
    s = rows[0] + 0.0
    for k in range(1, len(rows)):
        s += rows[k]
    return s


def _coefficients(M) -> tuple[int, list, list]:
    """(n, rows as floats, columns as (k, 1) views) of a (k, n) matrix, for ``_contract``."""
    M = np.asarray(M, dtype=float)
    return M.shape[1], M.tolist(), list(M.T[:, :, None])


def _contract(M, X):
    """M x at each state, M as ``_coefficients(M)``: entry j is sum_i X[i] *
    M[j, i] added in index order from +0.0, as ``_row_dot`` adds, with no BLAS
    call (so no fused multiply-add) and bits that no kernel, batch width or
    layout changes. A list of n floats or n stack rows gives a list, any other
    (n,) or (n, ...) stack a (k, ...) array; ValueError unless X has n rows."""
    n, rows, cols = M
    if len(X) != n:
        raise ValueError(f"a state of {len(X)} coordinates does not conform with {n} columns")
    if type(X) is list and type(X[0]) is not list:
        return [_row_dot(X, r) for r in rows]
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        return _contract(M, X.reshape(n, -1)).reshape((len(rows),) + X.shape[1:])
    s = X[0] * cols[0]
    for i in range(1, n):
        s += X[i] * cols[i]
    s += 0.0  # from +0.0: a sum of -0.0 products is +0.0
    return s


def _select(mask, a, b):
    """``np.where(mask, a, b)`` for a row mask. A row scalar (one state's
    ``bool``, or a 0-d mask) picks ``a`` or ``b`` in Python instead, so
    scalars stay scalars rather than becoming 0-d arrays."""
    if type(mask) is bool or mask.ndim == 0:
        return a if mask else b
    return np.where(mask, a, b)


def _all_rows(mask) -> bool:
    """Whether a row mask holds on every row: ``bool`` on a row scalar,
    and on a stack a count, which takes half as long as ``.all()``."""
    if type(mask) is bool or mask.ndim == 0:
        return bool(mask)
    return np.count_nonzero(mask) == mask.size


def _row_max_abs(A):
    """``np.abs(A).max(axis=0)``, the first NaN kept as ``np.maximum``
    does; one state's floats (a list, or an (n,) array) compare in Python."""
    if type(A) is list:
        m = 0.0
        for r in map(abs, A):
            if not (m >= r or m != m):
                m = r
        return m
    if A.ndim == 1:
        return _row_max_abs(A.tolist())
    rows = np.abs(A)
    m = rows[0]
    for r in rows[1:]:
        m = np.maximum(m, r)
    return m


def _row_all_finite(A):
    """``np.isfinite(A).all(axis=0)``: one ``isfinite`` over A, its rows
    combined as ``_row_dot``; ``math.isfinite`` on one state's floats."""
    if type(A) is list:
        return all(map(math.isfinite, A))
    rows = np.isfinite(A)
    ok = rows[0]
    for k in range(1, len(rows)):
        ok = ok & rows[k]
    return ok


def symmetrize(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def _check_symmetric(M: np.ndarray, name: str) -> None:
    dev = max_abs(M - M.T)
    if dev > SYMMETRY_RTOL * max(max_abs(M), np.finfo(float).tiny):
        raise NotSymmetric(f"{name} deviates from symmetry by {dev:.3e}")


def _norm1(M: np.ndarray) -> float:
    """``np.linalg.norm(M, 1)`` for a 2-d float M: the same reductions,
    so the same bits, without the wrapper's dispatch."""
    return np.abs(M).sum(axis=0).max()


def _certified(A: np.ndarray, lapack, *rhs) -> np.ndarray:
    """``lapack(A, *rhs)``, whose last n columns are A^{-1}, under the
    condition certificate: SingularMatrix unless ||A||_1 ||A^{-1}||_1 is
    at most 1/PIVOT_RTOL, which also catches an exactly zero pivot and
    an inverse that overflowed.
    """
    try:
        out = lapack(A, *rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("exactly singular matrix") from exc
    if not _norm1(A) * _norm1(out[:, -A.shape[0]:]) <= 1.0 / PIVOT_RTOL:
        raise SingularMatrix("condition number beyond rank-deficiency threshold")
    return out


def _certified_inverse(A: np.ndarray) -> np.ndarray:
    """A^{-1} from one ``np.linalg.inv``, certified."""
    return _certified(A, np.linalg.inv)


def solve_many(A, B) -> np.ndarray:
    """Solve A X = B with a matrix right-hand side: one LAPACK gesv on
    [B | I] yields X and the inverse that certifies it."""
    A = as_square(A, "A")
    B = as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise ValueError("right-hand side does not conform with A")
    return _certified(A, np.linalg.solve, np.hstack([B, np.eye(A.shape[0])]))[:, :B.shape[1]]


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


def _newton_sign(Z: np.ndarray, C: np.ndarray | None = None, trace: list | None = None):
    """(sign(Z), C_inf) by the determinant-scaled Newton iteration.

    Z <- (c Z + Z^{-1}/c) / 2 with c = |det Z|^{-1/n} from
    ``np.linalg.slogdet``. A given C is the coupled block of
    [[Z, 0], [C, -Z']], carried in Roberts' form as
    C <- (c C + Z^{-T} C Z^{-1}/c) / 2, so the sign of that block matrix,
    [[sign(Z), 0], [C_inf, -sign(Z)']], costs n-by-n inverses of Z alone.
    Each block stops on its own relative change, so C_inf is homogeneous
    in C. A given ``trace`` list receives (Z^{-1}, c, whether Z has
    settled) for each iterate, which ``_replay_lyapunov`` replays on
    another C. Raises SingularMatrix as ``matrix_sign`` does.
    """
    n = Z.shape[0]
    for _ in range(MAX_NEWTON_ITER):
        Z_inv = _certified_inverse(Z)
        c = np.exp(-np.linalg.slogdet(Z)[1] / n)
        Z_next = 0.5 * (c * Z + Z_inv / c)
        settled = max_abs(Z_next - Z) <= SIGN_RTOL * max_abs(Z_next)
        if trace is not None:
            trace.append((Z_inv, c, settled))
        if C is not None:
            C, settled = _roberts_step(C, Z_inv, c, settled)
        if settled:
            return Z_next, C
        Z = Z_next
    raise SingularMatrix("sign iteration did not settle; eigenvalues near the imaginary axis")


def _roberts_step(C: np.ndarray, Z_inv: np.ndarray, c, settled: bool):
    """One Roberts-form update of the coupled block, and whether the
    iteration has settled: Z had (``settled``) and C's relative change
    is at most SIGN_RTOL."""
    C_next = 0.5 * (c * C + Z_inv.T @ C @ Z_inv / c)
    return C_next, settled and max_abs(C_next - C) <= SIGN_RTOL * max_abs(C_next)


def matrix_sign(Z) -> np.ndarray:
    """sign(Z) by ``_newton_sign``: the eigenvectors of Z, with
    eigenvalues -1 for the stable and +1 for the unstable ones. Raises
    SingularMatrix when an iterate fails the condition certificate or
    the iteration does not settle, which is what eigenvalues on or near
    the imaginary axis cause.
    """
    return _newton_sign(as_square(Z, "Z"))[0]


def _is_minus_identity(S: np.ndarray) -> bool:
    """Whether a computed matrix sign is -I, i.e. its argument is Hurwitz."""
    return max_abs(S + np.eye(S.shape[0])) <= SIGN_RTOL


def solve_lyapunov(A, W) -> np.ndarray:
    """Solve A' X + X A = -W for Hurwitz A and symmetric W.

    Reads X off sign([[A, 0], [-W, -A']]) = [[-I, 0], [-2X, I]], iterated
    in Roberts' form on the n-by-n blocks: each iterate inverts A alone,
    and the condition certificate judges A, not the block matrix, so the
    size of W cannot make a well-conditioned A look singular. X is
    homogeneous in W: scaling W scales X. Raises SingularMatrix when A
    is not Hurwitz. The result is symmetrized before returning.
    """
    A = as_square(A, "A")
    W = as_square(W, "W")
    if A.shape != W.shape:
        raise ValueError("A and W must have identical shapes")
    _check_symmetric(W, "W")
    return _lyapunov(A, W)


def _lyapunov(A: np.ndarray, W: np.ndarray, trace: list | None = None) -> np.ndarray:
    """``solve_lyapunov`` on inputs already validated; a given ``trace``
    list records the sign iterates of A for ``_replay_lyapunov``."""
    S, C = _newton_sign(A, -W, trace)
    if not _is_minus_identity(S):
        raise SingularMatrix("A is not Hurwitz")
    return symmetrize(-0.5 * C)


def _replay_lyapunov(trace: list, W: np.ndarray):
    """``_lyapunov(A, W)`` from the iterates that an earlier ``_lyapunov``
    on the same A recorded: the same Roberts-form updates and stop rule
    with no inverse or determinant, so bitwise a fresh solve, whose
    sign = -I certificate covers this one. None when C has not settled
    by the last recorded iterate."""
    C = -W
    for Z_inv, c, settled in trace:
        C, settled = _roberts_step(C, Z_inv, c, settled)
        if settled:
            return symmetrize(-0.5 * C)
    return None


def is_hurwitz(A) -> bool:
    """Whether all eigenvalues of A lie in the open left half plane,
    certified as sign(A) = -I; a sign iteration that cannot settle
    maps to False."""
    A = as_square(A, "A")
    try:
        return _is_minus_identity(matrix_sign(A))
    except SingularMatrix:
        return False
