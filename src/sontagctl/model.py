"""Input-affine system models, linearization, and the inverted pendulum.

Dynamics callables follow a stacked convention: states may carry
arbitrary leading batch axes with the state coordinates on the last
axis. ``f`` maps (..., n) -> (..., n) and ``G`` maps (..., n) ->
(..., n, m), so simulation and grid code can evaluate a model on many
states at once without special cases. The shipped models read and write
coordinate k through the transpose (``X.T[k]``, ``out.T[k] = ...``): on
a stack that is the same strided view as ``X[..., k]``, and on a single
(n,) state it is a numpy scalar, where ``X[..., k]`` would be a 0-d
array whose ``sin`` or ``abs`` pays array dispatch. All models are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import SingularMatrix, _certified_inverse, as_matrix, as_square, max_abs

EQUILIBRIUM_TOL = 1e-12
#: Default relative step for central finite differences.
FD_STEP_SCALE = 1e-6


class NonFiniteJacobian(Exception):
    """Linearization produced overflow or NaN entries."""


def _whole_space(Z) -> np.ndarray:
    """The domain predicate that holds on every state."""
    return np.ones(np.shape(Z)[:-1], dtype=bool)[()]


@dataclass(frozen=True)
class SystemModel:
    """Input-affine dynamics xdot = f(x) + G(x) u with equilibrium at 0."""

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    f_jac: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __post_init__(self):
        zero = np.zeros(self.n)
        f0 = np.asarray(self.f(zero), dtype=float)
        if f0.shape != (self.n,):
            raise ValueError("f must map (n,) states to (n,) derivatives")
        if max_abs(f0) > EQUILIBRIUM_TOL:
            raise ValueError("the origin must be an equilibrium of the drift")
        G0 = np.asarray(self.G(zero), dtype=float)
        if G0.shape != (self.n, self.m):
            raise ValueError("G must map (n,) states to (n, m) input matrices")


@dataclass(frozen=True)
class FeedbackLinearization:
    """Coordinates z = T(x) in which the dynamics read
    zdot = A_tilde z + B_tilde (psi(z) + gamma(z) u) with gamma
    nonsingular on ``domain``, a predicate that maps stacked (..., n)
    z to a (...,) mask (all of state space by default).
    ``T = identity_coordinates`` declares z = x; ``T_jac`` (finite
    differences when None) is then never used."""

    T: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    gamma: Callable[[np.ndarray], np.ndarray]
    A_tilde: np.ndarray
    B_tilde: np.ndarray
    J_T0: np.ndarray
    T_jac: Callable[[np.ndarray], np.ndarray] | None = None
    psi_jac: Callable[[np.ndarray], np.ndarray] | None = None
    domain: Callable[[np.ndarray], np.ndarray] = _whole_space
    name: str = ""

    def __post_init__(self):
        A = as_square(self.A_tilde, "A_tilde")
        B = as_matrix(self.B_tilde, "B_tilde")
        n, m = B.shape
        if A.shape[0] != n:
            raise ValueError("A_tilde and B_tilde dimensions disagree")
        J = as_square(self.J_T0, "J_T0")
        if J.shape[0] != n:
            raise ValueError("J_T0 must be n-by-n")
        try:
            _certified_inverse(J)
        except SingularMatrix as exc:
            raise ValueError("J_T0 must be invertible") from exc
        zero = np.zeros(n)
        if max_abs(np.asarray(self.T(zero), dtype=float)) > EQUILIBRIUM_TOL:
            raise ValueError("T must map the origin to the origin")
        psi0 = np.asarray(self.psi(zero), dtype=float)
        if psi0.shape != (m,):
            raise ValueError("psi must map (n,) to (m,)")
        if max_abs(psi0) > EQUILIBRIUM_TOL:
            raise ValueError("psi must vanish at the origin")
        gamma0 = np.asarray(self.gamma(zero), dtype=float)
        if gamma0.shape != (m, m):
            raise ValueError("gamma must map (n,) to (m, m)")
        try:
            _certified_inverse(gamma0)
        except SingularMatrix as exc:
            raise ValueError("gamma must be nonsingular at the origin") from exc


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters of the inverted pendulum on a cart."""

    mass: float = 1.0      # kg
    gravity: float = 9.81  # m/s^2
    length: float = 1.0    # m
    inertia: float = 0.0   # kg m^2

    def __post_init__(self):
        if not (self.mass > 0 and self.gravity > 0 and self.length > 0):
            raise ValueError("mass, gravity, and length must be positive")
        if self.inertia < 0:
            raise ValueError("inertia must be nonnegative")
        if self.inertia + self.mass * self.length**2 <= 0:
            raise ValueError("total rotational inertia must be positive")


def fd_jacobian(fn, x, step_scale: float = FD_STEP_SCALE) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at ``x``.

    The per-coordinate step is ``step_scale * (1 + |x_i|)``. Accepts
    stacked states; the result has shape (..., k, n) for fn mapping
    (..., n) -> (..., k).
    """
    X = np.asarray(x, dtype=float)
    n = X.shape[-1]
    cols = []
    for i in range(n):
        h = np.asarray(step_scale * (1.0 + np.abs(X[..., i])))
        E = np.zeros_like(X)
        E[..., i] = h
        hi = np.asarray(2.0 * h)[..., None]
        cols.append((np.asarray(fn(X + E), float) - np.asarray(fn(X - E), float)) / hi)
    return np.stack(cols, axis=-1)


def apply_input(Gx, u) -> np.ndarray:
    """Contract an (..., n, m) input matrix with (..., m) inputs, adding
    the input columns in index order from +0.0 as ``_row_dot`` does.
    The columns are ``Gx.T[k] * u.T[k]``: on a single state, input k
    is a numpy scalar, not a 0-d array."""
    GT = np.asarray(Gx, dtype=float).T
    uT = np.asarray(u, dtype=float).T
    s = GT[0] * uT[0] + 0.0
    for k in range(1, len(GT)):
        s += GT[k] * uT[k]
    return s.T


def linearize(sys: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """Linearization (A, B) of the model at the origin.

    A comes from the analytic Jacobian when the model provides one and
    from central finite differences otherwise; B = G(0) in both cases.
    """
    zero = np.zeros(sys.n)
    if sys.f_jac is not None:
        A = np.asarray(sys.f_jac(zero), dtype=float)
    else:
        A = fd_jacobian(sys.f, zero)
    B = np.asarray(sys.G(zero), dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise NonFiniteJacobian("linearization produced non-finite entries")
    if A.shape != (sys.n, sys.n):
        raise NonFiniteJacobian("drift Jacobian has the wrong shape")
    return A, B


def identity_coordinates(X) -> np.ndarray:
    """z = T(x) = x. A model whose feedback-linearizing coordinates are
    its own states passes this function itself as ``T``; a transformed
    CLF recognises it and skips the coordinate change and its Jacobian."""
    return np.asarray(X, dtype=float)


def pendulum_system(params: PendulumParams | None = None):
    """Inverted pendulum (angle from upright, angular rate; cart
    acceleration input) together with its feedback-linearization
    structure.

    Returns ``(SystemModel, FeedbackLinearization)``. The transformed
    coordinates are the original ones (T = ``identity_coordinates``);
    gamma is singular at an angle of +-pi/2, which bounds the
    linearization domain.
    """
    p = params if params is not None else PendulumParams()
    denom = p.inertia + p.mass * p.length**2
    drift_gain = p.mass * p.gravity * p.length / denom
    input_gain = p.mass * p.length / denom

    def f(X):
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        XT, outT = X.T, out.T
        outT[0] = XT[1]
        outT[1] = drift_gain * np.sin(XT[0])
        return out

    def G(X):
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape + (1,))
        out.T[0, 1] = -input_gain * np.cos(X.T[0])
        return out

    def f_jac(X):
        X = np.asarray(X, dtype=float)
        J = np.zeros(X.shape[:-1] + (2, 2))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = drift_gain * np.cos(X[..., 0])
        return J

    def psi(Z):
        Z = np.asarray(Z, dtype=float)
        return drift_gain * np.sin(Z[..., :1])

    def psi_jac(Z):
        Z = np.asarray(Z, dtype=float)
        J = np.zeros(Z.shape[:-1] + (1, 2))
        J[..., 0, 0] = drift_gain * np.cos(Z[..., 0])
        return J

    def gamma(Z):
        Z = np.asarray(Z, dtype=float)
        out = np.zeros(Z.shape[:-1] + (1, 1))
        out.T[0, 0] = -input_gain * np.cos(Z.T[0])
        return out

    def domain(Z):
        return (np.abs(Z.T[0]) < np.pi / 2).T

    system = SystemModel(n=2, m=1, f=f, G=G, f_jac=f_jac, name="pendulum")
    fbl = FeedbackLinearization(
        T=identity_coordinates,
        psi=psi,
        gamma=gamma,
        A_tilde=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B_tilde=np.array([[0.0], [1.0]]),
        J_T0=np.eye(2),
        psi_jac=psi_jac,
        domain=domain,
        name="pendulum",
    )
    return system, fbl


def lti_system(A, B, name: str = "lti"):
    """Linear time-invariant model plus its trivial feedback
    linearization (identity coordinates, zero psi, identity gamma)."""
    A = as_square(A, "A")
    B = as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise ValueError("B must have as many rows as A")
    n, m = B.shape

    def f(X):
        return np.asarray(X, dtype=float) @ A.T

    def G(X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(B, X.shape[:-1] + (n, m))

    def f_jac(X):
        X = np.asarray(X, dtype=float)
        return np.broadcast_to(A, X.shape[:-1] + (n, n))

    def psi(Z):
        Z = np.asarray(Z, dtype=float)
        return np.zeros(Z.shape[:-1] + (m,))

    def psi_jac(Z):
        Z = np.asarray(Z, dtype=float)
        return np.zeros(Z.shape[:-1] + (m, n))

    def gamma(Z):
        Z = np.asarray(Z, dtype=float)
        return np.broadcast_to(np.eye(m), Z.shape[:-1] + (m, m))

    system = SystemModel(n=n, m=m, f=f, G=G, f_jac=f_jac, name=name)
    fbl = FeedbackLinearization(
        T=identity_coordinates,
        psi=psi,
        gamma=gamma,
        A_tilde=A,
        B_tilde=B,
        J_T0=np.eye(n),
        psi_jac=psi_jac,
        name=name,
    )
    return system, fbl


__all__ = [
    "FeedbackLinearization",
    "NonFiniteJacobian",
    "PendulumParams",
    "SystemModel",
    "apply_input",
    "fd_jacobian",
    "identity_coordinates",
    "linearize",
    "lti_system",
    "pendulum_system",
]
