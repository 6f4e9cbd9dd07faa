"""Input-affine system models, linearization, and the inverted pendulum.

Dynamics callables follow a coordinates-first stacked convention: a
state is (n,), and a stack (n, ...) carries its batch axes after the
coordinates. ``f`` maps (n, ...) -> (n, ...) and ``G`` maps (n, ...) ->
(n, m, ...), so simulation and grid code evaluate a model on many states
at once without special cases. Coordinate k is ``X[k]``, a contiguous
row of a stack. One state reaches f, G and ``domain`` as a list of n
floats; f and G may return rows (n floats; n rows of m floats) or arrays
(``_model_at``). Models are immutable and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .linalg import (SingularMatrix, _certified_inverse, _coefficients, _contract, as_matrix,
                     as_square, max_abs)

EQUILIBRIUM_TOL = 1e-12
#: Default relative step for central finite differences.
FD_STEP_SCALE = 1e-6


class NonFiniteJacobian(Exception):
    """Linearization produced overflow or NaN entries."""


def _whole_space(Z) -> np.ndarray:
    """The domain predicate that holds on every state."""
    return np.ones(np.asarray(Z).shape[1:], dtype=bool)[()]


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
        for zero in (np.zeros(self.n), [0.0] * self.n):
            f0 = np.asarray(self.f(zero), dtype=float)
            if f0.shape != (self.n,):
                raise ValueError("f must map (n,) states and lists to n derivatives")
            if max_abs(f0) > EQUILIBRIUM_TOL:
                raise ValueError("the origin must be an equilibrium of the drift")
            if np.shape(self.G(zero)) != (self.n, self.m):
                raise ValueError("G must map (n,) states and lists to n rows of m inputs")


@dataclass(frozen=True)
class FeedbackLinearization:
    """Coordinates z = T(x) in which the model takes the normal form
    J_T(f + G u) = A_tilde T + B_tilde (psi + gamma u) on ``domain``, a (...)
    mask of (n, ...) z, true everywhere by default. ``T = identity_coordinates``
    declares z = x: ``T_jac`` is then unused and ``domain`` also gets one state's list."""

    T: Callable[[np.ndarray], np.ndarray]
    A_tilde: np.ndarray
    B_tilde: np.ndarray
    J_T0: np.ndarray
    T_jac: Callable[[np.ndarray], np.ndarray] | None = None
    domain: Callable[[np.ndarray], np.ndarray] = _whole_space
    name: str = ""

    def __post_init__(self):
        A = as_square(self.A_tilde, "A_tilde")
        B = as_matrix(self.B_tilde, "B_tilde")
        J = as_square(self.J_T0, "J_T0")
        if not A.shape[0] == J.shape[0] == B.shape[0]:
            raise ValueError("A_tilde, B_tilde and J_T0 dimensions disagree")
        try:
            _certified_inverse(J)
        except SingularMatrix as exc:
            raise ValueError("J_T0 must be invertible") from exc
        if max_abs(np.asarray(self.T(np.zeros(B.shape[0])), dtype=float)) > EQUILIBRIUM_TOL:
            raise ValueError("T must map the origin to the origin")
        if self.T is identity_coordinates and not self.domain([0.0] * B.shape[0]):
            raise ValueError("domain must hold at the origin, given as a list of n floats")


def _model_at(sys: SystemModel, X) -> tuple:
    """(X, f(X), G(X)) at a float stack or one state, a list of n floats or
    an (n,) array read as one, which comes back as lists."""
    if type(X) is not list and X.ndim > 1:
        return X, np.asarray(sys.f(X), dtype=float), np.asarray(sys.G(X), dtype=float)
    X = X if type(X) is list else X.tolist()
    fX, GX = sys.f(X), sys.G(X)
    return (X, fX if type(fX) is list else np.asarray(fX, dtype=float).tolist(),
            GX if type(GX) is list else np.asarray(GX, dtype=float).tolist())


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
    stacked states; the result has shape (k, n, ...) for fn mapping
    (n, ...) -> (k, ...).
    """
    X = np.asarray(x, dtype=float)
    cols = []
    for i in range(len(X)):
        h = step_scale * (1.0 + np.abs(X[i]))
        E = np.zeros_like(X)
        E[i] = h
        cols.append((np.asarray(fn(X + E), float) - np.asarray(fn(X - E), float)) / (2.0 * h))
    return np.stack(cols, axis=1)


def apply_input(Gx, u):
    """Contract an (n, m, ...) float array with (m, ...) inputs, adding the
    columns ``Gx[:, k] * u[k]`` in index order from +0.0 as ``_row_dot``
    does, with no conversion. (One state's stage adds its G u into f itself.)"""
    s = Gx[:, 0] * u[0] + 0.0
    for k in range(1, len(u)):
        s += Gx[:, k] * u[k]
    return s


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
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise NonFiniteJacobian("linearization produced non-finite entries")
    if A.shape != (sys.n, sys.n):
        raise NonFiniteJacobian("drift Jacobian has the wrong shape")
    return A, B


def _on_float(fn, ufunc, x: float) -> float:
    """``math``'s ``fn(x)``; the ufunc's NaN where fn raises, at +-inf."""
    try:
        return fn(x)
    except ValueError:
        return float(ufunc(x))


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
    gamma, the rate row's input gain, is singular at an angle of +-pi/2,
    which bounds the linearization domain.
    """
    p = params if params is not None else PendulumParams()
    denom = p.inertia + p.mass * p.length**2
    drift_gain = p.mass * p.gravity * p.length / denom
    input_gain = p.mass * p.length / denom

    def f(X):
        if type(X) is list and type(X[0]) is float:  # one state's coordinate rows
            return [X[1], drift_gain * _on_float(math.sin, np.sin, X[0])]
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        out[0] = X[1]
        out[1] = drift_gain * np.sin(X[0])
        return out

    def G(X):
        if type(X) is list and type(X[0]) is float:  # a constant +0.0 row, never 0.0 * x
            return [[0.0], [-input_gain * _on_float(math.cos, np.cos, X[0])]]
        out = np.zeros((2, 1) + np.asarray(X).shape[1:])
        out[1, 0] = -input_gain * np.cos(X[0])
        return out

    def f_jac(X):
        J = np.zeros((2, 2) + np.asarray(X).shape[1:])
        J[0, 1] = 1.0
        J[1, 0] = drift_gain * np.cos(X[0])
        return J

    def domain(Z):  # abs: a Python bool on one state's float, a mask on a stack
        return abs(Z[0]) < np.pi / 2

    system = SystemModel(n=2, m=1, f=f, G=G, f_jac=f_jac, name="pendulum")
    fbl = FeedbackLinearization(
        T=identity_coordinates,
        A_tilde=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B_tilde=np.array([[0.0], [1.0]]),
        J_T0=np.eye(2),
        domain=domain,
        name="pendulum",
    )
    return system, fbl


def lti_system(A, B, name: str = "lti"):
    """Linear time-invariant model plus its trivial feedback
    linearization (identity coordinates, A_tilde = A, B_tilde = B)."""
    A = as_square(A, "A")
    B = as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise ValueError("B must have as many rows as A")

    def stacked(M, X):
        """M repeated over the batch axes of X; M's rows on one state's list."""
        if type(X) is list and type(X[0]) is float:
            return M.tolist()
        batch = np.shape(X)[1:]
        return np.broadcast_to(M.reshape(M.shape + (1,) * len(batch)), M.shape + batch)

    system = SystemModel(n=A.shape[0], m=B.shape[1], f=partial(_contract, _coefficients(A)),
                         G=partial(stacked, B), f_jac=partial(stacked, A), name=name)
    fbl = FeedbackLinearization(
        T=identity_coordinates,
        A_tilde=A,
        B_tilde=B,
        J_T0=np.eye(A.shape[0]),
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
