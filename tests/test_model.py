import numpy as np
import pytest

from sontagctl.model import (
    PendulumParams,
    SystemModel,
    apply_input,
    fd_jacobian,
    linearize,
    lti_system,
    pendulum_system,
)


class TestPendulumDynamics:
    def test_equilibrium(self, pendulum):
        sys_m, _ = pendulum
        np.testing.assert_array_equal(sys_m.f(np.zeros(2)), [0.0, 0.0])

    def test_drift_at_30deg(self, pendulum):
        sys_m, _ = pendulum
        out = np.asarray(sys_m.f(np.array([np.pi / 6, 0.0])))
        np.testing.assert_allclose(out, [0.0, 9.81 * np.sin(np.pi / 6)], rtol=1e-12)
        np.testing.assert_allclose(out[1], 4.905, rtol=1e-12)

    def test_input_at_origin(self, pendulum):
        # G(0) = (0, -mL/(J+mL^2))' = (0, -1)'
        sys_m, _ = pendulum
        zero = np.zeros(2)
        np.testing.assert_allclose(
            sys_m.f(zero) + apply_input(sys_m.G(zero), [2.0]), [0.0, -2.0], atol=1e-15)

    def test_drift_at_45deg(self, pendulum):
        sys_m, _ = pendulum
        out = np.asarray(sys_m.f(np.array([np.pi / 4, 0.0])))
        np.testing.assert_allclose(out, [0.0, 9.81 * np.sqrt(2) / 2], rtol=1e-12)

    def test_fbl_structure(self, pendulum):
        _, fbl = pendulum
        np.testing.assert_allclose(fbl.gamma(np.zeros(2)), [[-1.0]], atol=1e-15)
        np.testing.assert_array_equal(fbl.T(np.array([0.3, -0.2])), [0.3, -0.2])
        np.testing.assert_array_equal(fbl.J_T0, np.eye(2))
        np.testing.assert_array_equal(fbl.A_tilde, [[0.0, 1.0], [0.0, 0.0]])

    def test_representations_agree(self, pendulum):
        # f(x) + G(x)u == A~ x + B~ (psi(x) + gamma(x) u) pointwise
        sys_m, fbl = pendulum
        rng = np.random.default_rng(3001)
        X = np.stack([rng.uniform(-1.4, 1.4, size=100), rng.uniform(-4, 4, size=100)], axis=-1)
        U = rng.normal(size=(100, 1))
        lhs = np.asarray(sys_m.f(X)) + apply_input(sys_m.G(X), U)
        Z = np.asarray(fbl.T(X))
        inner = np.asarray(fbl.psi(Z)) + (np.asarray(fbl.gamma(Z)) * U[..., None, :]).sum(-1)
        rhs = Z @ np.asarray(fbl.A_tilde).T + inner @ np.asarray(fbl.B_tilde).T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_stacks_match_rows(self, pendulum):
        # the model reads and writes coordinates on the leading axis of
        # the transpose; a (3, 4, 2) stack must still equal its rows
        sys_m, fbl = pendulum
        X = np.random.default_rng(3002).uniform(-3.0, 3.0, size=(3, 4, 2))
        for fn in (sys_m.f, sys_m.G, fbl.psi, fbl.gamma, fbl.domain):
            stacked = np.asarray(fn(X))
            rows = np.array([[fn(x) for x in row] for row in X])
            assert stacked.shape == rows.shape and stacked.dtype == rows.dtype
            assert stacked.tobytes() == rows.tobytes()

    def test_domain_predicate(self, pendulum):
        _, fbl = pendulum
        assert type(fbl.domain(np.array([0.3, 0.0]))) is np.bool_
        assert fbl.domain(np.array([1.5, 0.0]))
        assert not fbl.domain(np.array([np.pi / 2, 0.0]))


class TestLinearize:
    def test_pendulum(self, pendulum):
        sys_m, _ = pendulum
        A, B = linearize(sys_m)
        np.testing.assert_allclose(A, [[0.0, 1.0], [9.81, 0.0]], atol=1e-12)
        np.testing.assert_allclose(B, [[0.0], [-1.0]], atol=1e-15)
        # finite differences agree with the analytic Jacobian
        A_fd = fd_jacobian(sys_m.f, np.zeros(2))
        np.testing.assert_allclose(A_fd, A, atol=1e-6)

    def test_lti_exact(self):
        A = np.array([[0.3, -1.2], [2.0, 0.7]])
        B = np.array([[1.0], [0.5]])
        sys_m, _ = lti_system(A, B)
        A_out, B_out = linearize(sys_m)
        np.testing.assert_array_equal(A_out, A)
        np.testing.assert_array_equal(B_out, B)

    def test_sine_drift(self):
        sys_m = SystemModel(
            n=2, m=1,
            f=lambda X: np.stack([X[..., 1], -np.sin(X[..., 0])], axis=-1),
            G=lambda X: np.broadcast_to(np.array([[0.0], [1.0]]),
                                        np.asarray(X).shape[:-1] + (2, 1)),
        )
        A, B = linearize(sys_m)
        np.testing.assert_allclose(A, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-9)
        np.testing.assert_array_equal(B, [[0.0], [1.0]])

    def test_fd_second_order(self):
        # halving the step shrinks the Jacobian error about fourfold
        def f(X):
            return np.stack([np.sin(X[..., 0]) * np.exp(X[..., 1]),
                             X[..., 0] ** 3 + np.cos(X[..., 1])], axis=-1)

        x = np.array([0.4, -0.3])
        exact = np.array([
            [np.cos(0.4) * np.exp(-0.3), np.sin(0.4) * np.exp(-0.3)],
            [3 * 0.4**2, -np.sin(-0.3)],
        ])
        e1 = np.abs(fd_jacobian(f, x, step_scale=1e-3) - exact).max()
        e2 = np.abs(fd_jacobian(f, x, step_scale=5e-4) - exact).max()
        assert 3.0 < e1 / e2 < 5.5


class TestValidation:
    def test_params(self):
        with pytest.raises(ValueError):
            PendulumParams(mass=-1.0)
        with pytest.raises(ValueError):
            PendulumParams(length=0.0)
        with pytest.raises(ValueError):
            PendulumParams(inertia=-0.1)
        p = PendulumParams(mass=2.0, length=0.5, inertia=0.1)
        assert p.gravity == 9.81

    def test_drift_must_vanish_at_origin(self):
        with pytest.raises(ValueError):
            SystemModel(n=1, m=1,
                        f=lambda X: np.asarray(X) + 1.0,
                        G=lambda X: np.ones(np.asarray(X).shape + (1,)))

    def test_parameterized_pendulum(self):
        # heavier, shorter pendulum with hub inertia
        p = PendulumParams(mass=2.0, gravity=10.0, length=0.5, inertia=0.5)
        sys_m, fbl = pendulum_system(p)
        denom = 0.5 + 2.0 * 0.25
        out = np.asarray(sys_m.f(np.array([0.1, 0.0])))
        np.testing.assert_allclose(out[1], 2.0 * 10.0 * 0.5 * np.sin(0.1) / denom, rtol=1e-12)
        np.testing.assert_allclose(fbl.gamma(np.zeros(2))[0, 0], -2.0 * 0.5 / denom, rtol=1e-12)
