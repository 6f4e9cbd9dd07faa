import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sontagctl.clf import build_lqr_clf, clf_condition_at, lie_terms
from sontagctl.control import (
    FblController,
    LqrController,
    SontagController,
    _clf_violations,
    _lambda_array,
    fbl_gain_design,
    hjb_residual,
    synthesize_design,
)
from sontagctl.linalg import _stack_matmul
from sontagctl.model import FeedbackLinearization, SystemModel, apply_input, lti_system
from sontagctl.riccati import solve_care
from sontagctl.sim import rk4_step

from conftest import random_lti, random_spd, stacked


def lambda_reference(a, q, beta):
    """High-precision oracle for the scaling factor."""
    with mpmath.workdps(50):
        a, q, beta = mpmath.mpf(a), mpmath.mpf(q), mpmath.mpf(beta)
        return float((a + mpmath.sqrt(a * a + q * beta)) / beta)


def _lam(a, q, beta):
    """``_lambda_array`` on Python floats, the form a single state's
    Lie terms take."""
    return _lambda_array(float(a), float(q), float(beta))


class TestLambdaFactor:
    def test_riccati_relation_gives_one_exactly(self):
        # a = (beta - q)/2 makes the factor one; values chosen so the
        # arithmetic is exact in binary floating point
        for q, beta in ((1.0, 4.0), (4.0, 1.0), (0.25, 16.0), (16.0, 0.25)):
            a = (beta - q) / 2.0
            assert _lam(a, q, beta) == 1.0

    def test_riccati_relation_random(self):
        rng = np.random.default_rng(5001)
        for _ in range(200):
            q = float(rng.uniform(1e-6, 1e3))
            beta = float(rng.uniform(1e-6, 1e3))
            lam = float(_lam((beta - q) / 2.0, q, beta))
            assert lam == pytest.approx(1.0, rel=1e-12)

    def test_simple_values(self):
        np.testing.assert_array_equal(
            _lambda_array(np.array([0.0, -3.0, 3.0]), np.array([1.0, 0.0, 0.0]),
                          np.array([1.0, 1.0, 1.0])), [1.0, 0.0, 6.0])
        assert type(_lam(3.0, 0.0, 1.0)) is float

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        q=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        beta=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    def test_against_high_precision(self, a, q, beta):
        # the branch selection must survive the cancellation regime
        # (a < 0 with q*beta far below a^2), where the naive form loses
        # every significant digit
        lam = float(_lam(a, q, beta))
        ref = lambda_reference(a, q, beta)
        assert lam == pytest.approx(ref, rel=1e-12, abs=5e-324)

    def test_both_forms_agree_when_stable(self):
        # away from the cancellation regime the two algebraic forms
        # match, and the branch-selected factor matches both
        rng = np.random.default_rng(5002)
        for _ in range(300):
            a = float(rng.uniform(-1e3, 1e3))
            q = float(rng.uniform(1e-3, 1e6))
            beta = float(rng.uniform(1e-3, 1e6))
            if a * a > q * beta:
                continue
            s = np.sqrt(a * a + q * beta)
            direct = (a + s) / beta
            rationalized = q / (s - a)
            assert direct == pytest.approx(rationalized, rel=1e-12)
            assert float(_lam(a, q, beta)) == pytest.approx(direct, rel=1e-12)


class TestSontagControl:
    def test_zero_state(self, pendulum, pendulum_designs):
        p = pendulum_designs["i"].controller._parts(np.zeros(2))
        np.testing.assert_array_equal(p.U, np.zeros(1))
        assert not p.nonzero
        assert not _clf_violations(p)

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_finite_where_beta_underflows(self, pendulum_designs, selector):
        # from |x| = 1e-160 down to 1e-170, beta, a and q go subnormal
        # and then underflow to 0 while b stays nonzero: the law divides
        # by beta wherever beta > 0 and takes its zero branch elsewhere
        rng = np.random.default_rng(5019)
        angle = rng.uniform(0.0, 2.0 * np.pi, 400)
        X = 10.0 ** rng.uniform(-170.0, -160.0, 400) * np.stack([np.cos(angle), np.sin(angle)])
        p = pendulum_designs[selector].controller._parts(X)
        assert np.isfinite(p.U).all()
        np.testing.assert_array_equal(p.nonzero, p.beta > 0.0)
        assert p.nonzero.any() and not p.nonzero.all()

    def test_lqr_recovery_random_systems(self):
        rng = np.random.default_rng(5003)
        for _ in range(20):
            A, B = random_lti(rng)
            Q = random_spd(rng, A.shape[0])
            R = random_spd(rng, B.shape[1])
            d = solve_care(A, B, Q, R)
            sys_m, _ = lti_system(A, B)
            ctrl = SontagController(build_lqr_clf(d), sys_m, Q, R)
            X = rng.normal(size=(100, A.shape[0])).T
            U_sontag = ctrl.u(X)
            U_lqr = -(d.K @ X)
            err = np.abs(U_sontag - U_lqr).max(axis=0)
            assert np.all(err <= 1e-9 * (1.0 + np.abs(U_lqr).max(axis=0)))

    def test_lqr_recovery_two_inputs_single_states(self):
        # a single state's R^{-1} b' rows are Python floats, summed in the
        # stack's order; they match the stack's rows and give the LQR
        rng = np.random.default_rng(5021)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A, B = rng.normal(size=(n, n)), rng.normal(size=(n, 2))
            Q, R = random_spd(rng, n), random_spd(rng, 2)
            d = solve_care(A, B, Q, R)
            ctrl = SontagController(build_lqr_clf(d), lti_system(A, B)[0], Q, R)
            X = rng.normal(size=(n, 10))
            stack = ctrl._parts(X)
            for i, x in enumerate(X.T):
                p = ctrl._parts(x)
                assert len(p.U) == 2 and type(p.beta) is float
                for name in ("U", "lam", "a", "beta", "q"):
                    np.testing.assert_allclose(getattr(p, name), getattr(stack, name)[..., i],
                                               rtol=1e-12, atol=0, err_msg=name)
                u_lqr = -(d.K @ x)
                assert np.abs(np.asarray(p.U) - u_lqr).max() <= 1e-9 * (1.0 + np.abs(u_lqr).max())

    def test_lambda_one_on_lti(self, double_integrator, dbl_int_design, dbl_int_clf):
        sys_m, _ = double_integrator
        ctrl = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        rng = np.random.default_rng(5004)
        for _ in range(100):
            p = ctrl._parts(rng.normal(size=2))
            assert p.nonzero
            assert abs(p.lam - 1.0) <= 1e-10

    def test_local_lqr_recovery_on_pendulum(self, pendulum, pendulum_designs):
        ctrl = pendulum_designs["i"].controller
        K = pendulum_designs["i"].lqr.K
        x = np.array([1e-4, 0.0])
        u_s = ctrl.u(x)
        u_l = -(K @ x)
        assert np.abs(u_s - u_l).max() / np.abs(u_l).max() <= 1e-3

    def test_positive_homogeneity_on_lti(self, double_integrator, dbl_int_design, dbl_int_clf):
        sys_m, _ = double_integrator
        ctrl = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        rng = np.random.default_rng(5005)
        for _ in range(30):
            x = rng.normal(size=2)
            base = ctrl._parts(x)
            for c in (0.5, 2.0, 10.0):
                scaled = ctrl._parts(c * x)
                np.testing.assert_allclose(scaled.U, c * np.asarray(base.U), rtol=1e-12)
                assert scaled.lam == pytest.approx(base.lam, rel=1e-12)

    def test_decay_identity(self, pendulum, pendulum_designs):
        # a + b.u equals the negated square root whenever b is nonzero
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        ctrl, clf = res.controller, res.clf
        rng = np.random.default_rng(5006)
        checked = 0
        while checked < 100:
            x = np.array([rng.uniform(-1.4, 1.4), rng.uniform(-4, 4)])
            p = ctrl._parts(x)
            if not p.nonzero:
                continue
            ld = lie_terms(clf, sys_m, x)
            beta = float(ld.b @ np.linalg.solve(ctrl.R, ld.b))
            q = float(x @ ctrl.Q @ x)
            lhs = ld.a + float(ld.b @ p.U)
            rhs = -np.sqrt(ld.a**2 + q * beta)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
            checked += 1

    def test_lambda_positive_where_condition_holds(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        rng = np.random.default_rng(5007)
        for _ in range(200):
            x = np.array([rng.uniform(-1.4, 1.4), rng.uniform(-4, 4)])
            p = res.controller._parts(x)
            if p.nonzero and clf_condition_at(res.clf, sys_m, x):
                assert p.lam > 0.0

    def test_bounded_near_vanishing_b(self, pendulum, pendulum_designs):
        # approaching a zero of b inside the certified region, the
        # control stays bounded (and in fact goes to zero)
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        P = res.lqr.P
        target = np.array([0.3, -P[0, 1] / P[1, 1] * 0.3])
        assert lie_terms(res.clf, sys_m, target).a < 0
        norms = []
        for delta in np.geomspace(1e-1, 1e-9, 9):
            u = res.controller.u(target + delta * np.array([1.0, 1.0]))
            assert np.all(np.isfinite(u))
            norms.append(np.abs(u).max())
        assert max(norms) <= 10.0
        assert norms[-1] <= norms[0]


class TestLqrControl:
    def test_zero(self):
        np.testing.assert_array_equal(LqrController([[1.0, 2.0]]).u([0.0, 0.0]), [0.0])

    def test_known_gain(self):
        u = LqrController([[1.0, np.sqrt(3.0)]]).u([1.0, 0.0])
        np.testing.assert_allclose(u, [-1.0], rtol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(5008)
        K = rng.normal(size=(2, 3))
        x = rng.normal(size=3)
        np.testing.assert_allclose(LqrController(K).u(2.0 * x), 2.0 * LqrController(K).u(x),
                                   rtol=1e-15)

    def test_controller_batch(self):
        ctrl = LqrController([[1.0, 0.5]])
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(ctrl.u(X), [[-1.0, -1.0]])


class TestFblDesign:
    def test_pendulum_gain_closed_form(self, pendulum, pendulum_designs):
        _, fbl = pendulum
        design = pendulum_designs["i"].lqr
        K_fbl = fbl_gain_design(fbl, design)
        expected = -design.K - np.array([[9.81, 0.0]])
        np.testing.assert_allclose(K_fbl, expected, rtol=1e-12)

    def test_trivial_coordinates_reduce_to_lqr(self, double_integrator, dbl_int_design):
        # identity T, zero psi, identity gamma: the gain is the LQR gain
        _, fbl = double_integrator
        K_fbl = fbl_gain_design(fbl, dbl_int_design)
        np.testing.assert_allclose(K_fbl, dbl_int_design.K, rtol=1e-12)

    def test_scaled_coordinates(self, double_integrator, dbl_int_design):
        # z = T(x) = 2x on the double integrator: zdot = 2 xdot gives
        # A_tilde = [[0, 1], [0, 0]], B_tilde = e2 and gamma = 2, so the
        # gain is gamma K J_T0^{-1} = K and the law is u = -K x
        sys_m, _ = double_integrator
        Q, R = dbl_int_design.Q, dbl_int_design.R

        def scaled(A_tilde, B_tilde):
            return FeedbackLinearization(
                T=lambda X: 2.0 * np.asarray(X, dtype=float),
                T_jac=lambda X: stacked(2.0 * np.eye(2), X),
                A_tilde=np.array(A_tilde), B_tilde=np.array(B_tilde), J_T0=2.0 * np.eye(2))

        fbl = scaled([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
        K_fbl = fbl_gain_design(fbl, dbl_int_design)
        np.testing.assert_allclose(K_fbl, dbl_int_design.K, rtol=1e-12)
        ctrl = synthesize_design("iii", sys_m, fbl, Q, R).controller
        np.testing.assert_array_equal(ctrl.K_fbl, K_fbl)
        X = np.random.default_rng(5020).normal(size=(2, 100))
        np.testing.assert_allclose(ctrl.u(X), -(dbl_int_design.K @ X), rtol=1e-12, atol=1e-12)
        # A_tilde = [[0, 0.5], [0, 0]], B_tilde = [0; 0.5] is not this
        # model's normal form: at x = (0.3, -0.7), u = 0.4, row 0 of
        # J_T xdot is -1.4 and that of A_tilde T is -0.7
        wrong = scaled([[0.0, 0.5], [0.0, 0.0]], [[0.0], [0.5]])
        for selector in ("ii", "iii"):
            with pytest.raises(ValueError, match="normal form"):
                synthesize_design(selector, sys_m, wrong, Q, R)

    def test_tiny_gamma_gets_a_working_design(self):
        # gamma = 1e-13 at every state: the law's pivot test is relative
        # to gamma(0), so design iii is finite everywhere and, on this
        # linear model, is the LQR
        A = np.array([[0.0, 1.0], [2.0, 0.0]])
        sys_m = SystemModel(
            n=2, m=1, f=lambda X: A @ np.asarray(X, dtype=float),
            G=lambda X: stacked([[0.0], [1e-13]], X))
        fbl = FeedbackLinearization(
            T=lambda X: np.asarray(X, dtype=float),
            A_tilde=np.array([[0.0, 1.0], [0.0, 0.0]]),
            B_tilde=np.array([[0.0], [1.0]]),
            J_T0=np.eye(2),
        )
        res = synthesize_design("iii", sys_m, fbl, np.eye(2), [[1e-26]])
        K = res.lqr.K
        assert np.isfinite(K).all()
        np.testing.assert_array_equal(fbl_gain_design(fbl, res.lqr), res.controller.K_fbl)
        X = np.random.default_rng(5021).uniform(-2.0, 2.0, size=(2, 1000))
        U = res.controller.u(X)
        assert np.isfinite(U).all()
        np.testing.assert_allclose(U, -(K @ X), rtol=1e-6, atol=1e-6 * np.abs(K @ X).max())

    def test_linearization_matches_lqr_gain(self, pendulum, pendulum_designs):
        from sontagctl.model import fd_jacobian
        ctrl = pendulum_designs["iii"].controller
        jac = fd_jacobian(ctrl.u, np.zeros(2))
        np.testing.assert_allclose(jac, -pendulum_designs["iii"].lqr.K, atol=1e-5)


class TestFblControl:
    def test_zero_state(self, pendulum, pendulum_designs):
        u = pendulum_designs["iii"].controller.u(np.zeros(2))
        np.testing.assert_array_equal(u, np.zeros(1))

    def test_exact_cancellation(self, pendulum, pendulum_designs):
        # f + G u == (A_tilde - B_tilde K) z at sampled states: the
        # transformed loop is exactly linear
        sys_m, fbl = pendulum
        ctrl = pendulum_designs["iii"].controller
        rng = np.random.default_rng(5009)
        for _ in range(50):
            x = np.array([rng.uniform(-1.4, 1.4), rng.uniform(-4, 4)])
            zdot = sys_m.f(x) + apply_input(sys_m.G(x), ctrl.u(x))
            z = np.asarray(fbl.T(x))
            np.testing.assert_allclose(zdot, (fbl.A_tilde - fbl.B_tilde @ ctrl.K_fbl) @ z,
                                       atol=1e-12)

    def test_closed_forms_bitwise(self, pendulum_designs):
        # psi and gamma read off f and G have the bits of the pendulum's
        # closed forms psi = 9.81 sin x1 and gamma = -cos x1, the oracle
        # here, stacked and on one state
        ctrl = pendulum_designs["iii"].controller

        def closed_form(X):
            return (-(9.81 * np.sin(X[:1]) + _stack_matmul(X, ctrl.K_fbl.T))
                    / (-1.0 * np.cos(X[0])))

        rng = np.random.default_rng(5022)
        X = np.stack([rng.uniform(-1.4, 1.4, 1000), rng.uniform(-4.0, 4.0, 1000)])
        assert _bits(ctrl.u(X)) == _bits(closed_form(X))
        x = X[:, 0]
        assert _bits(ctrl.u(x)) == _bits(closed_form(x))

    def test_near_singular_gamma(self, pendulum, pendulum_designs):
        ctrl = pendulum_designs["iii"].controller
        x = np.array([np.pi / 2 - 1e-9, 0.0])
        u = ctrl.u(x)
        assert np.isnan(u).all() or np.abs(u).max() > 1e6

    def test_single_state_nan_outside_domain(self, pendulum, pendulum_designs):
        u = pendulum_designs["iii"].controller.u(np.array([2.0, 0.0]))
        assert u.shape == (1,) and np.isnan(u).all()

    def test_batch_nan_outside_domain(self, pendulum, pendulum_designs):
        ctrl = pendulum_designs["iii"].controller
        U = ctrl.u(np.array([[0.1, 2.0], [0.0, 0.0]]))
        assert np.isfinite(U[:, 0]).all() and np.isnan(U[:, 1]).all()


class TestHjbResidual:
    def test_zero_on_lti_with_lqr_clf(self, double_integrator, dbl_int_design, dbl_int_clf):
        sys_m, _ = double_integrator
        rng = np.random.default_rng(5010)
        for _ in range(100):
            x = rng.normal(size=2)
            res = hjb_residual(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R, x)
            assert abs(res) <= 1e-9 * (1.0 + float(x @ x))

    def test_zero_at_origin(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        assert hjb_residual(res.clf, sys_m, res.lqr.Q, res.lqr.R, np.zeros(2)) == 0.0

    def test_nonzero_on_pendulum(self, pendulum, pendulum_designs):
        # the quadratic CLF is not the value function of the nonlinear plant
        sys_m, _ = pendulum
        res = pendulum_designs["i"]
        val = hjb_residual(res.clf, sys_m, res.lqr.Q, res.lqr.R, np.array([0.5, 0.0]))
        assert abs(val) > 1e-3

    def test_lambda_one_where_residual_vanishes(self, double_integrator,
                                                dbl_int_design, dbl_int_clf):
        sys_m, _ = double_integrator
        ctrl = SontagController(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R)
        rng = np.random.default_rng(5011)
        for _ in range(100):
            x = rng.normal(size=2)
            res = hjb_residual(dbl_int_clf, sys_m, dbl_int_design.Q, dbl_int_design.R, x)
            p = ctrl._parts(x)
            if abs(res) <= 1e-9 * (1.0 + float(x @ x)) and p.nonzero:
                assert p.lam == pytest.approx(1.0, abs=1e-9)

    def test_batch_matches_rows(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        res = pendulum_designs["ii"]
        rng = np.random.default_rng(5015)
        X = np.stack([rng.uniform(-1.4, 1.4, 200), rng.uniform(-4, 4, 200)])
        X[:, 0] = [2.0, 0.0]   # outside the transformed CLF's domain
        batch = hjb_residual(res.clf, sys_m, res.lqr.Q, res.lqr.R, X)
        rows = [hjb_residual(res.clf, sys_m, res.lqr.Q, res.lqr.R, x) for x in X.T]
        assert batch.shape == (200,) and np.isnan(batch[0])
        np.testing.assert_allclose(batch, rows, rtol=1e-12)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _stack(rows) -> np.ndarray:
    """Per-state results as a coordinates-first stack, states last."""
    return np.stack([np.asarray(r, dtype=float) for r in rows], axis=-1)


def _two_double_integrators():
    """Two decoupled double integrators: m = 2, with the inputs on the
    non-consecutive rows 1 and 3 of B."""
    A = np.zeros((4, 4))
    A[0, 1] = A[2, 3] = 1.0
    B = np.zeros((4, 2))
    B[1, 0] = B[3, 1] = 1.0
    return lti_system(A, B)


class TestSingleStateReturnTypes:
    """One state runs on Python floats inside the laws and the rollout;
    the public calls still return float64 arrays of the shapes they had,
    and agree with the stack's rows."""

    def test_pendulum(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        x = np.array([0.3, -0.2])
        for selector in ("i", "ii", "iii", "iv"):
            res = pendulum_designs[selector]
            u = res.controller.u(x)
            assert type(u) is np.ndarray and u.shape == (1,) and u.dtype == np.float64
            for zoh in (False, True):
                x_next = rk4_step(sys_m, res.controller, x, 0.01, zoh=zoh)
                assert type(x_next) is np.ndarray
                assert x_next.shape == (2,) and x_next.dtype == np.float64
        for x_list in ([0.3, -0.2], x):
            grad = pendulum_designs["i"].clf.grad(x_list)
            assert type(grad) is np.ndarray and grad.shape == (2,) and grad.dtype == np.float64

    def test_two_inputs(self):
        sys_m, fbl = _two_double_integrators()
        Q, R = np.eye(4), np.diag([1.0, 2.0])
        X = np.random.default_rng(5022).normal(size=(4, 12))
        for selector in ("i", "iii", "iv"):
            ctrl = synthesize_design(selector, sys_m, fbl, Q, R).controller
            stack = ctrl.u(X)
            for i, x in enumerate(X.T):
                u = ctrl.u(x)
                assert type(u) is np.ndarray and u.shape == (2,) and u.dtype == np.float64
                np.testing.assert_allclose(u, stack[:, i], rtol=1e-12, atol=1e-12)
                x_next = rk4_step(sys_m, ctrl, x, 0.01)
                assert type(x_next) is np.ndarray and x_next.shape == (4,)
                np.testing.assert_allclose(x_next, rk4_step(sys_m, ctrl, X, 0.01)[:, i],
                                           rtol=1e-12, atol=1e-12)


class TestBatchOfOne:
    """A stacked evaluation equals the row-by-row one bit for bit, the
    property that lets the batched sweep and the batch-of-one simulate
    share kernels without changing either's output."""

    @pytest.fixture(scope="class")
    def states(self):
        return np.random.default_rng(5013).uniform(-1.4, 1.4, size=(2000, 2)).T

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_sontag_parts(self, pendulum_designs, states, selector):
        ctrl = pendulum_designs[selector].controller
        stacked = ctrl._parts(states)
        rows = [ctrl._parts(x) for x in states.T]
        for name in ("U", "lam", "a", "beta", "q"):
            want = _stack(getattr(r, name) for r in rows)
            assert _bits(getattr(stacked, name)) == _bits(want), name

    def test_apply_input(self, pendulum, states):
        sys_m, _ = pendulum
        G = sys_m.G(states)
        U = np.random.default_rng(5014).normal(size=(states.shape[1], 1)).T
        rows = [apply_input(g, u) for g, u in zip(np.moveaxis(G, -1, 0), U.T)]
        assert _bits(apply_input(G, U)) == _bits(_stack(rows))
        # stacks of 3-d and more, and several inputs, keep the batch axes in order
        rng = np.random.default_rng(5015)
        for batch in ((40, 50), (4, 5, 6)):
            for m in (1, 3):
                G = np.moveaxis(rng.normal(size=batch + (2, m)), (-2, -1), (0, 1))
                U = np.moveaxis(rng.normal(size=batch + (m,)), -1, 0)
                rows = _stack(apply_input(G[(slice(None),) * 2 + i], U[(slice(None),) + i])
                              for i in np.ndindex(batch))
                out = apply_input(G, U)
                assert out.shape == (2,) + batch
                assert _bits(out) == _bits(rows.reshape((2,) + batch))

    @pytest.mark.parametrize("selector", ["i", "ii", "iii", "iv"])
    def test_stack_axes(self, pendulum_designs, states, selector):
        # a (2, 40, 50) stack evaluates like the (2, 2000) one, bit for
        # bit, so no kernel mixes up the batch axes it indexes: a matrix
        # product runs on the flattened stack
        ctrl = pendulum_designs[selector].controller
        U = ctrl.u(states.reshape(2, 40, 50))
        assert U.shape == (1, 40, 50)
        assert _bits(U.reshape(1, -1)) == _bits(ctrl.u(states))

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_clf_value(self, pendulum_designs, states, selector):
        clf = pendulum_designs[selector].clf
        assert _bits(clf.value(states)) == _bits([clf.value(x) for x in states.T])


def _nan_bits(x) -> bytes:
    """Bytes of ``x`` with every NaN made the same NaN: IEEE 754 leaves
    the sign of a NaN computed from NaNs open, so NaNs compare by
    position; every other value, zeros' signs included, by its bits."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


class TestBatchOfOneEdges:
    """The rows a random box misses, stacked against row by row: the
    origin, the zero-input line b = 0 and its edge, states so small that
    beta underflows to 0, drift that decays V and drift that does not,
    and states beyond the pendulum's linearization domain. A single
    state runs on Python floats, a stack on arrays, so both sides of
    every row mask are compared."""

    @pytest.fixture(scope="class")
    def states(self, pendulum_designs):
        P = pendulum_designs["i"].clf.P
        rng = np.random.default_rng(5017)
        x1 = np.linspace(-1.4, 1.4, 41)
        on_line = np.stack([x1, -P[0, 1] / P[1, 1] * x1], axis=-1)   # P12 x1 + P22 x2 = 0
        near_line = [on_line + [0.0, d] for d in (-1e-9, -1e-11, 1e-11, 1e-9)]
        edge = np.pi / 2
        outside = np.stack([rng.choice([-1.0, 1.0], 40) * rng.uniform(edge, 3.0, 40),
                            rng.uniform(-4.0, 4.0, 40)], axis=-1)
        outside[:4, 0] = [edge, -edge, np.nextafter(edge, 0.0), np.nextafter(-edge, 0.0)]
        wide = np.stack([rng.uniform(-1.5, 1.5, 400), rng.uniform(-5.0, 5.0, 400)], axis=-1)
        zeros = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]
        # beta ~ |x|^2 ~ 1e-340 underflows to exactly 0 on every BLAS
        # kernel, with or without FMA, while b stays nonzero
        tiny = 1e-170 * wide[:8]
        return np.concatenate([zeros, on_line, *near_line, outside, wide, tiny]).T

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_sontag_parts(self, pendulum_designs, states, selector):
        ctrl = pendulum_designs[selector].controller
        stacked = ctrl._parts(states)
        rows = [ctrl._parts(x) for x in states.T]
        for name in ("nonzero", "ok", "lam", "a", "beta", "q"):
            assert all(np.ndim(getattr(r, name)) == 0
                       and not isinstance(getattr(r, name), np.ndarray) for r in rows), name
        for name in stacked._fields:
            assert _nan_bits(getattr(stacked, name)) == _nan_bits(
                _stack(getattr(r, name) for r in rows)), name
        # every branch occurs on both paths
        nonzero, ok, a = stacked.nonzero, stacked.ok, stacked.a
        assert nonzero.any() and (ok & ~nonzero).sum() >= 8
        assert (ok & (a < 0.0)).any() and (ok & (a >= 0.0)).any()
        assert (ok & nonzero & (a < 0.0)).any() and (ok & nonzero & (a >= 0.0)).any()
        outside = np.abs(states[0]) >= np.pi / 2
        assert outside.sum() >= 30
        np.testing.assert_array_equal(~ok, outside if selector == "ii" else False)

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_clf_violations(self, pendulum_designs, states, selector):
        # a bool per state, never the int that ~ gives on a Python bool
        ctrl = pendulum_designs[selector].controller
        rows = [_clf_violations(ctrl._parts(x)) for x in states.T]
        assert all(type(r) is bool for r in rows)
        np.testing.assert_array_equal(_clf_violations(ctrl._parts(states)), rows)

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_zero_direction_from_lie_terms(self, pendulum, pendulum_designs, states, selector):
        # both zero tests compare the Lie terms with 0 exactly: the CLF
        # condition is b != 0 or a < 0, and the law's zero branch is
        # beta = 0, the quantity it divides by; where beta underflows,
        # b != 0 and the law still takes the zero branch
        sys_m, _ = pendulum
        res = pendulum_designs[selector]
        lt = lie_terms(res.clf, sys_m, states)
        b_nonzero = np.abs(lt.b).max(axis=0) > 0.0
        np.testing.assert_array_equal(clf_condition_at(res.clf, sys_m, states),
                                      b_nonzero | (lt.a < 0.0))
        p = res.controller._parts(states)
        np.testing.assert_array_equal(p.nonzero, p.beta > 0.0)
        assert p.nonzero.any() and (b_nonzero & ~p.nonzero).any()

    # The linear part Z @ K' of the FBL and LQR laws is a matrix product
    # on a stack and a vector product on one state, whose last bits can
    # differ, so those inputs agree to rounding; their NaN masks exactly.
    def test_fbl_input(self, pendulum_designs, states):
        ctrl = pendulum_designs["iii"].controller
        stacked = ctrl.u(states)
        rows = _stack(ctrl.u(x) for x in states.T)
        assert np.isnan(stacked[:, np.abs(states[0]) >= np.pi / 2]).all()
        np.testing.assert_allclose(stacked, rows, rtol=1e-12, atol=1e-12)   # NaNs by position

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_rk4_step(self, pendulum, pendulum_designs, states, selector):
        sys_m, _ = pendulum
        ctrl = pendulum_designs[selector].controller
        stacked = rk4_step(sys_m, ctrl, states, 0.01)
        rows = [rk4_step(sys_m, ctrl, x, 0.01) for x in states.T]
        assert _nan_bits(stacked) == _nan_bits(_stack(rows))

    @pytest.mark.parametrize("selector", ["iii", "iv"])
    def test_rk4_step_linear_gains(self, pendulum, pendulum_designs, states, selector):
        sys_m, _ = pendulum
        ctrl = pendulum_designs[selector].controller
        stacked = rk4_step(sys_m, ctrl, states, 0.01)
        rows = _stack(rk4_step(sys_m, ctrl, x, 0.01) for x in states.T)
        np.testing.assert_allclose(stacked, rows, rtol=1e-12, atol=1e-12)


class TestSynthesizeDesign:
    def test_selectors_and_labels(self, pendulum_designs):
        assert isinstance(pendulum_designs["i"].controller, SontagController)
        assert isinstance(pendulum_designs["ii"].controller, SontagController)
        assert isinstance(pendulum_designs["iii"].controller, FblController)
        assert isinstance(pendulum_designs["iv"].controller, LqrController)
        assert pendulum_designs["iv"].clf is None

    def test_designs_i_and_ii_identical_on_pendulum(self, pendulum, pendulum_designs):
        # identity coordinates make the two CLFs, and so the two
        # controllers, coincide
        rng = np.random.default_rng(5012)
        X = np.stack([rng.uniform(-1.4, 1.4, 50), rng.uniform(-4, 4, 50)])
        np.testing.assert_allclose(pendulum_designs["i"].controller.u(X),
                                   pendulum_designs["ii"].controller.u(X), rtol=1e-12)

    def test_unknown_selector(self, pendulum, pendulum_weights):
        sys_m, fbl = pendulum
        Q, R = pendulum_weights
        with pytest.raises(ValueError):
            synthesize_design("v", sys_m, fbl, Q, R)

    def test_gate_failure_propagates(self):
        from sontagctl.riccati import NotStabilizable
        sys_m, fbl = lti_system(np.eye(2), np.zeros((2, 1)))
        with pytest.raises(NotStabilizable):
            synthesize_design("iv", sys_m, fbl, np.eye(2), np.eye(1))
