import dataclasses

import numpy as np
import pytest

from sontagctl.clf import (
    QuadraticClf,
    TransformedClf,
    build_global_clf,
    build_lqr_clf,
    clf_condition_at,
    lie_terms,
    transform_P,
)
from sontagctl.control import SontagController
from sontagctl.linalg import NotPositiveDefinite, SingularMatrix, _row_dot
from sontagctl.model import FeedbackLinearization, SystemModel
from sontagctl.riccati import solve_care
from conftest import random_spd, stacked


def _const_input_system(n, G_mat, drift_scale=0.0):
    """Helper model with f(x) = drift_scale * x and constant G."""
    G_mat = np.asarray(G_mat, dtype=float)
    return SystemModel(
        n=n, m=G_mat.shape[1],
        f=lambda X: drift_scale * np.asarray(X, dtype=float),
        G=lambda X: stacked(G_mat, X),
    )


class TestQuadraticClf:
    def test_minimum_at_origin(self, dbl_int_clf):
        v, g = dbl_int_clf.value(np.zeros(2)), dbl_int_clf.grad(np.zeros(2))
        assert v == 0.0
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_known_quadratic_form(self):
        s3 = np.sqrt(3.0)
        clf = QuadraticClf([[s3, 1.0], [1.0, s3]])
        v, g = clf.value([1.0, 0.0]), clf.grad([1.0, 0.0])
        assert v == pytest.approx(s3 / 2, rel=1e-15)
        np.testing.assert_allclose(g, [s3, 1.0], rtol=1e-15)

    def test_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            QuadraticClf([[1.0, 2.0], [2.0, 1.0]])

    def test_nonconforming_state_raises(self, dbl_int_clf):
        for X in ([1.0, 2.0, 3.0], np.ones(1), np.ones((3, 5))):
            with pytest.raises(ValueError):
                dbl_int_clf.value(X)
            with pytest.raises(ValueError):
                dbl_int_clf.grad(X)

    def test_positive_away_from_origin(self, dbl_int_clf):
        rng = np.random.default_rng(4001)
        X = rng.normal(size=(100, 2)).T
        assert np.all(dbl_int_clf.value(X) > 0)

    def test_gradient_matches_finite_differences(self, dbl_int_clf):
        rng = np.random.default_rng(4002)
        for _ in range(100):
            x = rng.normal(size=2)
            g = dbl_int_clf.grad(x)
            fd = np.array([
                (dbl_int_clf.value(x + h) - dbl_int_clf.value(x - h)) / (2e-6)
                for h in (np.array([1e-6, 0.0]), np.array([0.0, 1e-6]))
            ])
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


class TestTransformedClf:
    def test_identity_transform_matches_quadratic(self, pendulum, dbl_int_design):
        _, fbl = pendulum
        quad = QuadraticClf(dbl_int_design.P)
        trans = TransformedClf(dbl_int_design.P, fbl)
        rng = np.random.default_rng(4003)
        X = np.stack([rng.uniform(-1.5, 1.5, 100), rng.uniform(-3, 3, 100)])
        np.testing.assert_allclose(trans.value(X), quad.value(X), rtol=1e-14)
        np.testing.assert_allclose(trans.grad(X), quad.grad(X), rtol=1e-14)

    def test_control_nan_outside_domain(self, pendulum, dbl_int_design):
        sys_m, fbl = pendulum
        trans = TransformedClf(dbl_int_design.P, fbl)
        ctrl = SontagController(trans, sys_m, dbl_int_design.Q, dbl_int_design.R)
        u = ctrl.u([np.pi / 2, 0.0])
        assert u.shape == (1,) and np.isnan(u).all()

    def test_batch_value_nan_outside_domain(self, pendulum, dbl_int_design):
        _, fbl = pendulum
        trans = TransformedClf(dbl_int_design.P, fbl)
        v = trans.value(np.array([[0.1, 2.0], [0.0, 0.0]]))
        assert np.isfinite(v[0]) and np.isnan(v[1])

    def test_gradient_matches_finite_differences(self, pendulum, dbl_int_design):
        _, fbl = pendulum
        trans = TransformedClf(dbl_int_design.P, fbl)
        rng = np.random.default_rng(4004)
        for _ in range(100):
            x = np.array([rng.uniform(-1.4, 1.4), rng.uniform(-3, 3)])
            g = trans.grad(x)
            fd = np.array([
                float(trans.value(x + h) - trans.value(x - h)) / (2e-6)
                for h in (np.array([1e-6, 0.0]), np.array([0.0, 1e-6]))
            ])
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


def _assert_bitwise_equal(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


class TestDeclaredIdentity:
    """The declared identity coordinates of the pendulum against the same
    structure given a plain identity T and an identity T_jac."""

    @pytest.fixture(scope="class")
    def clfs(self, pendulum_designs):
        declared = pendulum_designs["ii"].clf
        fbl = dataclasses.replace(
            declared.fbl,
            T=lambda X: np.asarray(X, float),
            T_jac=lambda X: stacked(np.eye(2), X))
        return declared, TransformedClf(declared.P_tilde, fbl)

    @staticmethod
    def _states():
        rng = np.random.default_rng(4010)
        X = np.stack([rng.uniform(-2.5, 2.5, 1200), rng.uniform(-4, 4, 1200)])
        special = [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, 0.7],
                   [0.4, -0.0], [np.pi / 2, 0.0], [-np.pi / 2, -0.0], [2.0, 1.0],
                   [np.nextafter(np.pi / 2, 0.0), -1.0]]
        return np.concatenate([np.array(special).T, X], axis=1)

    def test_value_and_grad_bitwise(self, clfs):
        declared, generic = clfs
        X = self._states()
        outside = np.abs(X[0]) >= np.pi / 2
        assert outside.sum() > 100
        for method in ("value", "grad"):
            got = getattr(declared, method)(X)
            _assert_bitwise_equal(got, getattr(generic, method)(X))
            assert np.isnan(got[..., outside]).all() and not np.isnan(got[..., ~outside]).any()
        for x in X.T[:10]:
            _assert_bitwise_equal(declared.grad(x), generic.grad(x))
            _assert_bitwise_equal(declared.value(x), generic.value(x))


class TestLieDerivatives:
    def test_lti_closed_forms(self, double_integrator, dbl_int_design, dbl_int_clf):
        # a = x'PAx and b = x'PB for a linear model with a quadratic CLF
        sys_m, _ = double_integrator
        A, B, P = dbl_int_design.A, dbl_int_design.B, dbl_int_design.P
        rng = np.random.default_rng(4005)
        for _ in range(100):
            x = rng.normal(size=2)
            ld = lie_terms(dbl_int_clf, sys_m, x)
            assert ld.a == pytest.approx(float(x @ P @ A @ x), abs=1e-12)
            np.testing.assert_allclose(ld.b, x @ P @ B, atol=1e-12)

    def test_zero_at_origin(self, pendulum, pendulum_designs):
        sys_m, _ = pendulum
        clf = pendulum_designs["i"].clf
        ld = lie_terms(clf, sys_m, np.zeros(2))
        assert ld.a == 0.0
        np.testing.assert_array_equal(ld.b, np.zeros(1))

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_single_state_row_quantities_are_python_scalars(self, pendulum, pendulum_designs,
                                                              selector):
        # not numpy scalars or 0-d arrays, whose every later operation
        # pays numpy's dispatch; grad and b stay arrays
        sys_m, _ = pendulum
        clf = pendulum_designs[selector].clf
        for x in ([0.3, -0.2], [0.0, 0.0], [2.0, 0.5]):
            lt = lie_terms(clf, sys_m, np.array(x))
            for name, kind in (("a", float), ("ok", bool)):
                assert type(getattr(lt, name)) is kind, (x, name)
            assert lt.grad.shape == (2,) and lt.b.shape == (1,) and lt.b.dtype == np.float64

    @pytest.mark.parametrize("selector", ["i", "ii"])
    def test_single_state_value_and_condition_are_python_scalars(self, pendulum,
                                                                 pendulum_designs, selector):
        # a float and a bool on one (n,) state, V with the bits of the
        # sums in index order from +0.0 over Python floats, P x and then
        # x'(P x), on every BLAS kernel; the stacks stay arrays.
        # x1 = 2.0 is outside design ii's domain: V NaN, condition False.
        sys_m, _ = pendulum
        clf = pendulum_designs[selector].clf
        P = clf.P if selector == "i" else clf.P_tilde
        X = np.array([[0.3, 0.0, 2.0, -1.2, 0.0], [-0.2, 0.0, 0.5, 3.0, 1.0]])
        V, ok = clf.value(X), clf_condition_at(clf, sys_m, X)
        assert type(V) is np.ndarray and V.shape == (5,)
        assert type(ok) is np.ndarray and ok.dtype == bool and ok.shape == (5,)
        for k, x in enumerate(X.T):
            v, c = clf.value(x), clf_condition_at(clf, sys_m, x)
            assert type(v) is float and type(c) is bool, x
            x0, x1 = x.tolist()
            px = [0.0 + x0 * row[0] + x1 * row[1] for row in P.tolist()]
            want = 0.5 * (0.0 + x0 * px[0] + x1 * px[1])
            want = np.nan if selector == "ii" and abs(x[0]) >= np.pi / 2 else float(want)
            assert np.array(v).tobytes() == np.array(want).tobytes() and c == ok[k], x

    @pytest.mark.parametrize("m", [1, 3])
    def test_b_rows_assemble_the_whole_contraction(self, m):
        # b is built one input row at a time; assembled it has shape
        # (m, ...) and the bits of one contraction over the (n, m, ...) G
        n = 4
        rng = np.random.default_rng(4031 + m)
        W = rng.normal(size=(n, m))
        sys_m = SystemModel(
            n=n, m=m, f=lambda X: np.sin(np.asarray(X, dtype=float)),
            G=lambda X: np.cos(np.asarray(X, dtype=float))[:, None] * stacked(W, X))
        clf = QuadraticClf(random_spd(rng, n))
        for batch in ((), (25,), (40, 50)):
            X = rng.normal(size=(n,) + batch)
            b = lie_terms(clf, sys_m, X).b
            want = _row_dot(np.asarray(clf.grad(X))[:, None], np.asarray(sys_m.G(X)))
            assert b.shape == (m,) + batch
            assert b.tobytes() == want.tobytes()

    def test_against_flow_differences(self, pendulum, pendulum_designs):
        # dV/dt along the drift approximates a; adding a unit input
        # perturbs it by the matching component of b
        sys_m, _ = pendulum
        clf = pendulum_designs["i"].clf
        x = np.array([0.1, 0.2])
        ld = lie_terms(clf, sys_m, x)
        delta = 1e-6
        fx = np.asarray(sys_m.f(x))
        a_fd = float(clf.value(x + delta * fx) - clf.value(x - delta * fx)) / (2 * delta)
        assert a_fd == pytest.approx(ld.a, abs=1e-6)
        direction = fx + np.asarray(sys_m.G(x))[:, 0]
        ab_fd = float(clf.value(x + delta * direction) - clf.value(x - delta * direction)) / (2 * delta)
        assert ab_fd == pytest.approx(ld.a + ld.b[0], abs=1e-6)


class TestTransformP:
    def test_identity(self, dbl_int_design):
        np.testing.assert_allclose(transform_P(dbl_int_design.P, np.eye(2)),
                                   dbl_int_design.P, rtol=1e-14)

    def test_scaling(self):
        np.testing.assert_allclose(transform_P(np.eye(2), 2.0 * np.eye(2)),
                                   0.25 * np.eye(2), rtol=1e-14)

    def test_shear(self):
        # J^{-1} = [[1,-1],[0,1]]; J^{-T} J^{-1} = [[1,-1],[-1,2]]
        out = transform_P(np.eye(2), [[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-14)

    def test_singular_jacobian(self):
        with pytest.raises(SingularMatrix):
            transform_P(np.eye(2), [[1.0, 1.0], [1.0, 1.0]])


class TestClfCondition:
    def test_input_direction_available(self):
        sys_m = _const_input_system(2, [[1.0, 0.0], [0.0, 0.0]], drift_scale=5.0)
        clf = QuadraticClf(np.eye(2))
        assert clf_condition_at(clf, sys_m, [1.0, 0.0])

    def test_drift_decays(self):
        sys_m = _const_input_system(2, [[0.0], [0.0]], drift_scale=-1.0)
        clf = QuadraticClf(np.eye(2))
        assert clf_condition_at(clf, sys_m, [1.0, 0.0])

    def test_neither(self):
        sys_m = _const_input_system(2, [[0.0], [0.0]], drift_scale=0.0)
        clf = QuadraticClf(np.eye(2))
        assert not clf_condition_at(clf, sys_m, [1.0, 0.0])

    def test_holds_for_lqr_clf_on_lti(self, double_integrator, dbl_int_clf):
        sys_m, _ = double_integrator
        rng = np.random.default_rng(4006)
        for _ in range(100):
            x = rng.normal(size=2)
            assert clf_condition_at(dbl_int_clf, sys_m, x)

    def test_row_mask(self, pendulum, dbl_int_design):
        # stacked states give one verdict per row, False outside the
        # CLF domain
        sys_m, fbl = pendulum
        trans = TransformedClf(dbl_int_design.P, fbl)
        rng = np.random.default_rng(4007)
        X = np.stack([rng.uniform(-1.4, 1.4, 50), rng.uniform(-4, 4, 50)])
        X[:, 0] = [2.0, 0.0]
        mask = clf_condition_at(trans, sys_m, X)
        assert mask.shape == (50,) and not mask[0]
        np.testing.assert_array_equal(mask, [clf_condition_at(trans, sys_m, x) for x in X.T])


def _quadratic_transform_fbl():
    """Synthetic diffeomorphism with J_T0 = 2I and genuine curvature."""

    def T(X):
        X = np.asarray(X, dtype=float)
        return np.stack([2.0 * X[0] + X[0] ** 2, 2.0 * X[1] + X[0] * X[1]])

    def T_jac(X):
        X = np.asarray(X, dtype=float)
        J = np.zeros((2, 2) + X.shape[1:])
        J[0, 0] = 2.0 + 2.0 * X[0]
        J[1, 0] = X[1]
        J[1, 1] = 2.0 + X[0]
        return J

    return FeedbackLinearization(
        T=T, T_jac=T_jac,
        A_tilde=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B_tilde=np.array([[0.0], [1.0]]),
        J_T0=2.0 * np.eye(2),
    )


class TestBuildClfs:
    def test_lqr_clf_carries_p(self, dbl_int_design):
        clf = build_lqr_clf(dbl_int_design)
        np.testing.assert_array_equal(clf.P, dbl_int_design.P)

    def test_global_clf_identity_transform(self, pendulum, pendulum_weights):
        # with identity coordinates the transformed CLF is the quadratic one
        sys_m, fbl = pendulum
        Q, R = pendulum_weights
        from sontagctl.model import linearize
        design = solve_care(*linearize(sys_m), Q, R)
        gclf = build_global_clf(design, fbl)
        np.testing.assert_allclose(gclf.P_tilde, design.P, rtol=1e-14)
        qclf = build_lqr_clf(design)
        rng = np.random.default_rng(4007)
        X = np.stack([rng.uniform(-1.5, 1.5, 50), rng.uniform(-3, 3, 50)])
        np.testing.assert_allclose(gclf.value(X), qclf.value(X), rtol=1e-14)

    def test_value_zero_at_origin(self, dbl_int_design):
        gclf = build_global_clf(dbl_int_design, _quadratic_transform_fbl())
        assert float(gclf.value(np.zeros(2))) == 0.0

    def test_quadratic_taylor_alignment(self, dbl_int_design):
        # remainder V(x) - x'Px/2 scales at least cubically
        gclf = build_global_clf(dbl_int_design, _quadratic_transform_fbl())
        P = dbl_int_design.P
        rng = np.random.default_rng(4008)
        for _ in range(20):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            rems = []
            for eps in (1e-2, 1e-3):
                x = eps * d
                rems.append(abs(float(gclf.value(x)) - 0.5 * float(x @ P @ x)))
            exponent = np.log(rems[0] / rems[1]) / np.log(10.0)
            assert exponent >= 2.7

    def test_quadratic_part_ratio_vanishes(self, dbl_int_design):
        gclf = build_global_clf(dbl_int_design, _quadratic_transform_fbl())
        P = dbl_int_design.P
        rng = np.random.default_rng(4009)
        for _ in range(20):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            prev = np.inf
            for eps in (1e-2, 1e-4, 1e-6):
                x = eps * d
                ratio = abs(float(gclf.value(x)) - 0.5 * float(x @ P @ x)) / eps**2
                assert ratio < prev or ratio < 1e-12
                prev = ratio
