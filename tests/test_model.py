import numpy as np
import pytest

from sontagctl.clf import clf_condition_at, lie_terms
from sontagctl.model import (
    FeedbackLinearization,
    PendulumParams,
    SystemModel,
    _model_at,
    _whole_space,
    apply_input,
    fd_jacobian,
    identity_coordinates,
    linearize,
    lti_system,
    pendulum_system,
)

from sontagctl.control import FblController, _input_rows

from conftest import frozen_pendulum, stacked


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
        sys_m, fbl = pendulum
        # gamma(0) = (J_T0 G(0))[idx] for the rate row that B_tilde selects
        idx, gamma0 = _input_rows(fbl, sys_m.G(np.zeros(2)))
        assert idx == slice(1, 2)
        np.testing.assert_array_equal(gamma0, [[-1.0]])
        np.testing.assert_array_equal(fbl.B_tilde, [[0.0], [1.0]])
        np.testing.assert_array_equal(fbl.T(np.array([0.3, -0.2])), [0.3, -0.2])
        np.testing.assert_array_equal(fbl.J_T0, np.eye(2))
        np.testing.assert_array_equal(fbl.A_tilde, [[0.0, 1.0], [0.0, 0.0]])

    def test_representations_agree(self, pendulum):
        # f(x) + G(x)u == A~ x + B~ (psi(x) + gamma(x) u) pointwise, with
        # the pendulum's closed forms psi = 9.81 sin x1, gamma = -cos x1
        sys_m, fbl = pendulum
        rng = np.random.default_rng(3001)
        X = np.stack([rng.uniform(-1.4, 1.4, size=100), rng.uniform(-4, 4, size=100)])
        U = rng.normal(size=(100, 1)).T
        lhs = np.asarray(sys_m.f(X)) + apply_input(sys_m.G(X), U)
        Z = np.asarray(fbl.T(X))
        inner = 9.81 * np.sin(Z[:1]) - np.cos(Z[0]) * U
        rhs = np.asarray(fbl.A_tilde) @ Z + np.asarray(fbl.B_tilde) @ inner
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_stacks_match_rows(self, pendulum):
        # the model reads and writes coordinates on the leading axis; a
        # (2, 3, 4) stack must still equal its states one by one
        sys_m, fbl = pendulum
        X = np.moveaxis(np.random.default_rng(3002).uniform(-3.0, 3.0, size=(3, 4, 2)), -1, 0)
        for fn in (sys_m.f, sys_m.G, fbl.domain):
            stacked = np.asarray(fn(X))
            rows = np.array([[fn(X[:, i, j]) for j in range(4)] for i in range(3)])
            rows = np.moveaxis(rows, (0, 1), (-2, -1))
            assert stacked.shape == rows.shape and stacked.dtype == rows.dtype
            assert stacked.tobytes() == rows.tobytes()

    def test_list_states(self, pendulum):
        # f, G and f_jac read the batch shape off np.asarray(X), so a list
        # state or stack evaluates as its array does
        sys_m, _ = pendulum
        for x in ([0.3, -0.2], [[0.3, 1.0, -0.5], [-0.2, 0.5, 2.0]]):
            for fn in (sys_m.f, sys_m.G, sys_m.f_jac):
                assert np.array_equal(fn(x), fn(np.array(x)))
        assert _whole_space([0.3, -0.2]) is np.True_
        np.testing.assert_array_equal(_whole_space([[0.3, 1.0], [-0.2, 0.5]]), [True, True])

    def test_domain_predicate(self, pendulum):
        _, fbl = pendulum
        assert type(fbl.domain(np.array([0.3, 0.0]))) is np.bool_
        assert fbl.domain(np.array([1.5, 0.0]))
        assert not fbl.domain(np.array([np.pi / 2, 0.0]))


def _int_bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


#: Angles and rates where math and numpy could part: signed zeros, +-pi,
#: huge and subnormal values, NaN and both infinities.
SPECIAL = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 1e300, -1e300, 5e-324,
           np.nan, np.inf, -np.inf]


def _pendulum_states(rng, n):
    """(2, n) seeded states: wide and near-zero angles, then every pair of
    SPECIAL values."""
    X = rng.uniform(-10.0, 10.0, size=(2, n)) * 10.0 ** rng.integers(-20, 4, size=(2, n))
    pairs = np.array([(a, b) for a in SPECIAL for b in SPECIAL]).T
    return np.concatenate([X, pairs], axis=1)


class TestCoordinateRows:
    # one state reaches the pendulum's f and G as a list of floats and
    # comes back as coordinate rows (math's sin and cos); a stack keeps
    # the array code. Both must have the earlier array form's bits.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stack_bitwise_equals_frozen_form(self, pendulum):
        sys_m, _ = pendulum
        f0, G0 = frozen_pendulum()
        X = _pendulum_states(np.random.default_rng(2701), 100_000)
        for fn, ref in ((sys_m.f, f0), (sys_m.G, G0)):
            out, want = np.asarray(fn(X)), ref(X)
            assert out.shape == want.shape
            assert np.array_equal(_int_bits(out), _int_bits(want))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_single_states_bitwise_equal_frozen_form(self, pendulum):
        sys_m, _ = pendulum
        f0, G0 = frozen_pendulum()
        X = _pendulum_states(np.random.default_rng(2702), 10_000)
        for x in X.T:
            rows = x.tolist()
            fx, Gx = sys_m.f(rows), sys_m.G(rows)
            assert type(fx) is list and type(Gx) is list
            assert all(type(v) is float for v in fx + [g for row in Gx for g in row])
            assert np.array_equal(_int_bits(fx), _int_bits(f0(x))), rows
            assert np.array_equal(_int_bits(Gx), _int_bits(G0(x))), rows
            # _model_at passes the rows through, from a list or an (n,) array,
            # and hands the state back as its list, with no array built
            for state in (rows, x):
                X1, f1, G1 = _model_at(sys_m, state)
                assert type(X1) is list and _int_bits(X1).tolist() == _int_bits(x).tolist()
                assert _int_bits(f1).tolist() == _int_bits(fx).tolist()
                assert _int_bits(G1).tolist() == _int_bits(Gx).tolist()

    def test_g_zero_row_stays_positive_zero(self, pendulum):
        # a constant +0.0, never 0.0 * x1, which is -0.0 at negative angles
        sys_m, _ = pendulum
        for x1 in (-0.3, -0.0, -np.pi, -1e300):
            assert np.signbit(sys_m.G([x1, 0.0])[0][0]) == False  # noqa: E712

    def test_infinite_angle_gives_numpy_nan(self, pendulum):
        # math.sin(inf) raises ValueError; one state keeps numpy's NaN
        sys_m, _ = pendulum
        for x1 in (np.inf, -np.inf):
            with np.errstate(invalid="ignore"):
                fx, Gx = sys_m.f([x1, 0.5]), sys_m.G([x1, 0.5])
            assert fx[0] == 0.5 and np.isnan(fx[1]) and np.isnan(Gx[1][0])
            assert type(fx[1]) is float and type(Gx[1][0]) is float

    def test_lti_rows(self):
        # one state: G and f_jac are B's and A's rows as new lists, f the
        # sums A x in index order from +0.0 as a list; stacks keep arrays
        A, B = np.array([[0.3, -1.2], [2.0, 0.7]]), np.array([[1.0], [0.5]])
        sys_m, _ = lti_system(A, B)
        x = [0.4, -0.1]
        G1, G2 = sys_m.G(x), sys_m.G(x)
        assert G1 == B.tolist() and G1 is not G2 and G1[0] is not G2[0]
        assert sys_m.f_jac(x) == A.tolist()
        X1, f1, G = _model_at(sys_m, x)
        assert f1 == [0.0 + x[0] * row[0] + x[1] * row[1] for row in A.tolist()]
        assert type(f1) is list and G == B.tolist()
        assert sys_m.f(np.array([x, x]).T).tolist() == [[v, v] for v in f1]
        X = np.array([[0.4, 1.0], [-0.1, 2.0]])
        assert np.asarray(sys_m.G(X)).shape == (2, 1, 2)
        assert np.asarray(sys_m.G(X.tolist())).shape == (2, 1, 2)

    def test_nested_list_stacks_match_arrays(self, pendulum, pendulum_designs):
        # a nested-list stack is a list too, but not one state: the public
        # entry points read it as its array does, bit for bit
        sys_m, _ = pendulum
        X = np.array([[0.3, 1.0, -0.5, 1.8], [-0.2, 0.5, 2.0, 0.0]])
        rows = X.tolist()
        for selector in ("i", "ii"):
            clf = pendulum_designs[selector].clf
            want, got = lie_terms(clf, sys_m, X), lie_terms(clf, sys_m, rows)
            for name in ("grad", "a", "b", "ok"):
                assert _int_bits(getattr(got, name)).tobytes() == \
                    _int_bits(getattr(want, name)).tobytes(), (selector, name)
            assert np.array_equal(clf_condition_at(clf, sys_m, rows),
                                  clf_condition_at(clf, sys_m, X))
        ctrl = pendulum_designs["iii"].controller
        assert isinstance(ctrl, FblController)
        assert ctrl.u(rows).tobytes() == ctrl.u(X).tobytes()
        assert ctrl.u(X[:, 0].tolist()).tobytes() == ctrl.u(X[:, 0]).tobytes()


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
            f=lambda X: np.stack([X[1], -np.sin(X[0])]),
            G=lambda X: stacked([[0.0], [1.0]], X),
        )
        A, B = linearize(sys_m)
        np.testing.assert_allclose(A, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-9)
        np.testing.assert_array_equal(B, [[0.0], [1.0]])

    def test_fd_second_order(self):
        # halving the step shrinks the Jacobian error about fourfold
        def f(X):
            return np.stack([np.sin(X[0]) * np.exp(X[1]), X[0] ** 3 + np.cos(X[1])])

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

    def test_list_form_is_checked(self):
        # one state reaches f and G as a list of floats inside a rollout, so
        # a list branch is checked at construction as the array form is: a
        # drift that drops a coordinate there fails here, not at RK4's
        # second stage with an IndexError
        def model(f_row, G_rows):
            def f(X):
                if type(X) is list:
                    return f_row(X)
                X = np.asarray(X, dtype=float)
                return np.stack([X[1], -X[0]])

            def G(X):
                return G_rows(X) if type(X) is list else stacked([[0.0], [1.0]], X)

            return SystemModel(n=2, m=1, f=f, G=G)

        model(lambda X: [X[1], -X[0]], lambda X: [[0.0], [1.0]])
        with pytest.raises(ValueError, match="f must map"):
            model(lambda X: [X[1]], lambda X: [[0.0], [1.0]])
        with pytest.raises(ValueError, match="equilibrium"):
            model(lambda X: [X[1], 1.0], lambda X: [[0.0], [1.0]])
        with pytest.raises(ValueError, match="G must map"):
            model(lambda X: [X[1], -X[0]], lambda X: [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="G must map"):
            model(lambda X: [X[1], -X[0]], lambda X: [[0.0], [1.0], [2.0]])

    def test_domain_list_form_is_checked(self):
        # under identity coordinates one state reaches domain as a list of
        # floats, so an array-only predicate fails at construction, not
        # partway through a rollout; so does one that excludes the origin
        def fbl(domain):
            return FeedbackLinearization(T=identity_coordinates, A_tilde=np.zeros((2, 2)),
                                         B_tilde=[[0.0], [1.0]], J_T0=np.eye(2), domain=domain)

        fbl(lambda Z: abs(Z[0]) < 1.0)
        with pytest.raises(TypeError):
            fbl(lambda Z: (Z**2).sum(0) < 1.0)
        with pytest.raises(ValueError, match="domain"):
            fbl(lambda Z: abs(Z[0]) > 1.0)
        with pytest.raises(ValueError):   # a mask of the coordinates, not one truth value
            fbl(lambda Z: np.array(Z) > -1.0)
        # other coordinates hand domain arrays only, which is all it is checked on
        FeedbackLinearization(T=lambda X: np.asarray(X, dtype=float), A_tilde=np.zeros((2, 2)),
                              B_tilde=[[0.0], [1.0]], J_T0=np.eye(2),
                              domain=lambda Z: (Z**2).sum(0) < 1.0)

    def test_parameterized_pendulum(self):
        # heavier, shorter pendulum with hub inertia
        p = PendulumParams(mass=2.0, gravity=10.0, length=0.5, inertia=0.5)
        sys_m, fbl = pendulum_system(p)
        denom = 0.5 + 2.0 * 0.25
        out = np.asarray(sys_m.f(np.array([0.1, 0.0])))
        np.testing.assert_allclose(out[1], 2.0 * 10.0 * 0.5 * np.sin(0.1) / denom, rtol=1e-12)
        gamma0 = _input_rows(fbl, sys_m.G(np.zeros(2)))[1]
        np.testing.assert_allclose(gamma0[0, 0], -2.0 * 0.5 / denom, rtol=1e-12)
