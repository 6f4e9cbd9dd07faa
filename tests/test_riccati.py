import mpmath
import numpy as np
import pytest
import scipy.linalg

from sontagctl import riccati
from sontagctl.linalg import LinalgError, cholesky_pd, is_hurwitz, max_abs, symmetrize
from sontagctl.model import linearize
from sontagctl.riccati import BadWeights, NotStabilizable, solve_care

from conftest import counted, random_lti, random_spd


def are_residual(A, B, Q, R, P):
    """Independent residual oracle: substitute P into the equation."""
    A, B, Q, R, P = map(np.asarray, (A, B, Q, R, P))
    return max_abs(A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q)


class TestSolveCare:
    def test_double_integrator(self):
        A = [[0.0, 1.0], [0.0, 0.0]]
        B = [[0.0], [1.0]]
        s3 = np.sqrt(3.0)
        expected_P = np.array([[s3, 1.0], [1.0, s3]])
        # oracle first: the claimed solution satisfies the equation
        assert are_residual(A, B, np.eye(2), [[1.0]], expected_P) < 1e-10
        d = solve_care(A, B, np.eye(2), [[1.0]])
        np.testing.assert_allclose(d.P, expected_P, atol=1e-9)
        np.testing.assert_allclose(d.K, [[1.0, s3]], atol=1e-9)

    def test_scalar_integrator(self):
        # -P^2 + 1 = 0 with P > 0
        d = solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(d.P, [[1.0]], rtol=1e-12)

    def test_scalar_unstable(self):
        # 2P - P^2 + 1 = 0, positive root 1 + sqrt(2)
        expected = 1.0 + np.sqrt(2.0)
        assert abs(2 * expected - expected**2 + 1) < 1e-12
        d = solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(d.P, [[expected]], rtol=1e-12)

    def test_bad_weights(self):
        with pytest.raises(BadWeights):
            solve_care([[0.0]], [[1.0]], [[-1.0]], [[1.0]])
        with pytest.raises(BadWeights):
            solve_care([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                       [[1.0, 2.0], [2.0, 1.0]], [[1.0]])

    def test_not_stabilizable(self):
        with pytest.raises(NotStabilizable):
            solve_care([[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]], np.eye(2), [[1.0]])

    def test_random_instances_certified(self):
        rng = np.random.default_rng(2001)
        for _ in range(50):
            A, B = random_lti(rng)
            Q = random_spd(rng, A.shape[0])
            R = random_spd(rng, B.shape[1])
            d = solve_care(A, B, Q, R)
            assert max_abs(d.P - d.P.T) <= 1e-10 * max_abs(d.P)
            cholesky_pd(d.P)
            assert are_residual(A, B, Q, R, d.P) <= 1e-8 * max_abs(Q)
            assert is_hurwitz(A - B @ d.K)
            np.testing.assert_allclose(d.K, np.linalg.solve(d.R, d.B.T @ d.P), rtol=1e-12)

    def test_weight_scaling(self):
        # scaling (Q, R) by c scales P by c and leaves K unchanged
        rng = np.random.default_rng(2002)
        for _ in range(10):
            A, B = random_lti(rng)
            Q = random_spd(rng, A.shape[0])
            R = random_spd(rng, B.shape[1])
            c = float(rng.uniform(0.1, 10.0))
            d1 = solve_care(A, B, Q, R)
            d2 = solve_care(A, B, c * Q, c * R)
            np.testing.assert_allclose(d2.P, c * d1.P, rtol=1e-9)
            np.testing.assert_allclose(d2.K, d1.K, rtol=1e-9, atol=1e-12)


def _mp_care(A, B, Q, R, P0, dps=50, steps=8):
    """Kleinman's Newton iteration in mpmath from a stabilizing P0; each
    Lyapunov step is solved through its Kronecker form."""
    with mpmath.workdps(dps):
        A, B, Q, R = (mpmath.matrix(M.tolist()) for M in (A, B, Q, R))
        n = A.rows
        P = mpmath.matrix(P0.tolist())
        for _ in range(steps):
            K = R**-1 * B.T * P
            Ac, W = A - B * K, Q + K.T * R * K
            L = mpmath.matrix(n * n, n * n)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        L[i * n + j, k * n + j] += Ac[k, i]  # (Ac' P)_ij
                        L[i * n + j, i * n + k] += Ac[k, j]  # (P Ac)_ij
            x = mpmath.lu_solve(L, mpmath.matrix([-W[i, j] for i in range(n) for j in range(n)]))
            P = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    P[i, j] = x[i * n + j]
        return np.array(P.tolist(), dtype=float)


class TestOracles:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_scipy_care(self, n):
        rng = np.random.default_rng(2003 + n)
        for _ in range(3):
            m = max(1, n // 4)
            A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            Q, R = random_spd(rng, n), random_spd(rng, m)
            d = solve_care(A, B, Q, R)
            ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
            assert max_abs(d.P - ref) <= 1e-8 * max_abs(ref)

    def test_pendulum_mpmath(self, pendulum, pendulum_weights, monkeypatch):
        hurwitz_calls = []
        monkeypatch.setattr(riccati, "is_hurwitz", counted(riccati.is_hurwitz, hurwitz_calls))
        A, B = linearize(pendulum[0])
        Q, R = pendulum_weights
        d = solve_care(A, B, Q, R)
        # P certifies its closed loop; the sign test is not needed
        assert len(hurwitz_calls) == 0
        ref = _mp_care(A, B, Q, R, d.P)
        # correctly rounded: P and K feed every design, so any kernel
        # change that moves a bit of P moves the CSVs
        np.testing.assert_array_equal(d.P, ref)

    def test_rejection_is_bounded(self, monkeypatch):
        calls = []
        monkeypatch.setattr(riccati, "solve_lyapunov", counted(riccati.solve_lyapunov, calls))
        monkeypatch.setattr(riccati, "matrix_sign", counted(riccati.matrix_sign, calls))
        with pytest.raises(NotStabilizable):
            solve_care(np.eye(2), [[1.0], [0.0]], np.eye(2), [[1.0]])
        assert 1 <= len(calls) <= 10


class TestPlateauRule:
    """The sign start is at the round-off plateau already, so one Newton
    step refines it and the noise steps after it stop the refinement:
    at most 3 Lyapunov solves per certified solve."""

    @pytest.mark.parametrize("n", [4, 8, 16, 24, 32])
    def test_lyapunov_solves_per_care(self, n, monkeypatch):
        calls, hurwitz_calls = [], []
        monkeypatch.setattr(riccati, "solve_lyapunov", counted(riccati.solve_lyapunov, calls))
        monkeypatch.setattr(riccati, "is_hurwitz", counted(riccati.is_hurwitz, hurwitz_calls))
        rng = np.random.default_rng(2100 + n)
        m = max(1, n // 4)
        for _ in range(4):
            A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            Q, R = random_spd(rng, n), random_spd(rng, m)
            calls.clear()
            d = solve_care(A, B, Q, R)
            assert len(calls) <= 3
            assert len(hurwitz_calls) == 0
            ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
            assert max_abs(d.P - ref) <= 1e-8 * max_abs(ref)


class TestClosedLoopCertificate:
    """P certifies A - B K through a Cholesky of -(A_cl'P + P A_cl); the
    sign test runs only where that certificate is inconclusive."""

    def test_sign_test_fallback_on_near_singular_q(self, monkeypatch):
        # Q with two eigenvalues 1e-13 leaves Q + K'RK a direction whose
        # size is below the round-off of A_cl'P + P A_cl: whether the
        # Cholesky passes there depends on the BLAS kernel, so each draw
        # must call the sign test exactly when the certificate, recomputed
        # here, is inconclusive, and some draw must fall back
        calls = []
        monkeypatch.setattr(riccati, "is_hurwitz", counted(riccati.is_hurwitz, calls))
        rng = np.random.default_rng(0)
        fallbacks = 0
        for _ in range(12):
            A = rng.normal(size=(3, 3)) + np.triu(1e3 * rng.normal(size=(3, 3)), 1)
            B = rng.normal(size=(3, 1))
            V = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            Q = symmetrize(V @ np.diag([1.0, 1e-13, 1e-13]) @ V.T)
            calls.clear()
            d = solve_care(A, B, Q, np.eye(1))
            A_cl = A - B @ d.K
            assert np.all(np.real(scipy.linalg.eigvals(A_cl)) < 0)
            try:
                cholesky_pd(-symmetrize(A_cl.T @ d.P + d.P @ A_cl))
                inconclusive = False
            except LinalgError:
                inconclusive = True
            assert len(calls) == inconclusive
            fallbacks += inconclusive
        assert fallbacks >= 1


def _solve_unit_weights(A, B):
    """The Riccati solve with identity weights: it returns a certified
    design exactly when (A, B) is stabilizable."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return solve_care(A, B, np.eye(A.shape[0]), np.eye(B.shape[1]))


class TestStabilizability:
    def test_controllable_chain(self):
        _solve_unit_weights([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])

    def test_unstable_uncontrollable(self):
        # second mode has eigenvalue 1 and no input authority
        with pytest.raises(NotStabilizable):
            _solve_unit_weights([[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]])

    def test_stable_uncontrollable_mode(self):
        _solve_unit_weights([[-1.0, 0.0], [0.0, 1.0]], [[0.0], [1.0]])

    def test_zero_input_matrix(self):
        with pytest.raises(NotStabilizable):
            _solve_unit_weights(np.eye(2), np.zeros((2, 1)))
        # with stable dynamics no input authority is needed
        _solve_unit_weights(-np.eye(2), np.zeros((2, 1)))
