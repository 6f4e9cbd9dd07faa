import mpmath
import numpy as np
import pytest
import scipy.linalg

from sontagctl import riccati
from sontagctl.linalg import (MAX_NEWTON_ITER, LinalgError, cholesky_pd, is_hurwitz, max_abs,
                              solve_lyapunov, solve_many, symmetrize)
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
        monkeypatch.setattr(riccati, "_lyapunov", counted(riccati._lyapunov, calls))
        monkeypatch.setattr(riccati, "_replay_lyapunov", counted(riccati._replay_lyapunov, calls))
        monkeypatch.setattr(riccati, "matrix_sign", counted(riccati.matrix_sign, calls))
        with pytest.raises(NotStabilizable):
            solve_care(np.eye(2), [[1.0], [0.0]], np.eye(2), [[1.0]])
        assert 1 <= len(calls) <= 10


def _fresh_newton(A, B, Q, R):
    """``solve_care``'s Newton refinement with a fresh Lyapunov sign
    iteration at every step, through public ``solve_lyapunov``: the
    reference that the plateau replay must reproduce bit for bit."""
    Q, R = symmetrize(Q), symmetrize(R)
    P = riccati._sign_start(A, B, Q, R)
    step_prev, plateau_steps = np.inf, 0
    for _ in range(MAX_NEWTON_ITER):
        K = solve_many(R, B.T @ P)
        D = solve_lyapunov(A - B @ K, symmetrize(A.T @ P + P @ A - P @ B @ K + Q))
        P = P + D
        step = max_abs(D)
        if step <= riccati.PLATEAU_RTOL * max_abs(P):
            plateau_steps += 1
            if step >= 0.5 * step_prev or plateau_steps == riccati.MAX_PLATEAU_STEPS:
                return P
        step_prev = step
    raise AssertionError("the reference refinement did not settle")


def _scaled_draw(rng, n):
    """(A, B, Q, R) with m = max(1, n // 4) and A scaled by 1/sqrt(n)."""
    m = max(1, n // 4)
    A, B = rng.normal(size=(n, n)) / np.sqrt(n), rng.normal(size=(n, m))
    return A, B, random_spd(rng, n), random_spd(rng, m)


class TestPlateauRule:
    """The sign start is at the round-off plateau already, so one Newton
    step refines it and the noise steps after it stop the refinement.
    On the plateau A - BK moves by round-off only, so the steps after the
    first replay its Lyapunov sign iterates: one fresh sign iteration and
    at most 2 replays per certified solve."""

    @pytest.mark.parametrize("n", [4, 8, 16, 24, 32])
    def test_lyapunov_solves_per_care(self, n, monkeypatch):
        fresh, replays, hurwitz_calls, factorizations = [], [], [], []
        monkeypatch.setattr(riccati, "_lyapunov", counted(riccati._lyapunov, fresh))
        monkeypatch.setattr(riccati, "is_hurwitz", counted(riccati.is_hurwitz, hurwitz_calls))
        for name in ("inv", "slogdet"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), factorizations))
        replay = riccati._replay_lyapunov

        def counted_replay(trace, W):
            before = len(factorizations)
            D = replay(trace, W)
            replays.append(len(factorizations) - before)
            return D

        monkeypatch.setattr(riccati, "_replay_lyapunov", counted_replay)
        rng = np.random.default_rng(2100 + n)
        m = max(1, n // 4)
        for _ in range(4):
            A, B = rng.normal(size=(n, n)), rng.normal(size=(n, m))
            Q, R = random_spd(rng, n), random_spd(rng, m)
            fresh.clear()
            replays.clear()
            d = solve_care(A, B, Q, R)
            assert len(fresh) == 1
            assert len(replays) <= 2
            # a replay neither inverts nor scales: it reuses the iterates
            assert replays == [0] * len(replays)
            assert len(hurwitz_calls) == 0
            ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
            assert max_abs(d.P - ref) <= 1e-8 * max_abs(ref)

    def test_replay_is_fresh_newton_bitwise(self, pendulum, pendulum_weights):
        A, B = linearize(pendulum[0])
        Q, R = pendulum_weights
        assert np.array_equal(solve_care(A, B, Q, R).P, _fresh_newton(A, B, Q, R))
        rng = np.random.default_rng(2200)
        for n in (2, 4, 8, 16, 32):
            for _ in range(8):
                A, B, Q, R = _scaled_draw(rng, n)
                d = solve_care(A, B, Q, R)
                assert np.array_equal(d.P, _fresh_newton(A, B, Q, R))
                assert np.array_equal(d.K, solve_many(d.R, d.B.T @ d.P))

    def test_unsettled_replay_solves_fresh(self, monkeypatch):
        # a replay that does not settle within its trace hands the step
        # back to a fresh sign iteration, so every step then runs one
        fresh = []
        monkeypatch.setattr(riccati, "_lyapunov", counted(riccati._lyapunov, fresh))
        monkeypatch.setattr(riccati, "_replay_lyapunov", lambda trace, W: None)
        A, B, Q, R = _scaled_draw(np.random.default_rng(2201), 8)
        d = solve_care(A, B, Q, R)
        assert len(fresh) >= 2
        assert np.array_equal(d.P, _fresh_newton(A, B, Q, R))

    def test_off_plateau_steps_solve_fresh(self, monkeypatch):
        # a start 1e-3 off the solution takes Newton steps above the
        # plateau; each solves fresh, and only a plateau step's iterates
        # are replayed
        sign_start = riccati._sign_start
        monkeypatch.setattr(riccati, "_sign_start", lambda *args: sign_start(*args) * (1 + 1e-3))
        fresh = []
        monkeypatch.setattr(riccati, "_lyapunov", counted(riccati._lyapunov, fresh))
        A, B, Q, R = _scaled_draw(np.random.default_rng(2202), 8)
        d = solve_care(A, B, Q, R)
        assert len(fresh) >= 3
        assert np.array_equal(d.P, _fresh_newton(A, B, Q, R))


class TestResidualCertificate:
    """The residual A'P + PA - PBK + Q is the rounding of its terms, so
    its bound scales with |A'P| and |PBK| as well as |Q|."""

    @staticmethod
    def _seed94_n4():
        # the first n = 4 system that the care-lti benchmark draws from seed 94
        rng = np.random.default_rng([94, 2])
        return rng.normal(size=(4, 4)) / 2, rng.normal(size=(4, 1)), np.eye(4), np.eye(1)

    def test_large_p_accepted(self):
        A, B, Q, R = self._seed94_n4()
        d = solve_care(A, B, Q, R)
        ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
        assert max_abs(ref) > 1e5
        assert max_abs(d.P - ref) <= 1e-8 * max_abs(ref)
        # the residual is round-off of terms of size |A'P| ~ 1e5: 2.9e-8 on
        # the default OpenBLAS kernel, beyond 1e-8 |Q| but far within 1e-8 |A'P|
        assert d.are_residual <= riccati.RESIDUAL_RTOL * max_abs(A.T @ d.P)
        assert np.all(np.real(scipy.linalg.eigvals(A - B @ d.K)) < 0)

    def test_perturbed_p_rejected(self):
        A, B, Q, R = self._seed94_n4()
        d = solve_care(A, B, Q, R)
        assert riccati._certified_residual(A, B, Q, d.P, d.K) == d.are_residual
        E = symmetrize(np.random.default_rng(2300).uniform(-1.0, 1.0, size=(4, 4)))
        P = d.P + 1e-6 * max_abs(d.P) * E / max_abs(E)
        with pytest.raises(NotStabilizable, match="residual"):
            riccati._certified_residual(A, B, Q, P, solve_many(R, B.T @ P))


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
