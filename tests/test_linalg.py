import math

import numpy as np
import pytest
import scipy.linalg

from sontagctl.linalg import (
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
    _row_all_finite,
    _row_dot,
    _certified_inverse,
    _lyapunov,
    _replay_lyapunov,
    _norm1,
    _row_max_abs,
    _coefficients,
    _contract,
    cholesky_pd,
    is_hurwitz,
    matrix_sign,
    max_abs,
    solve_lyapunov,
    solve_many,
    symmetrize,
)
from sontagctl.control import _input_rows
from sontagctl.model import FeedbackLinearization

from conftest import counted, random_spd, stacked


class TestSolveLinear:
    """Linear solves A x = b through solve_many with a one-column
    right-hand side."""

    def test_identity(self):
        x = solve_many(np.eye(2), [[3.0], [-1.0]])
        np.testing.assert_array_equal(x, [[3.0], [-1.0]])

    def test_diagonal(self):
        # direct substitution: [[2,0],[0,4]] @ (1, 2) = (2, 8)
        x = solve_many([[2.0, 0.0], [0.0, 4.0]], [[2.0], [8.0]])
        np.testing.assert_allclose(x, [[1.0], [2.0]], rtol=1e-14)

    def test_rank_one_raises(self):
        with pytest.raises(SingularMatrix):
            solve_many([[1.0, 1.0], [1.0, 1.0]], [[1.0], [0.0]])

    def test_nonconformable(self):
        with pytest.raises(ValueError):
            solve_many(np.eye(2), [[1.0], [2.0], [3.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve_many([[np.nan, 0.0], [0.0, 1.0]], [[1.0], [1.0]])

    def test_random_residual(self):
        rng = np.random.default_rng(1001)
        checked = 0
        while checked < 50:
            n = int(rng.integers(1, 9))
            A = rng.normal(size=(n, n))
            if np.linalg.cond(A) >= 1e6:
                continue
            b = rng.normal(size=(n, 1))
            x = solve_many(A, b)
            res = max_abs(A @ x - b)
            assert res <= 1e-9 * (1.0 + max_abs(b))
            checked += 1


class TestConditionCertificate:
    """solve_many and matrix_sign share one certificate: a matrix whose
    1-norm condition number exceeds 1/PIVOT_RTOL = 1e12 is singular."""

    # unit pivots, so no pivot test sees it, but kappa_1 = (1e6 + 1)(1e12 + 1e6 + 1)
    UNIT_PIVOTS = [[1.0, -1e6, 0.0], [0.0, 1.0, -1e6], [0.0, 0.0, 1.0]]
    SINGULAR = (np.diag([1.0, 1e-13]), UNIT_PIVOTS)

    def test_kappa_of_the_cases(self):
        assert np.linalg.cond(self.UNIT_PIVOTS, 1) > 1e12
        assert np.linalg.cond(np.diag([1.0, 1e-11]), 1) < 1e12

    @pytest.mark.parametrize("case", range(len(SINGULAR)))
    def test_solve_many_raises(self, case):
        A = np.asarray(self.SINGULAR[case])
        with pytest.raises(SingularMatrix):
            solve_many(A, np.ones((A.shape[0], 1)))

    @pytest.mark.parametrize("case", range(len(SINGULAR)))
    def test_matrix_sign_raises(self, case):
        with pytest.raises(SingularMatrix):
            matrix_sign(self.SINGULAR[case])

    def test_kappa_product_is_norm_bitwise(self):
        # the certificate's 1-norms are np.linalg.norm(., 1) bit for bit,
        # NaN in an inverse included
        rng = np.random.default_rng(1012)
        mats = []
        for n in range(1, 9):
            mats.append(rng.normal(size=(n, n)))
            mats.append(rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-8, 8, size=(n, n)))
            near = np.outer(rng.normal(size=n), rng.normal(size=n))
            mats.append(near + 1e-14 * rng.normal(size=(n, n)))
        for A in mats:
            with np.errstate(all="ignore"):
                inv = np.linalg.solve(A, np.eye(A.shape[0]))
            for B in (inv, np.where(rng.random(inv.shape) < 0.3, np.nan, inv)):
                assert _same_bits(_norm1(A) * _norm1(B),
                                  np.linalg.norm(A, 1) * np.linalg.norm(B, 1))

    def test_max_abs_is_np_max_bitwise(self):
        rng = np.random.default_rng(1013)
        for shape in ((1,), (5,), (3, 3), (4, 7), (2, 3, 4)):
            for _ in range(20):
                a = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
                a[rng.random(shape) < 0.2] = rng.choice([np.nan, np.inf, -np.inf, -0.0])
                assert _same_bits(max_abs(a), float(np.max(np.abs(a))))
        assert _same_bits(max_abs(np.full(3, -0.0)), 0.0)

    def test_kappa_1e11_accepted(self):
        A = np.diag([1.0, 1e-11])
        np.testing.assert_allclose(solve_many(A, [[1.0], [1e-11]]), [[1.0], [1.0]], rtol=1e-14)
        np.testing.assert_allclose(matrix_sign(A), np.eye(2), atol=1e-14)

    @staticmethod
    def _fbl(J_T0):
        return FeedbackLinearization(
            T=lambda X: np.asarray(X, dtype=float),
            T_jac=lambda X: stacked(np.eye(2), X),
            A_tilde=np.array([[0.0, 1.0], [0.0, 0.0]]),
            B_tilde=np.array([[0.0], [1.0]]),
            J_T0=J_T0,
        )

    def test_feedback_linearization_checks(self):
        # gamma(0) = (J_T0 B)[idx] is checked where the law is built
        fbl = self._fbl(np.diag([1.0, 1e-11]))
        np.testing.assert_array_equal(_input_rows(fbl, [[0.0], [1.0]])[1], [[1e-11]])
        for J_T0 in (np.diag([1.0, 1e-13]), [[1.0, 1.0], [1.0, 1.0]]):
            with pytest.raises(ValueError, match="J_T0 must be invertible"):
                self._fbl(J_T0)
        for B in ([[1.0], [0.0]], [[0.0], [np.nan]]):
            with pytest.raises(ValueError, match="gamma must be nonsingular"):
                _input_rows(self._fbl(np.eye(2)), B)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_pd(np.eye(3)), np.eye(3))

    def test_indefinite(self):
        # eigenvalues 3 and -1 from the characteristic polynomial
        with pytest.raises(NotPositiveDefinite):
            cholesky_pd([[1.0, 2.0], [2.0, 1.0]])

    def test_negative_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_pd(-np.eye(2))

    def test_asymmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_pd([[1.0, 0.5], [0.0, 1.0]])

    def test_factor_residual(self):
        rng = np.random.default_rng(1002)
        for _ in range(20):
            M = random_spd(rng, int(rng.integers(1, 8)))
            L = cholesky_pd(M)
            assert max_abs(L @ L.T - M) <= 1e-10 * max_abs(M)


def _shifted_hurwitz(rng, n):
    M = rng.normal(size=(n, n))
    return M - (np.abs(M).sum(axis=1).max() + 0.5) * np.eye(n)  # Hurwitz by shift


class TestMatrixSign:
    def test_scipy_oracle(self):
        rng = np.random.default_rng(1006)
        checked = 0
        while checked < 25:
            n = int(rng.integers(1, 9))
            Z = rng.normal(size=(n, n))
            if np.abs(np.real(np.linalg.eigvals(Z))).min() < 0.05:
                continue
            S = matrix_sign(Z)
            ref = scipy.linalg.signm(Z)
            assert max_abs(S - ref) <= 1e-8 * max_abs(ref)
            checked += 1

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sign(np.diag([-3.0, 0.5, 2.0])),
                                   np.diag([-1.0, 1.0, 1.0]), atol=1e-14)

    def test_imaginary_axis_singular(self):
        with pytest.raises(SingularMatrix):
            matrix_sign([[0.0, 1.0], [-1.0, 0.0]])


class TestSolveLyapunov:
    def test_negative_identity(self):
        X = solve_lyapunov(-np.eye(2), np.eye(2))
        np.testing.assert_allclose(X, 0.5 * np.eye(2), rtol=1e-14)

    def test_scalar(self):
        X = solve_lyapunov([[-2.0]], [[4.0]])
        np.testing.assert_allclose(X, [[1.0]], rtol=1e-14)

    def test_rotation_singular(self):
        # eigenvalues +-i sum to zero across the pair
        with pytest.raises(SingularMatrix):
            solve_lyapunov([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))

    def test_asymmetric_w(self):
        with pytest.raises(NotSymmetric):
            solve_lyapunov(-np.eye(2), [[1.0, 0.5], [0.0, 1.0]])

    def test_non_hurwitz_singular(self):
        # solvable (eigenvalue sums 2, 3, 4 are nonzero) but A is unstable
        with pytest.raises(SingularMatrix):
            solve_lyapunov(np.diag([1.0, 2.0]), np.eye(2))

    def test_scipy_oracle(self):
        rng = np.random.default_rng(1007)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            A = _shifted_hurwitz(rng, n)
            W = symmetrize(rng.normal(size=(n, n)))
            X = solve_lyapunov(A, W)
            ref = scipy.linalg.solve_continuous_lyapunov(A.T, -W)
            assert max_abs(X - ref) <= 1e-10 * max_abs(ref)

    def test_residual_and_symmetry(self):
        rng = np.random.default_rng(1003)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            A = _shifted_hurwitz(rng, n)
            W = symmetrize(rng.normal(size=(n, n)))
            X = solve_lyapunov(A, W)
            assert max_abs(X - X.T) <= 1e-10 * max(max_abs(X), 1e-300)
            res = max_abs(A.T @ X + X @ A + W)
            assert res <= 1e-9 * (1.0 + max_abs(W))


class TestLyapunovScale:
    """The certificate judges A, not the block matrix [[A, 0], [-W, -A']],
    so the size of W never makes a well-conditioned A look singular,
    and X is homogeneous in W."""

    def test_large_w(self):
        # kappa_1 of the block matrix is about 1e12, that of A is 1
        X = solve_lyapunov(-np.eye(2), 1e6 * np.eye(2))
        np.testing.assert_array_equal(X, 5e5 * np.eye(2))

    @pytest.mark.parametrize("s", [1e-6, 1e6, 1e13])
    def test_homogeneous_in_w(self, s):
        rng = np.random.default_rng(1008)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            A = _shifted_hurwitz(rng, n)
            W = random_spd(rng, n)
            np.testing.assert_allclose(solve_lyapunov(A, s * W), s * solve_lyapunov(A, W),
                                       rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_scipy_oracle_large_w(self, n):
        rng = np.random.default_rng(1009 + n)
        A = _shifted_hurwitz(rng, n)
        W = random_spd(rng, n)
        W *= 1e8 / max_abs(W)
        X = solve_lyapunov(A, W)
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -W)
        assert max_abs(X - ref) <= 1e-10 * max_abs(ref)

    @pytest.mark.parametrize("s", [1.0, 1e8])
    def test_non_hurwitz_raises(self, s):
        # eigenvalues -1 and 2: no pair sums to zero, so the equation is
        # solvable, but A is not Hurwitz
        A = np.array([[-1.0, 3.0], [0.0, 2.0]])
        with pytest.raises(SingularMatrix):
            solve_lyapunov(A, s * np.eye(2))


class TestRobertsForm:
    """solve_lyapunov iterates on n-by-n blocks: one inverse of A per
    sign iterate and no factorization of the 2n-by-2n block matrix."""

    def test_factors_only_n_by_n(self, monkeypatch):
        calls = {name: [] for name in ("inv", "solve", "slogdet")}
        for name, log in calls.items():
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), log))
        rng = np.random.default_rng(1010)
        solve_lyapunov(_shifted_hurwitz(rng, 16), random_spd(rng, 16))
        assert calls["solve"] == []
        # slogdet scales each iterate once, so it counts the iterates
        assert len(calls["inv"]) == len(calls["slogdet"]) >= 1
        assert set(calls["inv"] + calls["slogdet"]) == {(16, 16)}

    def test_inverse_is_gesv_on_identity(self):
        rng = np.random.default_rng(1011)
        for n in range(1, 65):
            A = rng.normal(size=(n, n))
            assert _same_bits(_certified_inverse(A), np.linalg.solve(A, np.eye(n)))


class TestLyapunovReplay:
    """A Lyapunov solve records its sign iterates of A; replaying them on
    another right-hand side runs the same Roberts-form updates and stop
    rule with no inverse or determinant."""

    @staticmethod
    def _hurwitz(rng, n):
        # a generic non-normal A, shifted half a unit left of the axis
        M = rng.normal(size=(n, n))
        return M - (np.real(scipy.linalg.eigvals(M)).max() + 0.5) * np.eye(n)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_replay_on_second_rhs(self, n):
        rng = np.random.default_rng(1020 + n)
        A = self._hurwitz(rng, n)
        W1, W2 = symmetrize(random_spd(rng, n)), symmetrize(rng.normal(size=(n, n)))
        trace = []
        _lyapunov(A, W1, trace)
        X2 = _replay_lyapunov(trace, W2)
        assert X2 is not None
        np.testing.assert_allclose(X2, solve_lyapunov(A, W2), rtol=1e-12, atol=0)
        # the same updates on the same iterates: bitwise the fresh solve
        assert _same_bits(X2, solve_lyapunov(A, W2))
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -W2)
        assert max_abs(X2 - ref) <= 1e-10 * max_abs(ref)

    def test_unsettled_replay_is_none(self):
        # a trace cut before the iterate at which W's own solve settles
        rng = np.random.default_rng(1030)
        A, W = self._hurwitz(rng, 6), symmetrize(random_spd(rng, 6))
        trace = []
        X = _lyapunov(A, W, trace)
        assert _same_bits(_replay_lyapunov(trace, W), X)
        assert _replay_lyapunov(trace[:-1], W) is None


class TestIsHurwitz:
    def test_negative_identity(self):
        assert is_hurwitz(-np.eye(3))

    def test_double_integrator(self):
        assert not is_hurwitz([[0.0, 1.0], [0.0, 0.0]])

    def test_damped_oscillator(self):
        # s^2 + s + 1: stable by the Routh criterion
        assert is_hurwitz([[0.0, 1.0], [-1.0, -1.0]])

    @pytest.mark.parametrize("c, hurwitz", [(1e6, False), (1e3, True)])
    def test_unit_pivot_chain(self, c, hurwitz):
        # eigenvalues all -1; kappa_1 beyond 1e12 makes the 1e6 chain singular
        assert is_hurwitz([[-1.0, c, 0.0], [0.0, -1.0, c], [0.0, 0.0, -1.0]]) is hurwitz

    def test_agrees_with_eigenvalues(self):
        rng = np.random.default_rng(1004)
        checked = 0
        while checked < 40:
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(n, n))
            margin = np.abs(np.real(np.linalg.eigvals(A))).min()
            if margin < 0.05:
                continue
            assert is_hurwitz(A) == bool(np.all(np.real(np.linalg.eigvals(A)) < 0))
            checked += 1

    def test_similarity_invariance(self):
        rng = np.random.default_rng(1005)
        checked = 0
        while checked < 25:
            A = rng.normal(size=(3, 3))
            if np.abs(np.real(np.linalg.eigvals(A))).min() < 0.1:
                continue
            T = rng.normal(size=(3, 3))
            if np.linalg.cond(T) > 100:
                continue
            similar = T @ A @ np.linalg.inv(T)
            assert is_hurwitz(A) == is_hurwitz(similar)
            checked += 1


def _same_bits(x, y) -> bool:
    """Equal shape, dtype and bits, with NaNs compared by position: IEEE
    754 leaves the sign of a NaN sum of two NaNs open, and numpy's scalar
    and array loops already differ on it."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape or x.dtype != y.dtype:
        return False
    if x.dtype.kind != "f":
        return x.tobytes() == y.tobytes()
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


class TestRowKernels:
    """The row kernels against the numpy reductions they replace."""

    SPECIALS = (np.nan, np.inf, -np.inf, 0.0, -0.0)

    def _draw(self, rng, shape):
        """Finite entries over six decades mixed with NaN, +-inf and
        +-0.0, drawn as (..., n) and returned coordinates-first, (n, ...);
        on stacked shapes the first state is all -0.0."""
        A = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        pick = rng.random(shape) < 0.3
        A[pick] = rng.choice(self.SPECIALS, size=int(pick.sum()))
        if len(shape) > 1:
            A[(0,) * (len(shape) - 1)] = -0.0
        return np.moveaxis(A, -1, 0)

    def _cases(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 8):
            for shape in ((n,), (40, n), (3, 5, n), (2, 3, 4, n)):
                for _ in range(5):
                    yield self._draw(rng, shape), self._draw(rng, shape)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dot_bitwise_below_eight_terms(self):
        for A, B in self._cases(1101):
            assert _same_bits(_row_dot(A, B), (A * B).sum(axis=0))
            # all products -0.0: numpy's sum is +0.0, and so is the kernel's
            assert _same_bits(_row_dot(A, np.abs(B) + 1.0), (A * (np.abs(B) + 1.0)).sum(axis=0))
            if A.ndim == 1:  # one state's Python floats
                s = _row_dot(A.tolist(), B.tolist())
                assert type(s) is float and _same_bits(s, (A * B).sum(axis=0))

    def test_dot_negative_zero_products(self):
        for n in range(1, 8):
            for A, B in ((np.full(n, -0.0), np.ones(n)), (np.zeros((n, 4)), -np.ones((n, 4)))):
                assert _same_bits(_row_dot(A, B), (A * B).sum(axis=0))
                assert not np.signbit(_row_dot(A, B)).any()
                if A.ndim == 1:
                    assert math.copysign(1.0, _row_dot(A.tolist(), B.tolist())) == 1.0

    def test_dot_broadcasts(self):
        rng = np.random.default_rng(1102)
        # a batch axis broadcasts where it has length 1
        A = np.moveaxis(rng.normal(size=(6, 1, 3)), -1, 0)
        for B in (rng.normal(size=(6, 4, 3)), rng.normal(size=(4, 3))[None],
                  rng.normal(size=3)[None, None]):
            B = np.moveaxis(B, -1, 0)
            assert _same_bits(_row_dot(A, B), (A * B).sum(axis=0))

    def test_dot_close_from_eight_terms(self):
        # numpy sums 8 or more terms pairwise, the kernel in index order
        rng = np.random.default_rng(1103)
        for n in (8, 9, 12, 16):
            A, B = rng.uniform(0.5, 2.0, size=(200, n)).T, rng.uniform(0.5, 2.0, size=(200, n)).T
            np.testing.assert_allclose(_row_dot(A, B), (A * B).sum(axis=0), rtol=1e-15, atol=0)

    # One state, its n Python floats as a list, gives a Python float or
    # bool, not a numpy scalar: the rollout of a single state stays on
    # Python scalars from these kernels on.
    def test_max_abs_bitwise(self):
        for A, _ in self._cases(1104):
            m = _row_max_abs(A)
            assert _same_bits(m, np.abs(A).max(axis=0))
            if A.ndim == 1:
                m1 = _row_max_abs(A.tolist())
                assert type(m1) is float and _same_bits(m1, m)

    def test_max_abs_single_state_matches_stack(self):
        # one state compares its Python floats, a stack calls
        # np.maximum; both keep the first NaN, payload included
        nan1, nan2 = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                              dtype=np.uint64).view(np.float64)
        cols = [[1.0, -2.0, 0.5], [nan1, 2.0, 1.0], [1.0, nan1, 5.0], [nan1, nan2, 0.0],
                [1.0, nan2, nan1], [np.inf, 1.0, nan1], [-np.inf, 2.0, 1.0],
                [-0.0, 0.0, -0.0], [5.0, -np.inf, np.inf], [3.0, -3.0, 3.0]]
        cases = [np.array(cols).T] + [A.reshape(len(A), -1) for A, _ in self._cases(1106)
                                      if A.ndim > 1]
        for A in cases:
            stack = _row_max_abs(A)
            for i, x in enumerate(A.T):
                m = _row_max_abs(x.tolist())
                assert type(m) is float
                assert np.array(m).tobytes() == stack[i:i + 1].tobytes(), (x, m, stack[i])

    def test_all_finite_bitwise(self):
        for A, _ in self._cases(1105):
            ok = _row_all_finite(A)
            assert _same_bits(ok, np.isfinite(A).all(axis=0))
            if A.ndim == 1:
                ok1 = _row_all_finite(A.tolist())
                assert type(ok1) is bool and ok1 == ok

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_contract_is_the_fixed_order_sum(self):
        # M x is, per entry, the sum of X[i] * M[j, i] in index order
        # from +0.0 on Python floats, whatever the BLAS kernel: on (n, N)
        # and (n, a, b) stacks, on one state's list and on one (n,) array,
        # with -0.0, NaN and +-inf products among the terms
        rng = np.random.default_rng(1107)

        def fixed_order(M, x):
            out = []
            for row in M.tolist():
                s = 0.0
                for x_i, m_i in zip(x, row):
                    s += x_i * m_i
                out.append(s)
            return out

        for n in (1, 2, 3, 4, 5, 9, 12):
            for k in (1, 2, 3):
                M = np.moveaxis(self._draw(rng, (k, n)), 0, -1)
                C = _coefficients(M)
                for shape in ((40, n), (3, 5, n)):
                    X = self._draw(rng, shape)
                    got = _contract(C, X)
                    assert got.shape == (k,) + X.shape[1:]
                    cols = X.reshape(n, -1).T
                    want = np.array([fixed_order(M, x) for x in cols.tolist()]).T
                    assert _same_bits(got.reshape(k, -1), want), (n, k, shape)
                    for i, x in enumerate(cols[:6]):
                        one = _contract(C, x.tolist())
                        assert type(one) is list and all(type(v) is float for v in one)
                        assert _same_bits(np.array(one), got.reshape(k, -1)[:, i]), (n, k, x)
                        assert _same_bits(_contract(C, x), np.array(one))
        # all products -0.0: the sum is +0.0, on a stack as on one state
        C = _coefficients(np.ones((2, 3)))
        for X in (np.full((3, 4), -0.0), [-0.0, -0.0, -0.0]):
            assert not np.signbit(_contract(C, X)).any()

    def test_contract_rejects_a_nonconforming_state(self):
        # a state must have one coordinate per column: neither one state's
        # floats nor a stack's rows are cut to the matrix, or padded
        C = _coefficients(np.ones((2, 3)))
        for X in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0], np.ones(2), np.ones((4, 5)),
                  np.ones((2, 3, 3))):
            with pytest.raises(ValueError, match="conform"):
                _contract(C, X)
