import numpy as np
import pytest
import scipy.linalg

from sontagctl.linalg import (
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
    _row_all_finite,
    _row_dot,
    _row_max_abs,
    cholesky_pd,
    is_hurwitz,
    matrix_sign,
    max_abs,
    solve_linear,
    solve_lyapunov,
    symmetrize,
)

from conftest import random_spd


class TestSolveLinear:
    def test_identity(self):
        x = solve_linear(np.eye(2), [3.0, -1.0])
        np.testing.assert_array_equal(x, [3.0, -1.0])

    def test_diagonal(self):
        # direct substitution: [[2,0],[0,4]] @ (1, 2) = (2, 8)
        x = solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-14)

    def test_rank_one_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])

    def test_nonconformable(self):
        with pytest.raises(ValueError):
            solve_linear(np.eye(2), [1.0, 2.0, 3.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve_linear([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0])

    def test_random_residual(self):
        rng = np.random.default_rng(1001)
        checked = 0
        while checked < 50:
            n = int(rng.integers(1, 9))
            A = rng.normal(size=(n, n))
            if np.linalg.cond(A) >= 1e6:
                continue
            b = rng.normal(size=n)
            x = solve_linear(A, b)
            res = max_abs(A @ x - b)
            assert res <= 1e-9 * (1.0 + max_abs(b))
            checked += 1


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


class TestIsHurwitz:
    def test_negative_identity(self):
        assert is_hurwitz(-np.eye(3))

    def test_double_integrator(self):
        assert not is_hurwitz([[0.0, 1.0], [0.0, 0.0]])

    def test_damped_oscillator(self):
        # s^2 + s + 1: stable by the Routh criterion
        assert is_hurwitz([[0.0, 1.0], [-1.0, -1.0]])

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
        +-0.0; on stacked shapes the first row is all -0.0."""
        A = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        pick = rng.random(shape) < 0.3
        A[pick] = rng.choice(self.SPECIALS, size=int(pick.sum()))
        if len(shape) > 1:
            A[(0,) * (len(shape) - 1)] = -0.0
        return A

    def _cases(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(1, 8):
            for shape in ((n,), (40, n), (3, 5, n)):
                for _ in range(5):
                    yield self._draw(rng, shape), self._draw(rng, shape)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dot_bitwise_below_eight_terms(self):
        for A, B in self._cases(1101):
            assert _same_bits(_row_dot(A, B), (A * B).sum(axis=-1))
            # all products -0.0: numpy's sum is +0.0, and so is the kernel's
            assert _same_bits(_row_dot(A, np.abs(B) + 1.0), (A * (np.abs(B) + 1.0)).sum(axis=-1))

    def test_dot_negative_zero_products(self):
        for n in range(1, 8):
            for A, B in ((np.full(n, -0.0), np.ones(n)), (np.zeros((4, n)), -np.ones((4, n)))):
                assert _same_bits(_row_dot(A, B), (A * B).sum(axis=-1))
                assert not np.signbit(_row_dot(A, B)).any()

    def test_dot_broadcasts(self):
        rng = np.random.default_rng(1102)
        A = rng.normal(size=(6, 1, 3))
        for B in (rng.normal(size=(6, 4, 3)), rng.normal(size=(4, 3)), rng.normal(size=3)):
            assert _same_bits(_row_dot(A, B), (A * B).sum(axis=-1))

    def test_dot_close_from_eight_terms(self):
        # numpy sums 8 or more terms pairwise, the kernel in index order
        rng = np.random.default_rng(1103)
        for n in (8, 9, 12, 16):
            A, B = rng.uniform(0.5, 2.0, size=(200, n)), rng.uniform(0.5, 2.0, size=(200, n))
            np.testing.assert_allclose(_row_dot(A, B), (A * B).sum(axis=-1), rtol=1e-15, atol=0)

    def test_max_abs_bitwise(self):
        for A, _ in self._cases(1104):
            assert _same_bits(_row_max_abs(A), np.abs(A).max(axis=-1))

    def test_all_finite_bitwise(self):
        for A, _ in self._cases(1105):
            assert _same_bits(_row_all_finite(A), np.isfinite(A).all(axis=-1))
