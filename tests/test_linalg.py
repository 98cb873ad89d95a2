import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hte.errors import ConfigError, IllConditionedError
from hte.linalg import (
    cholesky_solve_stack,
    gaussian_cross,
    gaussian_cross_stack,
    gaussian_gram,
    gaussian_gram_stack,
    solve_spd,
)
from hte.rng import philox_generator


class TestGaussianGram:
    def test_unit_diagonal(self):
        X = philox_generator(1).normal(size=(20, 4))
        K = gaussian_gram(X, gamma=0.7)
        np.testing.assert_array_equal(np.diag(K), np.ones(20))

    def test_value_at_distance_gamma(self):
        X = np.array([[0.0], [0.5]])
        K = gaussian_gram(X, gamma=0.5)
        np.testing.assert_allclose(K[0, 1], np.exp(-1.0), rtol=1e-15)

    def test_flat_kernel_limit(self):
        X = philox_generator(2).normal(size=(10, 3))
        K = gaussian_gram(X, gamma=1e12)
        assert np.abs(K - 1.0).max() <= 1e-10

    def test_symmetric(self):
        X = philox_generator(3).normal(size=(30, 5))
        K = gaussian_gram(X, gamma=1.3)
        assert np.array_equal(K, K.T)

    def test_cross_kernel_matches_definition(self):
        Xa = np.array([[0.0, 0.0], [1.0, 0.0]])
        Xb = np.array([[0.0, 1.0]])
        K = gaussian_cross(Xa, Xb, gamma=2.0)
        np.testing.assert_allclose(K[0, 0], np.exp(-1.0 / 4.0))
        np.testing.assert_allclose(K[1, 0], np.exp(-2.0 / 4.0))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ConfigError):
            gaussian_gram(np.zeros((2, 1)), gamma=0.0)

    @settings(max_examples=80, deadline=None)
    @given(g=st.integers(1, 3), m=st.integers(1, 30), d=st.integers(1, 19),
           gamma=st.floats(0.05, 20.0), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    def test_gram_equals_cross_kernel_bitwise(self, g, m, d, gamma, scale, seed):
        P = philox_generator(seed).normal(size=(g, m, d)) * scale
        stack = gaussian_gram_stack(P, gamma)
        for X, K in zip(P, stack):
            cross = gaussian_cross(X, X, gamma).tobytes()
            assert K.tobytes() == cross
            assert gaussian_gram(X, gamma).tobytes() == cross

    @settings(max_examples=80, deadline=None)
    @given(g=st.integers(1, 3), q=st.integers(1, 20), m=st.integers(1, 30),
           d=st.integers(1, 19), gamma=st.floats(0.05, 20.0),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
    def test_cross_stack_equals_cross_kernel_bitwise(self, g, q, m, d, gamma, scale, seed):
        rng = philox_generator(seed)
        A, B = rng.normal(size=(g, q, d)) * scale, rng.normal(size=(g, m, d)) * scale
        stack = gaussian_cross_stack(A, B, gamma)
        assert stack.shape == (g, q, m)
        for Xa, Xb, K in zip(A, B, stack):
            assert K.tobytes() == gaussian_cross(Xa, Xb, gamma).tobytes()


class TestCholeskySolveStack:
    def test_solved_systems_equal_solve_spd_bitwise(self):
        rng = philox_generator(8)
        M = rng.normal(size=(6, 12, 12))
        A = M @ M.transpose(0, 2, 1) + 12 * np.eye(12)
        A = (A + A.transpose(0, 2, 1)) / 2.0
        B = rng.normal(size=(6, 12))
        X, solved = cholesky_solve_stack(A, B)
        assert solved.all()
        for i in range(6):
            assert X[i].tobytes() == solve_spd(A[i], B[i]).solution.tobytes()

    def test_systems_needing_the_ladder_are_left_unsolved(self):
        A = np.stack([np.eye(2)] * 5)
        A[1] = [[1.0, 1.0], [1.0, 1.0]]  # singular: not positive definite
        A[2, 0, 1] = 1e-9  # not symmetric within 1e-10, though its residual would pass
        A[3, 1, 1] = np.inf  # not finite
        B = np.ones((5, 2))
        B[4, 0] = np.nan  # non-finite right-hand side
        X, solved = cholesky_solve_stack(A, B)
        assert solved.tolist() == [True, False, False, False, False]
        np.testing.assert_array_equal(X[0], [1.0, 1.0])

    def test_zero_right_hand_side_is_solved(self):
        X, solved = cholesky_solve_stack(np.stack([2.0 * np.eye(3)]), np.zeros((1, 3)))
        assert solved.all()
        np.testing.assert_array_equal(X, np.zeros((1, 3)))


class TestSolveSpd:
    def test_identity(self):
        b = philox_generator(4).normal(size=6)
        report = solve_spd(np.eye(6), b)
        np.testing.assert_array_equal(report.solution, b)
        assert report.jitter_used == 0.0
        assert report.escalations == 0

    def test_hand_worked_2x2(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        report = solve_spd(A, np.array([1.0, 1.0]))
        np.testing.assert_allclose(report.solution, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_zero_matrix_fails_after_escalation(self):
        with pytest.raises(IllConditionedError):
            solve_spd(np.zeros((3, 3)), np.ones(3))

    def test_rejects_asymmetric_input(self):
        A = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ConfigError):
            solve_spd(A, np.ones(2))

    def test_random_spd_residuals(self):
        rng = philox_generator(5)
        for n in (3, 20, 100):
            M = rng.normal(size=(n, n))
            A = M @ M.T + n * np.eye(n)
            b = rng.normal(size=n)
            report = solve_spd(A, b)
            residual = np.linalg.norm(A @ report.solution - b)
            assert residual <= 1e-8 * np.linalg.norm(b)
            np.testing.assert_allclose(
                report.solution, np.linalg.solve(A, b), rtol=1e-8
            )

    def test_recovers_known_solution_up_to_conditioning(self):
        rng = philox_generator(6)
        n = 40
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigenvalues = np.logspace(0, 8, n)  # condition number 1e8
        A = (q * eigenvalues) @ q.T
        A = (A + A.T) / 2.0
        x0 = rng.normal(size=n)
        report = solve_spd(A, A @ x0)
        assert np.linalg.norm(report.solution - x0) <= 1e-7 * np.linalg.norm(x0)
