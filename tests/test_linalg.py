import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hte.errors import ConfigError, IllConditionedError
from hte.linalg import (
    _JITTER_START,
    _JITTER_STOP,
    _RESIDUAL_TOL,
    _SYM_TOL,
    _cholesky_rung,
    _exp_scaled,
    gaussian_cross,
    gaussian_cross_stack,
    gaussian_gram,
    gaussian_gram_stack,
    gaussian_pairs,
    solve_spd,
    solve_spd_stack_unchecked,
    valid_gamma,
)
from hte.rng import philox_generator


def _cho_rung(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """SciPy's ``cho_factor``/``cho_solve``; None when A is not positive definite."""
    from scipy.linalg import cho_factor, cho_solve

    try:
        return cho_solve(cho_factor(A, lower=True), b)
    except np.linalg.LinAlgError:
        return None


def _potrf_potrs_rung(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """LAPACK ``potrf`` then ``potrs``, two calls; None when either fails."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    factor, info = dpotrf(A, lower=1, clean=0)
    if info != 0:
        return None
    x, info = dpotrs(factor, b, lower=1)
    return x if info == 0 else None


def _posv(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """SciPy's own ``posv`` call on one system, copies and all; returns ``(x, info)``."""
    from scipy.linalg.lapack import dposv

    _, x, info = dposv(A, b, lower=1)
    return x, info


def _posv_rung(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """LAPACK ``posv``, one call; None when it fails."""
    x, info = _posv(A, b)
    return x if info == 0 else None


def _reference_solve_spd(A: np.ndarray, b: np.ndarray, rung=_cho_rung):
    """One system through ``rung`` and the same jitter ladder; returns
    ``(x, jitter_used, escalations)``."""
    n = A.shape[0]
    if n and np.abs(A - A.T).max() > _SYM_TOL:
        raise ConfigError("matrix not symmetric within 1e-10")
    scale = float(np.trace(A)) / n if n else 0.0
    b_norm = float(np.linalg.norm(b))
    eps = _JITTER_START
    jitter = 0.0
    escalations = 0
    while True:
        regularized = A if jitter == 0.0 else A + jitter * np.eye(n)
        x = rung(regularized, b)
        if x is not None:
            residual = float(np.linalg.norm(regularized @ x - b))
            if residual <= _RESIDUAL_TOL * b_norm or (b_norm == 0.0 and residual == 0.0):
                return x, jitter, escalations
        if eps > _JITTER_STOP:
            raise IllConditionedError(
                f"Cholesky failed after jitter escalation to {jitter:.3e}"
            )
        jitter = eps * scale
        eps *= 10.0
        escalations += 1


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
        stack = gaussian_cross_stack(P, P, gamma)
        for X, K, routed in zip(P, stack, gaussian_gram_stack(P, gamma)):
            cross = gaussian_cross(X, X, gamma).tobytes()
            assert K.tobytes() == cross
            assert routed.tobytes() == cross
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

    @settings(max_examples=80, deadline=None)
    @given(q=st.integers(1, 12), m=st.integers(1, 12), d=st.integers(1, 8),
           gamma=st.floats(0.05, 20.0), scale=st.sampled_from([1e-3, 1.0, 1e3, 1e200]),
           seed=st.integers(0, 2**32 - 1))
    def test_row_pairs_equal_cross_kernel_bitwise(self, q, m, d, gamma, scale, seed):
        # every query row against every support row, support rows shuffled;
        # at scale 1e200 the distances overflow to kernel 0, with no warning
        rng = philox_generator(seed)
        A, B = rng.normal(size=(q, d)) * scale, rng.normal(size=(m, d))
        order = rng.permutation(m)
        K = gaussian_pairs(A, np.arange(q), np.full(q, m), B, np.tile(order, q), gamma)
        assert K.tobytes() == gaussian_cross(A, B[order], gamma).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 30)),
           log_d2=st.floats(-320.0, 308.0), log_gamma=st.floats(-160.0, 154.0),
           specials=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_in_place_scaling_equals_the_formula_bitwise(self, shape, log_d2, log_gamma,
                                                         specials, seed):
        gamma = 10.0**log_gamma
        assert valid_gamma(gamma)
        with np.errstate(over="ignore"):  # near 1e308 a draw overflows to inf
            d2 = philox_generator(seed).uniform(0.0, 2.0, size=shape) * 10.0**log_d2
        if specials:  # coincident rows, and a distance that overflowed to inf
            d2.flat[0], d2.flat[-1] = 0.0, np.inf
        with np.errstate(over="ignore"):
            expected = np.exp(-d2 / gamma**2)
        out = d2.copy()
        assert _exp_scaled(out, gamma**2) is out
        assert out.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(g=st.integers(1, 3), m=st.integers(1, 12), d=st.integers(1, 6),
           gamma=st.sampled_from([1e-160, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1.3e154]),
           huge_share=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_gram_is_exactly_symmetric_within_zero_and_one(self, g, m, d, gamma, huge_share,
                                                           seed):
        # the solver of the kernel fit does not scan its systems: this is why
        rng = philox_generator(seed)
        P = rng.normal(size=(g, m, d))
        huge = rng.uniform(size=P.shape) < huge_share
        P[huge] = np.where(rng.uniform(size=int(huge.sum())) < 0.5, -1e150, 1e150)
        stack = gaussian_cross_stack(P, P, gamma)
        for X, K in zip(P, stack):
            for gram in (K, gaussian_cross(X, X, gamma)):
                assert np.array_equal(gram, gram.T)
                assert ((gram >= 0.0) & (gram <= 1.0)).all()
                assert (np.diag(gram) == 1.0).all()

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, 1e200, 1e-200,
                                       np.float64(1e200)])
    def test_gamma_whose_square_is_not_a_positive_float_is_rejected(self, gamma):
        assert not valid_gamma(gamma)
        with pytest.raises(ConfigError, match="gamma"):
            gaussian_cross(np.zeros((2, 1)), np.ones((3, 1)), gamma)
        with pytest.raises(ConfigError, match="gamma"):
            gaussian_cross_stack(np.zeros((1, 2, 1)), np.ones((1, 3, 1)), gamma)

    def test_extreme_valid_gamma_gives_the_limits_without_a_warning(self):
        # 1e-160**2 is a subnormal float: every distance but 0 overflows to exp(-inf) = 0
        assert valid_gamma(1e-160) and valid_gamma(1.3e154)
        X = np.array([[0.0], [1e-3], [1.0]])
        np.testing.assert_array_equal(gaussian_gram(X, 1e-160), np.eye(3))
        assert (gaussian_gram(X, 1.3e154) == 1.0).all()


def _ridge_stack(seed, ridges, m, d, duplicate_share):
    """Gram matrices of drawn points plus ``ridges[i]`` on each diagonal.

    Rows repeated within a system leave only the ridge on a null space, so
    a ridge of 1e-12 sends that system up the jitter ladder, and a negative
    one makes it indefinite at every step.
    """
    rng = philox_generator(seed)
    P = rng.normal(size=(len(ridges), m, d))
    for row in range(1, m):
        repeat = rng.uniform(size=len(ridges)) < duplicate_share
        P[repeat, row] = P[repeat, int(rng.integers(0, row))]
    K = gaussian_cross_stack(P, P, 1.0)
    K.reshape(len(ridges), m * m)[:, :: m + 1] += np.asarray(ridges)[:, None]
    return K, rng.normal(size=(len(ridges), m))


def _solve_each(A, B):
    """``solve_spd`` on every system of a stack, as the stack solver returns them."""
    solved = [solve_spd(a, b) for a, b in zip(A, B)]
    return (np.array([x for x, _, _ in solved]).reshape(B.shape),
            np.array([jitter for _, jitter, _ in solved]),
            np.array([escalations for _, _, escalations in solved]))


class TestSolveSpdStack:
    def test_solved_systems_equal_solve_spd_bitwise(self):
        rng = philox_generator(8)
        M = rng.normal(size=(6, 12, 12))
        A = M @ M.transpose(0, 2, 1) + 12 * np.eye(12)
        A = (A + A.transpose(0, 2, 1)) / 2.0
        B = rng.normal(size=(6, 12))
        X, jitter, escalations = solve_spd_stack_unchecked(A, B)
        assert not jitter.any() and not escalations.any()
        for i in range(6):
            assert X[i].tobytes() == solve_spd(A[i], B[i])[0].tobytes()
            assert X[i].tobytes() == _reference_solve_spd(A[i], B[i])[0].tobytes()

    def test_systems_the_plain_rung_rejects(self):
        # singular, not positive definite: climbs the ladder like the reference
        A, B = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]]), np.ones((2, 2))
        X, jitter, escalations = solve_spd_stack_unchecked(A, B)
        np.testing.assert_array_equal(X[0], [1.0, 1.0])
        assert jitter[0] == 0.0 and escalations[0] == 0
        x, expected_jitter, expected_escalations = _reference_solve_spd(A[1], B[1])
        assert escalations[1] == expected_escalations > 0
        assert jitter[1] == expected_jitter
        assert X[1].tobytes() == x.tobytes()
        x_alone, jitter_alone, escalations_alone = solve_spd(A[1], B[1])
        assert x_alone.tobytes() == x.tobytes()
        assert (jitter_alone, escalations_alone) == (expected_jitter, expected_escalations)
        # not symmetric within 1e-10, though its residual would pass
        A = np.eye(2)
        A[0, 1] = 1e-9
        with pytest.raises(ConfigError, match="not symmetric"):
            solve_spd(A, np.ones(2))
        # a matrix or a right-hand side that is not finite is never solved
        A = np.eye(2)
        A[1, 1] = np.inf
        with pytest.raises(IllConditionedError, match="system is not finite"):
            solve_spd(A, np.ones(2))
        b = np.ones(2)
        b[0] = np.nan
        with pytest.raises(IllConditionedError, match="system is not finite"):
            solve_spd(np.eye(2), b)

    def test_zero_right_hand_side_is_solved(self):
        x, jitter, escalations = solve_spd(2.0 * np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(x, np.zeros(3))
        assert (jitter, escalations) == (0.0, 0)

    @settings(max_examples=60, deadline=None)
    @given(ridges=st.lists(st.sampled_from([1.0, 1e-3, 1e-12]), min_size=1, max_size=6),
           exhausted=st.booleans(), m=st.integers(1, 12), d=st.integers(1, 4),
           duplicate_share=st.floats(0.0, 0.7), seed=st.integers(0, 2**32 - 1))
    def test_each_system_solves_as_the_reference_alone(self, ridges, exhausted, m, d,
                                                       duplicate_share, seed):
        if exhausted:  # indefinite at every jitter step
            ridges = ridges + [-0.25]
        A, B = _ridge_stack(seed, ridges, m, d, duplicate_share)
        try:
            expected = [_reference_solve_spd(a, b) for a, b in zip(A, B)]
        except IllConditionedError:
            for solve in (_solve_each, solve_spd_stack_unchecked):
                with pytest.raises(IllConditionedError):
                    solve(A, B)
            return
        for solve in (_solve_each, solve_spd_stack_unchecked):
            X, jitter, escalations = solve(A, B)
            for i, (x, expected_jitter, expected_escalations) in enumerate(expected):
                assert X[i].tobytes() == x.tobytes()
                assert jitter[i] == expected_jitter
                assert escalations[i] == expected_escalations

    @settings(max_examples=60, deadline=None)
    @given(ridges=st.lists(st.sampled_from([1.0, 1e-3, 1e-12]), min_size=1, max_size=6),
           exhausted=st.booleans(), m=st.integers(1, 40), d=st.integers(1, 4),
           duplicate_share=st.floats(0.0, 0.7), seed=st.integers(0, 2**32 - 1))
    def test_each_system_solves_as_potrf_then_potrs_alone(self, ridges, exhausted, m, d,
                                                          duplicate_share, seed):
        # the solver makes one LAPACK posv call per system; the reference
        # makes the two calls posv stands for, outside the library
        if exhausted:  # indefinite at every jitter step
            ridges = ridges + [-0.25]
        A, B = _ridge_stack(seed, ridges, m, d, duplicate_share)
        try:
            expected = [_reference_solve_spd(a, b, _potrf_potrs_rung) for a, b in zip(A, B)]
        except IllConditionedError:
            for solve in (_solve_each, solve_spd_stack_unchecked):
                with pytest.raises(IllConditionedError):
                    solve(A, B)
            return
        for solve in (_solve_each, solve_spd_stack_unchecked):
            X, jitter, escalations = solve(A, B)
            for i, (x, expected_jitter, expected_escalations) in enumerate(expected):
                assert X[i].tobytes() == x.tobytes()
                assert jitter[i] == expected_jitter
                assert escalations[i] == expected_escalations

    @settings(max_examples=80, deadline=None)
    @given(ridges=st.lists(st.sampled_from([1.0, 1e-3, 1e-12, -0.25]), min_size=1, max_size=6),
           m=st.integers(1, 24), d=st.integers(1, 4), duplicate_share=st.floats(0.0, 0.7),
           skew=st.sampled_from([0.0, 1e-12, 1e-11]), seed=st.integers(0, 2**32 - 1))
    @example(ridges=[1.0, 1e-12, 1e-3], m=9, d=2, duplicate_share=0.5, skew=1e-11, seed=7)
    def test_in_place_rung_is_scipy_posv_bitwise(self, ridges, m, d, duplicate_share, skew,
                                                 seed):
        # Gram stacks (exactly symmetric) with a drawn ridge, some on the jitter
        # ladder and some indefinite; with a skew, the strict upper triangle is
        # moved by up to that much, symmetric only within solve_spd's 1e-10, so
        # a rung that read the upper triangle would change the bits
        A, B = _ridge_stack(seed, ridges, m, d, duplicate_share)
        A += np.triu(philox_generator(seed + 1).uniform(-skew, skew, size=A.shape), 1)
        X, solved = _cholesky_rung(A, B)
        for i in range(len(B)):
            x, info = _posv(A[i], B[i])
            assert X[i].tobytes() == x.tobytes()
            fits = np.linalg.norm(A[i] @ x - B[i]) <= _RESIDUAL_TOL * np.linalg.norm(B[i])
            assert solved[i] == (info == 0 and fits)
        # the whole ladder: each system as posv and the same ladder alone
        try:
            expected = [_reference_solve_spd(a, b, _posv_rung) for a, b in zip(A, B)]
        except IllConditionedError:
            with pytest.raises(IllConditionedError):
                solve_spd_stack_unchecked(A, B)
            return
        X, jitter, escalations = solve_spd_stack_unchecked(A, B)
        for i, (x, expected_jitter, expected_escalations) in enumerate(expected):
            assert X[i].tobytes() == x.tobytes()
            assert (jitter[i], escalations[i]) == (expected_jitter, expected_escalations)

    def test_drawn_stacks_reach_the_ladder(self):
        # drawn stacks reach the ladder, and only the systems that need it escalate
        A, B = _ridge_stack(3, [1.0, 1e-12, 1.0, 1e-12], 8, 2, 0.5)
        _, _, escalations = solve_spd_stack_unchecked(A, B)
        assert escalations[[0, 2]].tolist() == [0, 0] and escalations[[1, 3]].all()
        assert _solve_each(A, B)[2].tolist() == escalations.tolist()

    def test_trace_that_overflows_exhausts_the_ladder_without_a_warning(self):
        # finite and singular, so the ladder starts, but its jitter is inf
        with pytest.raises(IllConditionedError, match="escalation to inf"):
            solve_spd(np.full((2, 2), 1e308), np.ones(2))


class TestSolveSpd:
    def test_identity(self):
        b = philox_generator(4).normal(size=6)
        x, jitter, escalations = solve_spd(np.eye(6), b)
        np.testing.assert_array_equal(x, b)
        assert (jitter, escalations) == (0.0, 0)
        assert type(jitter) is float and type(escalations) is int

    def test_hand_worked_2x2(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        x, _, _ = solve_spd(A, np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

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
            x, _, _ = solve_spd(A, b)
            residual = np.linalg.norm(A @ x - b)
            assert residual <= 1e-8 * np.linalg.norm(b)
            np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-8)

    def test_recovers_known_solution_up_to_conditioning(self):
        rng = philox_generator(6)
        n = 40
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigenvalues = np.logspace(0, 8, n)  # condition number 1e8
        A = (q * eigenvalues) @ q.T
        A = (A + A.T) / 2.0
        x0 = rng.normal(size=n)
        x, _, _ = solve_spd(A, A @ x0)
        assert np.linalg.norm(x - x0) <= 1e-7 * np.linalg.norm(x0)
