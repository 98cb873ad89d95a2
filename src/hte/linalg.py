"""Dense SPD solves and Gaussian Gram matrices for the kernel cells.

Cells are kept small by the partitioning step (adaptive trees split every
separable cell of more than ``min_samples_split`` points), so a kernel
member is thousands of tiny systems whose cost is per-call overhead, not
flops.  Equal-size systems are therefore built and solved as stacks
(``gaussian_gram_stack``, ``cholesky_solve_stack``: LAPACK ``potrf``/``potrs``
called directly, residuals checked in one batched product), and prediction
builds the cross kernels of equal-shape cells as one ``gaussian_cross_stack``.
A system that needs more goes to ``solve_spd``, the one jitter ladder:
failed factorizations escalate a diagonal jitter proportional to the mean
eigenvalue before giving up.

SciPy is imported on first use, so that loading the package (and a
prediction with per-cell means) does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IllConditionedError

_SYM_TOL = 1e-10
_RESIDUAL_TOL = 1e-8
_JITTER_START = 1e-12
_JITTER_STOP = 1e-6


def _cdist(XA, XB, metric):
    """``scipy.spatial.distance.cdist``; the first call imports it and rebinds
    this name to it, so the per-cell calls after it pay no import statement."""
    global _cdist
    from scipy.spatial.distance import cdist

    _cdist = cdist
    return cdist(XA, XB, metric)


@dataclass
class SpdSolveReport:
    """Solution of an SPD system plus the regularization it needed."""

    solution: np.ndarray
    jitter_used: float
    escalations: int


def gaussian_gram(X: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix K[a, b] = exp(-||x_a - x_b||^2 / gamma^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return gaussian_gram_stack(X[None], gamma)[0]


def gaussian_gram_stack(P: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrices of a ``(g, m, d)`` stack of point sets, shape ``(g, m, m)``."""
    return gaussian_cross_stack(P, P, gamma)


def gaussian_cross_stack(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Cross kernels of a ``(g, q, d)`` and a ``(g, m, d)`` stack, shape ``(g, q, m)``.

    Squared distances sum the per-dimension squares in dimension order, as
    ``cdist``'s ``sqeuclidean`` does, so each slice equals
    ``gaussian_cross(A[i], B[i], gamma)`` bit for bit.
    """
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    g, q, d = A.shape
    d2 = np.zeros((g, q, B.shape[1]))
    for k in range(d):
        diff = A[:, :, None, k] - B[:, None, :, k]
        d2 += np.multiply(diff, diff, out=diff)
    return np.exp(-d2 / gamma**2)


def gaussian_cross(Xa: np.ndarray, Xb: np.ndarray, gamma: float) -> np.ndarray:
    """Cross-kernel matrix between query rows Xa and support rows Xb."""
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    Xa = np.atleast_2d(np.asarray(Xa, dtype=np.float64))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=np.float64))
    d2 = _cdist(Xa, Xb, "sqeuclidean")
    return np.exp(-d2 / gamma**2)


def cholesky_solve_stack(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain Cholesky solves of ``A[i] x = B[i]``, no jitter; returns ``(X, solved)``.

    Where ``solved[i]`` holds, ``X[i]`` is bit-identical to
    ``solve_spd(A[i], B[i]).solution``: the same LAPACK routines on the same
    matrix, the same residual test.  Systems that are not finite, not
    symmetric within 1e-10, not positive definite or miss the residual
    tolerance are left unsolved for ``solve_spd`` and its jitter ladder.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    # a system that overflows here is only "not solved"; solve_spd reports it
    with np.errstate(over="ignore", invalid="ignore"):
        solved = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(B).all(axis=1)
        solved &= np.abs(A - A.transpose(0, 2, 1)).max(axis=(1, 2)) <= _SYM_TOL
        X = np.zeros_like(B)
        for i in np.flatnonzero(solved):
            factor, info = dpotrf(A[i], lower=1, clean=0)
            if info == 0:
                X[i], info = dpotrs(factor, B[i], lower=1)
            solved[i] = info == 0
        # batched `A @ x` and `norm`: per slice, the same BLAS calls solve_spd makes
        idx = np.flatnonzero(solved)
        r = np.matmul(A[idx], X[idx, :, None])[:, :, 0] - B[idx]
        residual = np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])
        b = B[idx]
        b_norm = np.sqrt(np.matmul(b[:, None, :], b[:, :, None])[:, 0, 0])
    solved[idx] = residual <= _RESIDUAL_TOL * b_norm  # solve_spd's test; 0 <= 0 covers b = 0
    return X, solved


def solve_spd(A: np.ndarray, b: np.ndarray) -> SpdSolveReport:
    """Solve A x = b by Cholesky with escalating diagonal jitter.

    On factorization failure (or a residual above 1e-8 relative), adds
    eps * trace(A)/n to the diagonal with eps stepping 1e-12 -> 1e-6 by
    factors of 10.  Raises IllConditionedError once the ladder is exhausted.
    """
    from scipy.linalg import cho_factor, cho_solve

    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ConfigError("matrix must be square")
    if b.shape != (n,):
        raise ConfigError("right-hand side length mismatch")
    if n and np.abs(A - A.T).max() > _SYM_TOL:
        raise ConfigError("matrix not symmetric within 1e-10")

    scale = float(np.trace(A)) / n if n else 0.0
    b_norm = float(np.linalg.norm(b))
    eps = _JITTER_START
    jitter = 0.0
    escalations = 0
    while True:
        regularized = A if jitter == 0.0 else A + jitter * np.eye(n)
        try:
            factor = cho_factor(regularized, lower=True)
            x = cho_solve(factor, b)
            residual = float(np.linalg.norm(regularized @ x - b))
            if residual <= _RESIDUAL_TOL * b_norm or (b_norm == 0.0 and residual == 0.0):
                return SpdSolveReport(x, jitter, escalations)
        except np.linalg.LinAlgError:
            pass
        if eps > _JITTER_STOP:
            raise IllConditionedError(
                f"Cholesky failed after jitter escalation to {jitter:.3e}"
            )
        jitter = eps * scale
        eps *= 10.0
        escalations += 1
