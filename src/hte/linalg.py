"""Dense SPD solves and Gaussian Gram matrices for the kernel cells.

Cells are kept small by the partitioning step (adaptive trees split every
separable cell of more than ``min_samples_split`` points), so a dense
Cholesky factorization per cell is the whole computational story.  Failed
factorizations escalate a diagonal jitter proportional to the mean
eigenvalue before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import ConfigError, IllConditionedError

_SYM_TOL = 1e-10
_RESIDUAL_TOL = 1e-8
_JITTER_START = 1e-12
_JITTER_STOP = 1e-6


@dataclass
class SpdSolveReport:
    """Solution of an SPD system plus the regularization it needed."""

    solution: np.ndarray
    jitter_used: float
    escalations: int


def gaussian_gram(X: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix K[a, b] = exp(-||x_a - x_b||^2 / gamma^2)."""
    return gaussian_cross(X, X, gamma)


def gaussian_cross(Xa: np.ndarray, Xb: np.ndarray, gamma: float) -> np.ndarray:
    """Cross-kernel matrix between query rows Xa and support rows Xb."""
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    Xa = np.atleast_2d(np.asarray(Xa, dtype=np.float64))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=np.float64))
    d2 = cdist(Xa, Xb, "sqeuclidean")
    return np.exp(-d2 / gamma**2)


def solve_spd(A: np.ndarray, b: np.ndarray) -> SpdSolveReport:
    """Solve A x = b by Cholesky with escalating diagonal jitter.

    On factorization failure (or a residual above 1e-8 relative), adds
    eps * trace(A)/n to the diagonal with eps stepping 1e-12 -> 1e-6 by
    factors of 10.  Raises IllConditionedError once the ladder is exhausted.
    """
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
