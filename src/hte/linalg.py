"""Dense SPD solves and Gaussian Gram matrices for the kernel cells.

Cells are kept small by the partitioning step (adaptive trees split every
separable cell of more than ``min_samples_split`` points), so a kernel
member is thousands of tiny systems whose cost is per-call overhead, not
flops.  Equal-size systems are therefore built and solved as stacks: a Gram
stack is ``gaussian_cross_stack(P, P, gamma)`` (or, for large cells,
``gaussian_gram_stack(P, gamma)``: one ``cdist`` per cell written into the
stack, then one ``exp``), and ``solve_spd_stack_unchecked`` solves it with
one in-place LAPACK ``posv`` call per system, on one transposed copy of the
stack, and residuals checked in one batched product.  The ``posv`` calls
are positional, over views made once for the whole stack, so each system
costs little more than SciPy's f2py wrapper itself; the residual check
reads the stacks themselves and copies the solved systems out only when
some system failed.  Only the systems
that this plain rung rejects climb the jitter ladder, as a sub-stack:
failed factorizations escalate a diagonal jitter proportional to the mean
eigenvalue before giving up.  ``solve_spd`` checks one system for symmetry
and finiteness and then solves it with the same stack solver, returning
its ``(x, jitter, escalations)``.
Prediction builds the cross kernels of its small cells in one flat pass,
``gaussian_pairs``, with the elementwise operations of
``gaussian_cross_stack``.

SciPy is imported on first use, so that loading the package (and a
prediction with per-cell means) does not pay for it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, IllConditionedError

_SYM_TOL = 1e-10
_RESIDUAL_TOL = 1e-8
_JITTER_START = 1e-12
_JITTER_STOP = 1e-6


def _cdist(XA, XB, metric, **kwargs):
    """``scipy.spatial.distance.cdist``; the first call imports it and rebinds
    this name to it, so the per-cell calls after it pay no import statement."""
    global _cdist
    from scipy.spatial.distance import cdist

    _cdist = cdist
    return cdist(XA, XB, metric, **kwargs)


def valid_gamma(gamma: float) -> bool:
    """True for a kernel width ``gamma > 0`` whose square is a positive finite float.

    The kernels divide squared distances, which lie in [0, inf], by
    ``gamma**2``; a square of 0 or inf would make 0 / 0 or inf / inf a NaN.
    """
    try:
        return gamma > 0 and 0 < float(gamma) ** 2 < math.inf
    except OverflowError:  # a Python float's power raises where numpy's gives inf
        return False


def _gamma_square(gamma: float) -> float:
    if not valid_gamma(gamma):
        raise ConfigError(f"gamma must be positive with a positive finite square, got {gamma!r}")
    return float(gamma) ** 2


def _exp_scaled(d2: np.ndarray, square: float) -> np.ndarray:
    """``exp(-d2 / square)`` computed in ``d2``: the same float operations,
    and so the same bits, without the two temporaries."""
    if square < 1.0:  # a quotient past the float range is -inf, and exp(-inf) = 0
        with np.errstate(over="ignore"):
            np.divide(d2, -square, out=d2)
    else:  # no quotient can overflow: skip errstate, which costs more than a small divide
        np.divide(d2, -square, out=d2)
    return np.exp(d2, out=d2)


def gaussian_gram(X: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix K[a, b] = exp(-||x_a - x_b||^2 / gamma^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))[None]
    return gaussian_cross_stack(X, X, gamma)[0]


def gaussian_cross_stack(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Cross kernels of a ``(g, q, d)`` and a ``(g, m, d)`` stack, shape ``(g, q, m)``.

    Squared distances sum the per-dimension squares in dimension order, as
    ``cdist``'s ``sqeuclidean`` does, so each slice equals
    ``gaussian_cross(A[i], B[i], gamma)`` bit for bit; rows ``1e200`` apart
    give inf, and a kernel value of 0, with numpy's overflow warning.
    """
    square = _gamma_square(gamma)
    diff = A[:, :, None, 0] - B[:, None, :, 0]
    d2 = np.multiply(diff, diff, out=diff)  # the first square, as 0.0 + x is x for x >= +0
    for k in range(1, A.shape[2]):
        diff = A[:, :, None, k] - B[:, None, :, k]
        d2 += np.multiply(diff, diff, out=diff)
    return _exp_scaled(d2, square)


def gaussian_gram_stack(P: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrices of a ``(g, m, d)`` stack, shape ``(g, m, m)``: each slice
    is ``gaussian_cross(P[i], P[i], gamma)`` bit for bit.

    ``cdist`` writes each cell's squared distances straight into its slice
    of one stack, and one ``exp`` covers the whole stack, so no per-cell
    Gram is made and copied.
    """
    square = _gamma_square(gamma)
    K = np.empty((len(P), P.shape[1], P.shape[1]))
    for cell, k in zip(P, K):
        _cdist(cell, cell, "sqeuclidean", out=k)
    return _exp_scaled(K, square)


def gaussian_pairs(A: np.ndarray, a_rows: np.ndarray, repeats: np.ndarray,
                   B: np.ndarray, b_rows: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel values of row pairs, flat: entry k pairs row ``b_rows[k]`` of B
    with a row of A, row ``a_rows[i]`` taking ``repeats[i]`` entries in turn.

    The squared distances are built one column at a time (a repeat of A's
    gathered column minus B's) and summed in dimension order, the
    elementwise operations of ``gaussian_cross_stack``, so each value is
    its ``gaussian_cross`` entry bit for bit; rows ``1e200`` apart give a
    kernel value of 0 without a warning.
    """
    def column_square(a, b):
        diff = np.repeat(a[a_rows], repeats)
        diff -= b[b_rows]
        return np.multiply(diff, diff, out=diff)

    square = _gamma_square(gamma)
    columns = zip(A.T, B.T)
    with np.errstate(over="ignore"):
        d2 = column_square(*next(columns))  # the first square, as 0.0 + x is x for x >= +0
        for a, b in columns:
            d2 += column_square(a, b)
        return _exp_scaled(d2, square)


def gaussian_cross(Xa: np.ndarray, Xb: np.ndarray, gamma: float) -> np.ndarray:
    """Cross-kernel matrix between query rows Xa and support rows Xb."""
    square = _gamma_square(gamma)
    Xa = np.atleast_2d(np.asarray(Xa, dtype=np.float64))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=np.float64))
    return _exp_scaled(_cdist(Xa, Xb, "sqeuclidean"), square)


def _cholesky_rung(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain Cholesky solves of a finite stack, no jitter; returns ``(X, solved)``.

    A system is solved when ``posv`` (``potrf`` then ``potrs`` in one call)
    succeeds and its residual is within ``_RESIDUAL_TOL`` of ``||b||``
    (``0 <= 0`` covers ``b = 0``).
    """
    from scipy.linalg.lapack import dposv

    # posv factors and solves in place, on float64 C-ordered copies: F[i].T is
    # A[i] in Fortran order, the layout LAPACK reads, so each call copies
    # nothing and reads the lower triangle of A[i] itself (a copy of A would
    # hand it A[i].T, whose lower triangle differs in the last bits where A is
    # symmetric only within 1e-10)
    F = np.array(np.swapaxes(A, 1, 2), dtype=np.float64, order="C")
    X = np.array(B, dtype=np.float64, order="C")
    # a solution that overflows here is only "not solved"
    with np.errstate(over="ignore", invalid="ignore"):
        # positional (a, b, lower, overwrite_a, overwrite_b): the f2py wrapper
        # parses keywords at ~0.3 us a call, over a third of a 4 x 4 system's cost
        info = [dposv(f, x, 1, 1, 1)[2] for f, x in zip(F.transpose(0, 2, 1), X)]
        solved = np.array(info) == 0
        # batched `A @ x` and `norm`: per slice, the same BLAS gemv and dot as one
        # system; over the systems posv solved, all of them in the common case,
        # where a basic slice copies nothing and an index array copies the stacks
        idx = slice(None) if solved.all() else np.flatnonzero(solved)
        r = np.matmul(A[idx], X[idx, :, None])[:, :, 0] - B[idx]
        residual = np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])
        b = B[idx]
        b_norm = np.sqrt(np.matmul(b[:, None, :], b[:, :, None])[:, 0, 0])
    solved[idx] = residual <= _RESIDUAL_TOL * b_norm
    return X, solved


def solve_spd_stack_unchecked(
    A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve every ``A[i] x = B[i]`` by Cholesky; returns ``(X, jitter_used, escalations)``.

    For a C-ordered float64 stack that its caller knows to be exactly
    symmetric and finite: nothing here scans for either.  The plain rung
    solves the whole stack.  The systems it rejects (not positive definite,
    or a residual above 1e-8 relative) climb the ladder together:
    eps * trace(A[i])/n is added to the diagonal, eps stepping 1e-12 -> 1e-6
    by factors of 10.
    Each system gets exactly the result it would get solved alone.  Raises
    ``IllConditionedError`` for a system that still fails at the top of the
    ladder.
    """
    X, solved = _cholesky_rung(A, B)
    jitter = np.zeros(len(B))
    escalations = np.zeros(len(B), dtype=np.int64)
    if solved.all():  # the common case pays for no trace and no ladder
        return X, jitter, escalations
    missed = np.flatnonzero(~solved)
    n = B.shape[1]
    eps = _JITTER_START
    with np.errstate(over="ignore", invalid="ignore"):  # a trace that overflows fails every step
        scale = np.array([np.trace(A[i]) for i in missed]) / n
        while len(missed):
            if eps > _JITTER_STOP:
                raise IllConditionedError(
                    f"Cholesky failed after jitter escalation to {jitter[missed[0]]:.3e}"
                )
            jitter[missed] = eps * scale
            escalations[missed] += 1
            regularized = A[missed] + jitter[missed, None, None] * np.eye(n)
            X_up, ok = _cholesky_rung(regularized, B[missed])
            X[missed[ok]] = X_up[ok]
            missed, scale = missed[~ok], scale[~ok]
            eps *= 10.0
    return X, jitter, escalations


def solve_spd(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Solve one SPD system A x = b; returns ``(x, jitter_used, escalations)``.

    The checked solver: ``ConfigError`` for a matrix not symmetric within
    1e-10, ``IllConditionedError`` for a system that is not finite."""
    A = np.asarray(A, dtype=np.float64, order="C")
    b = np.asarray(b, dtype=np.float64, order="C")
    if b.ndim != 1 or A.shape != b.shape * 2:
        raise ConfigError("need an (n, n) matrix and an (n,) right-hand side")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN: not asymmetric
        if np.abs(A - A.T).max(initial=0.0) > _SYM_TOL:
            raise ConfigError("matrix not symmetric within 1e-10")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise IllConditionedError("SPD system is not finite")
    X, jitter, escalations = solve_spd_stack_unchecked(A[None], b[None])
    return X[0], float(jitter[0]), int(escalations[0])
