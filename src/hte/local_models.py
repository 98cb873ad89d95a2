"""Per-cell regressors: constants (cell means) and clipped Gaussian kernel ridge.

Each partition cell is fit independently.  Constant cells store the
arithmetic mean of their targets; kernel cells solve the regularized system
``(K + n * lambda2 * I) alpha = y`` where ``n`` is the global training size
(the squared loss is averaged over all samples while each cell carries its
own norm penalty, so the per-cell normal equations scale the ridge by the
global count, not the cell count).  Predictions are clipped to
``[-clip_bound, clip_bound]``, which can never increase squared-error risk
when the targets themselves lie in that interval.

Kernel cells are fit in batches: ``fit_kernel_cells`` solves each group of
equal-size cells as stacks of at most ``_STACK_ENTRIES`` Gram entries, so
memory stays bounded however many cells share a size, and solves each
stack with one ``solve_spd_stack``.  Every cell gets the solution it would
get fitted alone.  Prediction batches the same way, by (queries, support
size) shape, and every cell gets the values it would get predicted alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import gaussian_cross, gaussian_cross_stack, solve_spd_stack
from .linalg import gaussian_gram, solve_spd  # noqa: F401  (benchmarks/perf.py traces them here)

NO_CELL = -1

# Most Gram-matrix entries built at once (8 MiB of float64).  A size group
# with more is fit in chunks; a single larger cell is one chunk of its own.
_STACK_ENTRIES = 2**20

# Largest q * m cross kernel (q queries against m support rows) of a cell
# predicted in a stack with the other cells of its (q, m) shape.  Larger
# cells, and shapes no other cell shares, call ``gaussian_cross`` (``cdist``)
# one by one, which beats numpy's per-dimension loop there.
_STACK_CELL_ENTRIES = 1024


@dataclass
class ConstantModel:
    """One constant per cell, plus a fallback for cells unseen in training."""

    values: np.ndarray
    fallback: float = 0.0

    @property
    def n_cells(self) -> int:
        return len(self.values)

    def predict(self, cells: np.ndarray, X: np.ndarray | None = None) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.int64)
        out = np.full(len(cells), self.fallback, dtype=np.float64)
        seen = cells != NO_CELL
        out[seen] = self.values[cells[seen]]
        return out


@dataclass
class KernelCellModel:
    """Per-cell Gaussian kernel ridge regressors stored as flat arrays.

    Cell c's expansion is ``support[offsets[c]:offsets[c + 1]]`` with the
    matching slice of ``alpha``.  Cells below the small-cell threshold skip
    the kernel solve (a one- or two-point expansion is a shrunk constant
    anyway), so their range is empty and they predict ``means[c]``, the
    mean of their training targets; ``means`` is 0 at kernel cells.
    """

    offsets: np.ndarray
    support: np.ndarray
    alpha: np.ndarray
    means: np.ndarray
    gamma: float
    clip_bound: float
    fallback: float = 0.0

    @property
    def n_cells(self) -> int:
        return len(self.means)

    def predict(
        self, cells: np.ndarray, X: np.ndarray, clipped: bool = True
    ) -> np.ndarray:
        """Evaluate the local regressors; ``clipped=False`` exposes raw values.

        Queried kernel cells of one (q queries, m support rows) shape with
        ``q * m <= _STACK_CELL_ENTRIES`` are evaluated together, as stacks of
        at most ``_STACK_ENTRIES`` kernel entries; the other cells one by one.
        Either way each cell's values are those of
        ``gaussian_cross(X[queries], support, gamma) @ alpha`` bit for bit.
        """
        cells = np.asarray(cells, dtype=np.int64)
        X = np.asarray(X, dtype=np.float64)
        out = np.full(len(cells), self.fallback, dtype=np.float64)
        seen = np.flatnonzero(cells != NO_CELL)
        out[seen] = self.means[cells[seen]]
        in_kernel = self.offsets[cells[seen] + 1] > self.offsets[cells[seen]]
        rows = seen[in_kernel]
        rows = rows[np.argsort(cells[rows], kind="stable")]
        # per queried kernel cell: its first position in rows, its query
        # count q, and the start lo and size m of its expansion
        first = np.flatnonzero(np.diff(cells[rows], prepend=NO_CELL))
        q = np.diff(first, append=len(rows))
        queried = cells[rows[first]]
        lo = self.offsets[queried]
        m = self.offsets[queried + 1] - lo
        shape_key = q * (m.max(initial=0) + 1) + m
        by_shape = np.argsort(shape_key, kind="stable")
        bounds = np.flatnonzero(np.diff(shape_key[by_shape])) + 1
        starts, ends = np.r_[0, bounds], np.r_[bounds, len(by_shape)]
        stacked = ends - starts > 1
        stacked[stacked] = (q * m)[by_shape[starts[stacked]]] <= _STACK_CELL_ENTRIES
        for start, end in zip(starts[stacked].tolist(), ends[stacked].tolist()):
            group = by_shape[start:end]
            n_q, n_m = int(q[group[0]]), int(m[group[0]])
            step = max(1, _STACK_ENTRIES // (n_q * n_m))
            for at in range(0, len(group), step):
                part = group[at : at + step]
                query = rows[first[part, None] + np.arange(n_q)]
                expansion = lo[part, None] + np.arange(n_m)
                K = gaussian_cross_stack(X[query], self.support[expansion], self.gamma)
                # per slice, the same BLAS gemv as one cell's ``K @ alpha``
                out[query] = np.matmul(K, self.alpha[expansion][:, :, None])[:, :, 0]
        alone = by_shape[np.repeat(~stacked, ends - starts)]
        for at, n_q, base, n_m in zip(first[alone].tolist(), q[alone].tolist(),
                                      lo[alone].tolist(), m[alone].tolist()):
            query = rows[at : at + n_q]
            k = gaussian_cross(X[query], self.support[base : base + n_m], self.gamma)
            out[query] = k @ self.alpha[base : base + n_m]
        if clipped:
            np.clip(out, -self.clip_bound, self.clip_bound, out=out)
        return out


def fit_constant(
    cell_ids: np.ndarray,
    y: np.ndarray,
    n_cells: int,
    fallback: float = 0.0,
    clip_bound: float | None = None,
) -> ConstantModel:
    """Cell means over the training targets.

    Every cell id in 0..n_cells-1 must occur at least once.  When a clip
    bound is given the stored constants and the fallback are clamped to it.
    """
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    counts = np.bincount(cell_ids, minlength=n_cells)
    if (counts == 0).any():
        raise ConfigError("every cell must contain at least one sample")
    sums = np.bincount(cell_ids, weights=y, minlength=n_cells)
    values = sums / counts
    if clip_bound is not None:
        values = np.clip(values, -clip_bound, clip_bound)
        fallback = float(np.clip(fallback, -clip_bound, clip_bound))
    return ConstantModel(values=values, fallback=fallback)


def fit_kernel_cells(
    support: np.ndarray, y_support: np.ndarray, sizes: np.ndarray,
    gamma: float, lambda2: float, n_global: int,
) -> np.ndarray:
    """Solve every kernel cell's ridge system; returns alpha in row order.

    The cells are consecutive runs of ``sizes[c]`` rows of ``support`` and
    ``y_support``.  Cells of equal size m are stacked, at most
    ``_STACK_ENTRIES`` Gram entries (and at least one cell) at a time: a
    ``(g, m, m)`` Gram stack, ``n_global * lambda2`` added to each diagonal,
    one ``solve_spd_stack``.  It solves each system as if alone, so a cell's
    result, jitter and errors are those of ``fit_kernel_cell`` on that cell.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if (sizes < 1).any() or sizes.sum() != len(support) or len(support) != len(y_support):
        raise ConfigError("cell sizes must be positive and cover the support rows")
    starts = np.cumsum(sizes) - sizes
    alpha = np.empty(len(y_support), dtype=np.float64)
    by_size = np.argsort(sizes, kind="stable")
    for group in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        if len(group) == 0:  # no kernel cells at all
            continue
        m = int(sizes[group[0]])
        step = max(1, _STACK_ENTRIES // (m * m))
        for first in range(0, len(group), step):
            rows = starts[group[first : first + step], None] + np.arange(m)
            P = support[rows]
            K = gaussian_cross_stack(P, P, gamma)
            K.reshape(len(rows), m * m)[:, :: m + 1] += n_global * lambda2
            alpha[rows] = solve_spd_stack(K, y_support[rows])[0]
    return alpha


def fit_kernel_cell(
    X_cell: np.ndarray,
    y_cell: np.ndarray,
    gamma: float,
    lambda2: float,
    n_global: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve one cell's kernel ridge system; returns (support, alpha).

    alpha solves (K + n_global * lambda2 * I) alpha = y_cell with K the
    Gaussian Gram matrix of the cell's points, the representer-theorem
    minimizer of lambda2 * ||f||^2 + (1/n_global) * sum of squared errors.
    It is ``fit_kernel_cells`` on a one-cell layout.
    """
    X_cell = np.atleast_2d(np.asarray(X_cell, dtype=np.float64))
    y_cell = np.asarray(y_cell, dtype=np.float64)
    if len(X_cell) != len(y_cell) or len(y_cell) == 0:
        raise ConfigError("cell data must be non-empty and consistent")
    if gamma <= 0 or lambda2 <= 0:
        raise ConfigError("gamma and lambda2 must be positive")
    if n_global < len(y_cell):
        raise ConfigError("global sample count smaller than the cell count")
    alpha = fit_kernel_cells(X_cell, y_cell, [len(y_cell)], gamma, lambda2, n_global)
    return X_cell.copy(), alpha
