"""Per-cell regressors: cell means and clipped Gaussian kernel ridge.

``KernelCellModel`` is the one per-cell regressor.  Each partition cell is
fit independently, either as a mean cell or as a kernel cell.  A mean cell
predicts the mean of its training targets (``fit_constant``); an nht model
is one whose every cell is a mean cell.  A kernel cell solves the
regularized system ``(K + n * lambda2 * I) alpha = y`` where ``n`` is the
global training size (the squared loss is averaged over all samples while
each cell carries its own norm penalty, so the per-cell normal equations
scale the ridge by the global count, not the cell count).  The model
stores raw values; only predictions are clipped to ``[-clip_bound,
clip_bound]``, which can never increase squared-error risk when the
targets themselves lie in that interval.

Kernel cells are fit in batches: ``fit_kernel_cells`` solves each group of
equal-size cells as stacks of at most ``_STACK_ENTRIES`` Gram entries, so
memory stays bounded however many cells share a size, and solves each
stack with one LAPACK ``posv`` call per cell.  A size group whose Grams
``_builds_alone`` routes to ``cdist`` has them written straight into its
preallocated stack, one ``cdist`` per cell and one ``exp`` per stack
(``gaussian_gram_stack``); smaller Grams are built together, one dimension
at a time (``gaussian_cross_stack``).  Every cell gets the solution
it would get fitted alone.  Prediction sorts its query rows by cell, then
builds the kernels of all queried small cells in one flat pass (chunks of
at most ``_FLAT_ENTRIES`` entries), then makes one stacked matrix-vector
product per (queries, support size) shape; every cell gets the values it
would get predicted alone.  Rows, cells and shapes are sorted on
``narrow_keys``, which numpy sorts faster, in the same order.  Fit and
predict share one rule, ``_builds_alone``, for the cells whose kernel is
built by ``cdist`` on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, IllConditionedError
from .linalg import gaussian_cross, gaussian_cross_stack, gaussian_gram_stack, gaussian_pairs
from .linalg import one_blas_thread, solve_spd_stack_unchecked
from .linalg import gaussian_gram, solve_spd  # noqa: F401  (benchmarks/perf.py traces them here)

NO_CELL = -1

# Most Gram-matrix entries built at once (8 MiB of float64).  A size group
# with more is fit in chunks; a single larger cell is one chunk of its own.
_STACK_ENTRIES = 2**20

# Most kernel entries of prediction's flat pass built at once (256 KiB of
# float64).  Each of the pass's temporaries has this many entries, so they
# stay small enough for the allocator to reuse from call to call instead
# of mapping and faulting in fresh pages.
_FLAT_ENTRIES = 2**15

# Largest q * m kernel (q rows against m support rows; q = m for a Gram) of
# a cell built in a stack with the other cells of its shape.
_STACK_CELL_ENTRIES = 1024


def _builds_alone(q, m):
    """True where a cell's (q, m) kernel is built by ``gaussian_cross``
    (``cdist``) on its own, which beats numpy's per-dimension loops there;
    the one routing rule of fit (q = m) and of predict, on ints or arrays."""
    return q * m > _STACK_CELL_ENTRIES


@dataclass
class KernelCellModel:
    """Per-cell regressors stored as flat arrays: mean cells and kernel cells.

    Cell c's expansion is ``support[offsets[c]:offsets[c + 1]]`` with the
    matching slice of ``alpha``.  ``support`` is ``rows[ids]``, gathered
    on first use, so a load that only inspects or re-saves skips it.
    ``ids`` are the kernel cells' training rows in ``rows``, a matrix that
    every kht member of one ensemble shares (the standardized training
    features after training, the file's shared block after loading), so a
    model file stores each row once.  Cells
    below the small-cell threshold skip the kernel solve (a one- or
    two-point expansion is a shrunk constant anyway), so their range is
    empty and they predict ``means[c]``, the mean of their training
    targets; ``means`` is 0 at kernel cells.  An nht model has no kernel
    cells: ``offsets`` is all 0, ``rows``, ``ids`` and ``alpha`` are empty,
    and ``means`` holds every cell's value.
    """

    offsets: np.ndarray
    rows: np.ndarray
    ids: np.ndarray
    alpha: np.ndarray
    means: np.ndarray
    gamma: float
    clip_bound: float
    fallback: float = 0.0

    @cached_property
    def support(self) -> np.ndarray:  # each cell's rows together, for prediction
        return self.rows.take(self.ids, axis=0)

    @property
    def n_cells(self) -> int:
        return len(self.means)

    def predict(
        self, cells: np.ndarray, X: np.ndarray, clipped: bool = True
    ) -> np.ndarray:
        """Evaluate the local regressors; ``clipped=False`` exposes raw values.

        Mean cells and unseen rows (``NO_CELL``) are one gather of ``means``
        and one fallback fill; a model without kernel cells does nothing
        else before the clip.  A queried kernel cell of q queries and m
        support rows that ``_builds_alone`` picks is evaluated on its own.
        The others, ordered by (q, m) shape, are evaluated together in
        chunks of at most ``_FLAT_ENTRIES`` kernel entries: one flat pass
        (``gaussian_pairs``) builds every entry of the chunk, and each shape
        group is a ``(g, q, m)`` view of it times a ``(g, m, 1)`` stack of
        coefficients.  Either way each cell's values are those of
        ``gaussian_cross(X[queries], support, gamma) @ alpha`` bit for bit.
        """
        cells = np.asarray(cells, dtype=np.int64)
        out = self.means.take(cells)  # NO_CELL (-1) reads the last mean until the fill
        np.copyto(out, self.fallback, where=cells == NO_CELL)
        if len(self.alpha):
            self._predict_kernel_cells(out, cells, np.asarray(X, dtype=np.float64))
        if clipped:  # the one clip: fitting stores raw means and fallback
            np.clip(out, -self.clip_bound, self.clip_bound, out=out)
        return out

    def _predict_kernel_cells(self, out, cells, X) -> None:
        """Write the raw values of the queried kernel cells' rows into ``out``."""
        # a kernel cell's expansion is not empty; NO_CELL reads offsets[0] > offsets[-1], false
        rows = np.flatnonzero(self.offsets[cells + 1] > self.offsets[cells])
        rows = rows[np.argsort(narrow_keys(cells[rows], self.n_cells - 1), kind="stable")]
        # per queried kernel cell: its first position in rows, its query
        # count q, and the start lo and size m of its expansion
        first, q = _runs(cells[rows])
        queried = cells[rows[first]]
        lo = self.offsets[queried]
        m = self.offsets[queried + 1] - lo
        alone = _builds_alone(q, m)
        for at, n_q, base, n_m in zip(first[alone].tolist(), q[alone].tolist(),
                                      lo[alone].tolist(), m[alone].tolist()):
            query = rows[at : at + n_q]
            k = gaussian_cross(X[query], self.support[base : base + n_m], self.gamma)
            out[query] = k @ self.alpha[base : base + n_m]
        # the other cells in shape order, in chunks of at most _FLAT_ENTRIES
        # kernel entries (and at least one cell)
        flat = np.flatnonzero(~alone)
        shape = _shape_key(q[flat], m[flat])
        flat = flat[np.argsort(narrow_keys(shape, shape.max(initial=0)), kind="stable")]
        entries = q[flat] * m[flat]
        ends = np.cumsum(entries)
        at = 0
        while at < len(flat):
            limit = ends[at] - entries[at] + _FLAT_ENTRIES
            stop = max(at + 1, int(np.searchsorted(ends, limit, side="right")))
            part = flat[at:stop]
            self._predict_flat(out, rows[_spans(first[part], q[part])], X,
                               q[part], lo[part], m[part])
            at = stop

    def _predict_flat(self, out, query, X, q, lo, m) -> None:
        """Write the raw values of the cells given in shape order into ``out``
        at their query rows: every kernel in one flat pass, then one gemv per
        shape, as ``gaussian_cross(X[rows], support, gamma) @ alpha`` per cell."""
        m_row = np.repeat(m, q)
        expansion = _spans(np.repeat(lo, q), m_row)
        K = gaussian_pairs(X, query, m_row, self.support, expansion, self.gamma)
        coef = self.alpha[_spans(lo, m)]
        values = np.empty(len(query))
        # per shape group: its cell count g, its shape (q, m), and where its
        # rows, kernel entries and coefficients end
        first, g = _runs(_shape_key(q, m))
        q, m = q[first], m[first]
        groups = zip(g.tolist(), q.tolist(), m.tolist(), np.cumsum(g * q).tolist(),
                     np.cumsum(g * q * m).tolist(), np.cumsum(g * m).tolist())
        row, entry, c = 0, 0, 0
        for n_g, n_q, n_m, row_end, entry_end, c_end in groups:
            # per slice, the same BLAS gemv as one cell's ``K @ alpha``
            np.matmul(K[entry:entry_end].reshape(n_g, n_q, n_m),
                      coef[c:c_end].reshape(n_g, n_m, 1),
                      out=values[row:row_end].reshape(n_g, n_q, 1))
            row, entry, c = row_end, entry_end, c_end
        out[query] = values


def _runs(keys):
    """The start and length of each run of equal consecutive ``keys``."""
    edge = np.empty(len(keys) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    at = np.flatnonzero(edge)  # the run starts, then len(keys)
    return at[:-1], at[1:] - at[:-1]


def _shape_key(q, m):
    """One int per (q, m) shape that sorts like the pairs."""
    return q * (m.max(initial=0) + 1) + m


def narrow_keys(keys: np.ndarray, top: int) -> np.ndarray:
    """Int ``keys`` in ``0..top`` on the narrowest unsigned dtype that holds
    ``top``, to sort on.  numpy's stable sort of 8- and 16-bit keys is a
    radix sort, and a stable sort's permutation does not depend on the
    algorithm, so the stable argsort of the narrowed keys is the keys' own."""
    return keys.astype(np.min_scalar_type(top))


def _spans(starts, sizes):
    """The concatenated ranges ``starts[i] : starts[i] + sizes[i]`` (at least one)."""
    at = np.cumsum(sizes) - sizes
    return np.repeat(starts - at, sizes) + np.arange(at[-1] + sizes[-1])


ConstantModel = KernelCellModel  # the same class (benchmarks/perf.py traces it here)


def fit_constant(cell_ids: np.ndarray, y: np.ndarray, n_cells: int) -> np.ndarray:
    """Cell means over the training targets.

    The one cell-mean rule: each cell's targets are added in row order (a
    ``bincount``) and divided by its count, with no clip.  Every cell id in
    0..n_cells-1 must occur at least once.
    """
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    counts = np.bincount(cell_ids, minlength=n_cells)
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ConfigError(f"every cell must contain at least one sample; cell {empty} has none")
    return np.bincount(cell_ids, weights=y, minlength=n_cells) / counts


def fit_kernel_cells(
    support: np.ndarray, y_support: np.ndarray, sizes: np.ndarray,
    gamma: float, lambda2: float, n_global: int,
) -> np.ndarray:
    """Solve every kernel cell's ridge system; returns alpha in row order.

    The cells are consecutive runs of ``sizes[c]`` rows of ``support`` and
    ``y_support``.  Cells of equal size m are stacked, at most
    ``_STACK_ENTRIES`` Gram entries (and at least one cell) at a time: a
    ``(g, m, m)`` Gram stack, ``n_global * lambda2`` added to each diagonal,
    one solve.  It solves each system as if alone, so a cell's result,
    jitter and errors are those of ``fit_kernel_cell`` on that cell.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if (sizes < 1).any() or sizes.sum() != len(support) or len(support) != len(y_support):
        raise ConfigError("cell sizes must be positive and cover the support rows")
    y_support = np.asarray(y_support, dtype=np.float64)
    # The Gram of finite rows is exactly symmetric, as (a - b)**2 == (b - a)**2,
    # and with a valid gamma its entries lie in [0, 1].  So finite rows, targets
    # and ridge make every system below symmetric and finite: this O(n * d)
    # check stands in for solve_spd's O(m * m) scans of each system.
    ridge = n_global * lambda2
    if not (math.isfinite(ridge) and np.isfinite(support).all() and np.isfinite(y_support).all()):
        raise IllConditionedError("kernel cell rows, targets or ridge not finite")
    starts = np.cumsum(sizes) - sizes
    alpha = np.empty(len(y_support), dtype=np.float64)
    by_size = np.argsort(narrow_keys(sizes, sizes.max(initial=0)), kind="stable")
    at, n = _runs(sizes[by_size])  # per size: where its cells start in by_size, and how many
    with one_blas_thread:
        for start, n_group in zip(at.tolist(), n.tolist()):
            group = by_size[start : start + n_group]
            m = int(sizes[group[0]])
            step = max(1, _STACK_ENTRIES // (m * m))
            for first in range(0, len(group), step):
                rows = starts[group[first : first + step], None] + np.arange(m)
                P = support[rows]
                if _builds_alone(m, m):
                    K = gaussian_gram_stack(P, gamma)
                else:
                    K = gaussian_cross_stack(P, P, gamma)
                K.reshape(len(rows), m * m)[:, :: m + 1] += ridge
                alpha[rows] = solve_spd_stack_unchecked(K, y_support[rows])[0]
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
