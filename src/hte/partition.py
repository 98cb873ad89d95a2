"""Cell-assignment structures built from a transform or a rotation.

Two partition kinds:

* GridPartition — the unit integer grid of a histogram transform, restricted
  to the bin keys observed in training.  Queries landing in an unseen bin
  get no cell (the model layer supplies a fallback).  Lookups run on one
  int64 code per key row: its mixed-radix position inside the per-axis box
  of the training keys, so finding and matching keys is a 1-D sort and a
  1-D binary search.  A box of 2**63 codes or more (high d or wide key
  ranges) falls back to a structured row view, which sorts and compares
  the same way, lexicographically.
* AdaptiveTree — rotate the data, then repeatedly split a cell with more
  than ``min_leaf`` points on its largest-variance dimension at the median.
  The tree is full and stored breadth-first as two node arrays, from which
  children and leaf ids follow.  Trees cover the whole rotated space, so
  every query reaches a leaf.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .transform import HistogramTransform, bin_key

_NO_CELL = -1


def _box(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-axis bounds of key rows and the mixed-radix strides of that box.

    The last axis varies fastest, so codes sort like their key rows.  The
    strides are None when the box holds 2**63 codes or more.
    """
    cols = np.ascontiguousarray(keys.T)  # reducing contiguous columns is ~5x faster
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]  # Python ints: no wrap
    if math.prod(spans) >= 2**63:
        return lo, hi, None
    strides = [math.prod(spans[i + 1:]) for i in range(len(spans))]
    return lo, hi, np.array(strides, dtype=np.int64)


def _encode(keys: np.ndarray, lo: np.ndarray, strides: np.ndarray | None) -> np.ndarray:
    """One sortable item per key row; every row must lie inside the box."""
    if strides is None:  # wide box: each row as one structured item
        fields = [(f"k{i}", np.int64) for i in range(keys.shape[1])]
        return np.ascontiguousarray(keys).view(fields).ravel()
    return (keys - lo) @ strides


@dataclass
class GridPartition:
    """Grid cells as a key table: row c of ``keys`` is the bin key of cell c.

    Rows are in first-occurrence order over the training rows.  Construction
    derives the lookup index used by ``assign_many`` from the table alone:
    the per-axis box of the keys (the box of the training keys they came
    from), each row's code inside it (see ``_box``), and the codes in
    sorted order with their cell ids.  A table with a repeated row raises
    ``ConfigError``, since a key must name one cell.
    """

    transform: HistogramTransform
    keys: np.ndarray
    _lo: np.ndarray = field(init=False, repr=False)
    _hi: np.ndarray = field(init=False, repr=False)
    _strides: np.ndarray | None = field(init=False, repr=False)
    _sorted_codes: np.ndarray = field(init=False, repr=False)
    _sorted_cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.keys = np.ascontiguousarray(self.keys, dtype=np.int64)
        self._lo, self._hi, self._strides = _box(self.keys)
        codes = _encode(self.keys, self._lo, self._strides)
        self._sorted_cells = np.argsort(codes)
        self._sorted_codes = codes[self._sorted_cells]
        if (self._sorted_codes[1:] == self._sorted_codes[:-1]).any():
            raise ConfigError("grid key table repeats a key")

    @property
    def dim(self) -> int:
        return self.transform.dim

    @property
    def n_cells(self) -> int:
        return len(self.keys)


@dataclass
class AdaptiveTree:
    """Full binary space partition of the rotated input space.

    Nodes are in breadth-first order; ``split_dim[i] == -1`` marks node i as
    a leaf, and leaves are the cells, numbered in node order.  The k-th
    internal node routes coordinate < ``threshold`` to node 2k+1 and the
    rest to node 2k+2.  Construction derives the child and leaf-id arrays
    and raises ``ConfigError`` unless the arrays describe such a tree.
    """

    rotation: np.ndarray
    split_dim: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    _child: np.ndarray = field(init=False, repr=False)
    _leaf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.split_dim
        if dims.dtype != np.int64 or dims.ndim != 1:
            raise ConfigError(f"tree split_dim must be an int64 vector, "
                              f"got {dims.dtype} of shape {dims.shape}")
        if self.threshold.shape != dims.shape:
            raise ConfigError(f"tree thresholds of shape {self.threshold.shape} "
                              f"for {len(dims)} nodes")
        if not ((dims >= -1) & (dims < self.dim)).all():
            raise ConfigError(f"tree split_dim outside [-1, {self.dim})")
        internal = dims >= 0
        if len(dims) != 2 * internal.sum() + 1:
            raise ConfigError(f"{len(dims)} tree nodes with {internal.sum()} "
                              f"internal ones is not a full binary tree")
        self._child = 2 * np.cumsum(internal) - 1  # first child, at internal nodes
        self._leaf = np.cumsum(~internal) - 1  # cell id, at leaves
        # a child after its parent makes every walk step move forward
        if (self._child <= np.arange(len(dims)))[internal].any():
            raise ConfigError("a tree node is at or after its first child")

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]

    @property
    def n_cells(self) -> int:
        return (len(self.split_dim) + 1) // 2


def build_grid(
    transform: HistogramTransform, X: np.ndarray
) -> tuple[GridPartition, np.ndarray]:
    """Assign every training row to a grid cell.

    Returns the partition plus the per-row cell ids.  Ids are dense,
    0..n_cells-1, numbered by first occurrence over the row index.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ConfigError("training matrix must be 2-d with at least one row")
    keys = bin_key(transform, X)
    lo, _, strides = _box(keys)
    _, first, inverse = np.unique(
        _encode(keys, lo, strides), return_index=True, return_inverse=True
    )
    order = np.argsort(first)  # first indices are distinct: any sort is stable
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return GridPartition(transform, keys[first[order]]), rank[inverse]


def _rotate(rotation: np.ndarray, X: np.ndarray) -> np.ndarray:
    if X.ndim == 1:
        return np.einsum("ij,j->i", rotation, X)
    return np.einsum("ij,nj->ni", rotation, X)


def build_adaptive(rotation: np.ndarray, X: np.ndarray, min_leaf: int) -> AdaptiveTree:
    """Grow an adaptive tree over the rotated rows of X.

    Every cell with more than ``min_leaf`` points is split on the dimension
    of largest sample variance at the median of that dimension (midpoint of
    the two middle order statistics for even counts; the right child takes
    values >= threshold).  A cell whose median split would leave one side
    empty — in particular one whose points are all identical — becomes a
    terminal leaf regardless of size.
    """
    if min_leaf < 1:
        raise ConfigError("min_leaf must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ConfigError("training matrix must be 2-d with at least one row")
    rotation = np.asarray(rotation, dtype=np.float64)
    Z = _rotate(rotation, X)

    split_dim: list[int] = []
    threshold: list[float] = []
    # first in, first out: nodes are numbered breadth-first as they leave
    # the queue, so a split node's children are the next two numbers free
    queue = deque([np.arange(len(X), dtype=np.int64)])
    while queue:
        indices = queue.popleft()
        split_dim.append(_NO_CELL)
        threshold.append(np.nan)
        if len(indices) > min_leaf:
            block = Z[indices]
            variances = block.var(axis=0)
            dim = int(np.argmax(variances))  # ties resolve to the lowest index
            col = block[:, dim]
            cut = float(np.median(col))
            go_left = col < cut
            if variances[dim] > 0.0 and go_left.any() and not go_left.all():
                split_dim[-1], threshold[-1] = dim, cut
                queue.append(indices[go_left])
                queue.append(indices[~go_left])
            # otherwise the cell is degenerate: its median split cannot
            # reduce it, so it stays a terminal leaf whatever its size

    return AdaptiveTree(
        rotation=rotation,
        split_dim=np.array(split_dim, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
    )


def assign(partition: GridPartition | AdaptiveTree, x: np.ndarray) -> int | None:
    """Cell id of one point, or None for a grid key unseen in training."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (partition.dim,):
        raise ConfigError(f"expected a point of dimension {partition.dim}")
    cell = int(assign_many(partition, x[None, :])[0])
    return None if cell == _NO_CELL else cell


def assign_many(partition: GridPartition | AdaptiveTree, X: np.ndarray) -> np.ndarray:
    """Vectorized cell ids for a batch of points; -1 marks unseen grid keys."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != partition.dim:
        raise ConfigError(f"expected points of dimension {partition.dim}")
    if isinstance(partition, GridPartition):
        keys = bin_key(partition.transform, X)
        # a key outside the training box is a miss; only in-box keys are
        # encoded, since the code of an out-of-box key can wrap
        inside = ((keys >= partition._lo) & (keys <= partition._hi)).all(axis=1)
        codes = _encode(keys[inside], partition._lo, partition._strides)
        table = partition._sorted_codes
        pos = np.minimum(np.searchsorted(table, codes), len(table) - 1)
        cells = np.full(len(X), _NO_CELL, dtype=np.int64)
        cells[inside] = np.where(table[pos] == codes, partition._sorted_cells[pos], _NO_CELL)
        return cells
    Z = _rotate(partition.rotation, X)
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        idx = np.flatnonzero(partition.split_dim[node] >= 0)
        if len(idx) == 0:
            break
        sub = node[idx]
        coords = Z[idx, partition.split_dim[sub]]
        goes_left = coords < partition.threshold[sub]
        node[idx] = partition._child[sub] + ~goes_left
    return partition._leaf[node]
