"""Cell-assignment structures built from a transform or a rotation.

Two partition kinds:

* GridPartition — the unit integer grid of a histogram transform, restricted
  to the bin keys observed in training.  Queries landing in an unseen bin
  get no cell (the model layer supplies a fallback).
* AdaptiveTree — rotate the data, then recursively split the cell with the
  largest-variance dimension at its median until every cell holds at most
  ``min_leaf`` points.  Trees cover the whole rotated space, so every query
  reaches a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .transform import HistogramTransform, bin_key

_NO_CELL = -1


def _pack(keys: np.ndarray) -> np.ndarray:
    """View each int64 key row as one structured item, sortable and comparable."""
    fields = [(f"k{i}", np.int64) for i in range(keys.shape[1])]
    return np.ascontiguousarray(keys).view(fields).ravel()


@dataclass
class GridPartition:
    """Grid cells as a key table: row c of ``keys`` is the bin key of cell c.

    Rows are in first-occurrence order over the training rows.  The sorted
    lookup index used by ``assign_many`` is derived once, at construction.
    """

    transform: HistogramTransform
    keys: np.ndarray
    _sorted_keys: np.ndarray = field(init=False, repr=False)
    _sorted_cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.keys = np.ascontiguousarray(self.keys, dtype=np.int64)
        packed = _pack(self.keys)
        self._sorted_cells = np.argsort(packed)
        self._sorted_keys = packed[self._sorted_cells]

    @property
    def dim(self) -> int:
        return self.transform.dim

    @property
    def n_cells(self) -> int:
        return len(self.keys)


@dataclass
class AdaptiveTree:
    """Binary space partition of the rotated input space.

    Nodes are stored in preorder; ``split_dim[i] == -1`` marks node i as a
    leaf, in which case ``leaf_id[i]`` is its dense cell id.  Internal nodes
    route coordinate < threshold to ``left`` and >= threshold to ``right``.
    """

    rotation: np.ndarray
    split_dim: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    leaf_id: np.ndarray = field(repr=False)
    min_leaf: int
    n_cells: int

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]


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
    uniq, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return GridPartition(transform, uniq[order]), rank[inverse.ravel()]


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
    left: list[int] = []
    right: list[int] = []
    leaf_id: list[int] = []
    n_leaves = 0

    # explicit DFS stack; pushing the right child last keeps node numbering
    # in preorder (node, left subtree, right subtree)
    all_rows = np.arange(len(X), dtype=np.int64)
    stack: list[tuple[np.ndarray, int, bool]] = [(all_rows, _NO_CELL, False)]
    while stack:
        indices, parent, is_right = stack.pop()
        node = len(split_dim)
        split_dim.append(_NO_CELL)
        threshold.append(np.nan)
        left.append(_NO_CELL)
        right.append(_NO_CELL)
        leaf_id.append(_NO_CELL)
        if parent != _NO_CELL:
            if is_right:
                right[parent] = node
            else:
                left[parent] = node
        made_split = False
        if len(indices) > min_leaf:
            block = Z[indices]
            variances = block.var(axis=0)
            dim = int(np.argmax(variances))  # ties resolve to the lowest index
            col = block[:, dim]
            cut = float(np.median(col))
            go_left = col < cut
            if variances[dim] > 0.0 and go_left.any() and not go_left.all():
                split_dim[node] = dim
                threshold[node] = cut
                stack.append((indices[~go_left], node, True))
                stack.append((indices[go_left], node, False))
                made_split = True
            # otherwise the cell is degenerate: its median split cannot
            # reduce it, so it stays a terminal leaf whatever its size
        if not made_split:
            leaf_id[node] = n_leaves
            n_leaves += 1

    return AdaptiveTree(
        rotation=rotation,
        split_dim=np.array(split_dim, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        leaf_id=np.array(leaf_id, dtype=np.int64),
        min_leaf=min_leaf,
        n_cells=n_leaves,
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
        table = partition._sorted_keys
        queries = _pack(bin_key(partition.transform, X))
        pos = np.searchsorted(table, queries)
        clipped = np.minimum(pos, len(table) - 1)
        hit = (pos < len(table)) & (table[clipped] == queries)
        return np.where(hit, partition._sorted_cells[clipped], _NO_CELL)
    Z = _rotate(partition.rotation, X)
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        dims = partition.split_dim[node]
        active = dims >= 0
        if not active.any():
            break
        idx = np.flatnonzero(active)
        sub = node[idx]
        coords = Z[idx, partition.split_dim[sub]]
        goes_left = coords < partition.threshold[sub]
        node[idx] = np.where(goes_left, partition.left[sub], partition.right[sub])
    return partition.leaf_id[node]
