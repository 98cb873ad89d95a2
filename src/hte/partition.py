"""Cell-assignment structures built from a transform or a rotation.

Two partition kinds:

* GridPartition — the unit integer grid of a histogram transform, restricted
  to the bin keys observed in training.  Queries landing in an unseen bin
  get no cell (the model layer supplies a fallback).  Lookups run on one
  int64 code per key row: its mixed-radix position inside the per-axis box
  of the training keys, widened by one guard layer on each side, summed
  column by column.  Training encodes each row's key once and numbers the
  rows from those codes.  A query key is clipped into that box, so a key
  outside it lands on a guard layer, where no cell is.  A box of at most a
  few codes per key row has a direct-address table, code to cell id, so a
  lookup is one index.  A larger box keeps the codes sorted and looks them
  up by binary search; a box of 2**63 codes or more (high d or wide key
  ranges) falls back to a structured row view, which sorts and compares
  the same way, lexicographically.
* AdaptiveTree — rotate the data, then repeatedly split a cell with more
  than ``min_leaf`` points on its largest-variance dimension at the median.
  The tree grows one breadth-first level at a time on a column-major copy
  of the rotated rows: a level's nodes are consecutive spans of one
  row-index array, and its splittable nodes of one size are split together
  as one block, with the same bits as splitting each node alone.
  The tree is full and stored breadth-first as two node arrays, from which
  children, leaf ids and the number of full levels above the shallowest
  leaf follow.  Trees cover the whole rotated space, so every query reaches
  a leaf.  A batch walks the tree one level at a time: through the full
  levels every row steps with no leaf test, then only the rows not yet at a
  leaf step on.  Each step reads a row's split coordinate from the raveled
  rotated batch by one flat index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .transform import _KEY_LIMIT, HistogramTransform, bin_key, check_finite_image

_NO_CELL = -1


def _table_fits(size: int, rows: int) -> bool:
    """Whether a box of ``size`` codes gets a direct-address table for
    ``rows`` key rows: at most 8 int64 entries a row (64 bytes), plus 4096
    so that a small grid always gets one."""
    return size <= 8 * rows + 4096


def _box(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int]:
    """Per-axis bounds of key rows, widened by one guard layer on each side,
    the mixed-radix strides of that box and its number of codes.

    The last axis varies fastest, so codes sort like their key rows.  The
    strides are None when the box holds 2**63 codes or more.  A key outside
    bin_key's range [-2**62, 2**62] raises ``ConfigError``: the guard layers
    of such a key could wrap.
    """
    cols = np.ascontiguousarray(keys.T)  # reducing contiguous columns is ~5x faster
    lo, hi = cols.min(axis=1).tolist(), cols.max(axis=1).tolist()  # Python ints: no wrap
    if min(lo) < -_KEY_LIMIT or max(hi) > _KEY_LIMIT:
        raise ConfigError("grid key outside [-2**62, 2**62]")
    spans = [h - l + 3 for l, h in zip(lo, hi)]  # with a guard layer either side
    size = math.prod(spans)
    strides = None
    if size < 2**63:
        strides = np.array([math.prod(spans[i + 1:]) for i in range(len(spans))],
                           dtype=np.int64)
    lo, hi = np.array(lo, dtype=np.int64) - 1, np.array(hi, dtype=np.int64) + 1
    return lo, hi, strides, size


def _encode(keys: np.ndarray, lo: np.ndarray, strides: np.ndarray | None) -> np.ndarray:
    """One sortable item per key row; every row must lie inside the box."""
    if strides is None:  # wide box: each row as one structured item
        fields = [(f"k{i}", np.int64) for i in range(keys.shape[1])]
        return np.ascontiguousarray(keys).view(fields).ravel()
    # column by column in int64: numpy's integer matmul has no BLAS path.
    # Each partial sum is at most the final code, below 2**63, so none wraps.
    codes = (keys[:, 0] - lo[0]) * strides[0]
    for j in range(1, keys.shape[1]):
        codes += (keys[:, j] - lo[j]) * strides[j]
    return codes


@dataclass
class GridPartition:
    """Grid cells as a key table: row c of ``keys`` is the bin key of cell c.

    Rows are in first-occurrence order over the training rows.  Construction
    derives the lookup index used by ``assign_many`` from the table alone:
    the guarded per-axis box of the keys (the box of the training keys they
    came from) and each row's code inside it (see ``_box``).  When the box
    has few codes per row (``_table_fits``) the index is a direct-address
    table, ``_table[code]`` = cell id or -1; otherwise it is the codes in
    sorted order with their cell ids.  The index is never serialized.  A
    table with a repeated row raises ``ConfigError``, since a key must name
    one cell, and so does a key outside [-2**62, 2**62].
    """

    transform: HistogramTransform
    keys: np.ndarray
    _lo: np.ndarray = field(init=False, repr=False)
    _hi: np.ndarray = field(init=False, repr=False)
    _strides: np.ndarray | None = field(init=False, repr=False)
    _table: np.ndarray | None = field(init=False, repr=False)
    _sorted_codes: np.ndarray | None = field(init=False, repr=False)
    _sorted_cells: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        self.keys = np.ascontiguousarray(self.keys, dtype=np.int64)
        self._lo, self._hi, self._strides, size = _box(self.keys)
        codes = _encode(self.keys, self._lo, self._strides)
        cells = np.arange(len(codes), dtype=np.int64)
        self._table = self._sorted_codes = self._sorted_cells = None
        if _table_fits(size, len(codes)):
            self._table = np.full(size, _NO_CELL, dtype=np.int64)
            self._table[codes] = cells
            repeated = (self._table[codes] != cells).any()  # a shared code kept one id
        else:
            self._sorted_cells = np.argsort(codes)
            self._sorted_codes = codes[self._sorted_cells]
            repeated = (self._sorted_codes[1:] == self._sorted_codes[:-1]).any()
        if repeated:
            raise ConfigError("grid key table repeats a key")

    @property
    def dim(self) -> int:
        return self.transform.dim

    @property
    def n_cells(self) -> int:
        return len(self.keys)


def _lookup(grid: GridPartition, keys: np.ndarray) -> np.ndarray:
    """Cell ids of bin key rows, -1 for a key no cell has; clips ``keys``."""
    for j, (lo, hi) in enumerate(zip(grid._lo.tolist(), grid._hi.tolist())):
        # a key outside the box lands on a guard layer, where no cell is;
        # column by column, since broadcasting over a short row is slow
        np.clip(keys[:, j], lo, hi, out=keys[:, j])
    return _cells(grid, _encode(keys, grid._lo, grid._strides))


def _cells(grid: GridPartition, codes: np.ndarray) -> np.ndarray:
    """Cell ids of codes in the grid's box, -1 for a code no cell has."""
    if grid._table is not None:
        return grid._table[codes]
    table = grid._sorted_codes
    pos = np.minimum(np.searchsorted(table, codes), len(table) - 1)
    return np.where(table[pos] == codes, grid._sorted_cells[pos], _NO_CELL)


@dataclass
class AdaptiveTree:
    """Full binary space partition of the rotated input space.

    Nodes are in breadth-first order; ``split_dim[i] == -1`` marks node i as
    a leaf, and leaves are the cells, numbered in node order.  The k-th
    internal node routes coordinate < ``threshold`` to node 2k+1 and the
    rest to node 2k+2.  Construction derives the child and leaf-id arrays
    and ``_full_levels``, the number of levels from the root that hold no
    leaf, and raises ``ConfigError`` unless the arrays describe such a
    tree.  None of the derived values is serialized.
    """

    rotation: np.ndarray
    split_dim: np.ndarray = field(repr=False)
    threshold: np.ndarray = field(repr=False)
    _child: np.ndarray = field(init=False, repr=False)
    _leaf: np.ndarray = field(init=False, repr=False)
    _full_levels: int = field(init=False, repr=False)

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
        # levels 0..k-1 hold nodes 0..2**k-2, so they are all internal
        # exactly when the first leaf comes at or after node 2**k-1
        first_leaf = int(np.argmin(internal))  # a full tree has a leaf
        self._full_levels = (first_leaf + 1).bit_length() - 1

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
    0..n_cells-1, numbered by first occurrence over the row index.  Each
    row's key is encoded once: the codes that find each cell's first row
    also look up every row's cell in the grid's index, with no clip.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ConfigError("training matrix must be 2-d with at least one row")
    keys = bin_key(transform, X)
    lo, _, strides, size = _box(keys)
    codes = _encode(keys, lo, strides)
    n = len(keys)
    if _table_fits(size, n):  # each code's first row, from one box-sized pass
        first = np.full(size, n, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
        first = first[first < n]
    else:
        _, first = np.unique(codes, return_index=True)
    grid = GridPartition(transform, keys[np.sort(first)])
    # every training key is some cell's key, so each column's min and max,
    # and with them the grid's box and strides, are those of all training
    # keys: the codes above are the grid's own, and number the rows as is
    return grid, _cells(grid, codes)


def _rotate(rotation: np.ndarray, X: np.ndarray) -> np.ndarray:
    # einsum raises no floating-point warning when a finite row overflows
    if X.ndim == 1:
        return check_finite_image(np.einsum("ij,j->i", rotation, X))
    return check_finite_image(np.einsum("ij,nj->ni", rotation, X))


def _variances(block: np.ndarray) -> np.ndarray:
    """Variances along the last axis of a (d, g, m) block of g nodes,
    bit-equal to ``ndarray.var(axis=0)`` on each node's (m, d) rows: sum,
    divide, square the deviations in place, sum, divide, with each sum
    taken in numpy's order (see ``build_adaptive``)."""
    d, _, m = block.shape
    buf = np.empty_like(block)  # serves both folds

    def fold(a: np.ndarray) -> np.ndarray:
        if d == 1:
            return np.add.reduce(a, axis=-1)
        return np.add.accumulate(a, axis=-1, out=buf)[..., -1]

    mean = fold(block) / m
    np.subtract(block, mean[..., None], out=buf)
    np.square(buf, out=buf)
    return fold(buf) / m


def _split_level(
    columns: np.ndarray, rows: np.ndarray, sizes: np.ndarray, min_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split the nodes of one breadth-first level.

    ``columns`` is the rotated data as a (d, n) array.  The level's nodes
    are consecutive spans of ``rows``, which is reordered in place, with
    ``sizes`` rows each.  Returns the nodes' split dimensions (-1 at a leaf)
    and cuts (NaN at a leaf), then the next level's rows and sizes: each
    split node's left child, then its right child, each with the node's
    rows in their order.
    """
    starts = np.cumsum(sizes) - sizes
    dims = np.full(len(sizes), _NO_CELL, dtype=np.int64)
    cuts = np.full(len(sizes), np.nan)
    left = np.zeros(len(sizes), dtype=np.int64)  # rows sent left
    for m in np.unique(sizes[sizes > min_leaf]).tolist():
        nodes = np.flatnonzero(sizes == m)
        span = starts[nodes, None] + np.arange(m)
        members = rows[span]
        block = np.take(columns, members, axis=1)  # (d, g, m)
        variances = _variances(block)
        dim = np.argmax(variances, axis=0)  # ties resolve to the lowest index
        at = np.arange(len(nodes))
        col = block[dim, at]
        del block
        h = m // 2
        part = np.partition(col, [h - 1, h] if m % 2 == 0 else h, axis=-1)
        cut = np.mean(part[:, h - 1 + m % 2:h + 1], axis=-1)  # np.median's middle
        del part
        go_left = col < cut[:, None]
        k = np.count_nonzero(go_left, axis=1)
        # a node whose median split cannot reduce it stays a leaf, whatever its size
        split = (variances[dim, at] > 0.0) & (k > 0) & (k < m)
        nodes, span, members, go_left = nodes[split], span[split], members[split], go_left[split]
        dims[nodes], cuts[nodes], left[nodes] = dim[split], cut[split], k[split]
        order = np.argsort(~go_left, axis=1, kind="stable")  # stable: rows keep their order
        rows[span] = np.take_along_axis(members, order, axis=1)
    internal = dims >= 0
    children = np.column_stack([left, sizes - left])[internal].ravel()
    return dims, cuts, rows[np.repeat(internal, sizes)], children


def build_adaptive(rotation: np.ndarray, X: np.ndarray, min_leaf: int) -> AdaptiveTree:
    """Grow an adaptive tree over the rotated rows of X.

    Every cell with more than ``min_leaf`` points is split on the dimension
    of largest sample variance at the median of that dimension (midpoint of
    the two middle order statistics for even counts; the right child takes
    values >= threshold).  A cell whose median split would leave one side
    empty — in particular one whose points are all identical — becomes a
    terminal leaf regardless of size.

    The tree grows one breadth-first level at a time.  The rotated rows are
    kept once as a C-contiguous (d, n) array, and a level's nodes as
    consecutive spans of one row-index array; all splittable nodes of one
    size m are taken together as one (d, g, m) block.  Every value is
    bit-equal to splitting each node alone on its rotated rows
    ``Z[rows]``, an (m, d) block, with ``var(axis=0)`` and ``np.median``:

    * numpy folds the block's axis 0 one row at a time, so for d >= 2 each
      sum of a variance (of the values, then of the squared deviations) is
      the last running sum, ``np.add.accumulate`` along the last axis;
    * for d = 1 the column is contiguous and numpy sums it pairwise, as
      ``np.add.reduce`` does along the last axis;
    * the split dimension is the first argmax of the variances;
    * the cut is the median: ``np.partition`` at the middle one or two
      positions, then the mean of those values;
    * the children take the node's rows in row order (a stable sort), the
      left child first.
    """
    if min_leaf < 1:
        raise ConfigError("min_leaf must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ConfigError("training matrix must be 2-d with at least one row")
    rotation = np.asarray(rotation, dtype=np.float64)
    # one row per rotated coordinate: the per-level gathers and folds run
    # along contiguous memory
    columns = np.ascontiguousarray(_rotate(rotation, X).T)

    split_dim: list[np.ndarray] = []
    threshold: list[np.ndarray] = []
    rows = np.arange(len(X), dtype=np.int64)
    sizes = np.array([len(X)], dtype=np.int64)
    while len(sizes):
        dims, cuts, rows, sizes = _split_level(columns, rows, sizes, min_leaf)
        split_dim.append(dims)
        threshold.append(cuts)

    return AdaptiveTree(
        rotation=rotation,
        split_dim=np.concatenate(split_dim),
        threshold=np.concatenate(threshold),
    )


def assign(partition: GridPartition | AdaptiveTree, x: np.ndarray) -> int | None:
    """Cell id of one point, or None for a grid key unseen in training."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (partition.dim,):
        raise ConfigError(f"expected a point of dimension {partition.dim}")
    cell = int(assign_many(partition, x[None, :])[0])
    return None if cell == _NO_CELL else cell


def assign_many(partition: GridPartition | AdaptiveTree, X: np.ndarray) -> np.ndarray:
    """Vectorized cell ids for a batch of points; -1 marks unseen grid keys.

    A tree walks the batch level by level.  Through the tree's full levels
    every row steps with no leaf test; after them, each level steps only
    the rows not yet at a leaf.  A row's coordinate on a node's split
    dimension is read from the raveled rotated batch at row * d + dim.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != partition.dim:
        raise ConfigError(f"expected points of dimension {partition.dim}")
    if isinstance(partition, GridPartition):
        return _lookup(partition, bin_key(partition.transform, X))
    split_dim, threshold, child = partition.split_dim, partition.threshold, partition._child
    flat = _rotate(partition.rotation, X).ravel()
    base = np.arange(0, flat.size, partition.dim, dtype=np.int64)
    node = np.zeros(len(X), dtype=np.int64)
    for _ in range(partition._full_levels):
        node = child[node] + ~(flat[base + split_dim[node]] < threshold[node])
    idx = np.flatnonzero(split_dim[node] >= 0)
    while len(idx):
        at = node[idx]
        at = child[at] + ~(flat[base[idx] + split_dim[at]] < threshold[at])
        node[idx] = at
        idx = idx[split_dim[at] >= 0]
    return partition._leaf[node]
