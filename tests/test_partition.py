import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hte import partition
from hte.data import Dataset, gen_counter3d
from hte.ensemble import TrainConfig, train_ensemble
from hte.errors import ConfigError
from hte.partition import (
    AdaptiveTree,
    GridPartition,
    assign,
    assign_many,
    build_adaptive,
    build_grid,
)
from hte.rng import philox_generator
from hte.transform import HistogramTransform, bin_key, sample_rotation, sample_transform


def _identity_1d():
    return HistogramTransform(np.eye(1), np.ones(1), np.zeros(1), 1.0, 1.0)


def _identity(d):
    """A transform whose bin key of a row is its floor."""
    return HistogramTransform(np.eye(d), np.ones(d), np.zeros(d), 1.0, 1.0)


def _each_index():
    """Run a loop body once per lookup index: first with a direct-address
    table for every box of up to 2**16 codes (more than the default rule
    allows), then with sorted codes for every box."""
    for rule in (lambda size, rows: size <= 2**16, lambda size, rows: False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partition, "_table_fits", rule)
            yield


def _dict_cells(table, keys):
    """Reference lookup: the cell id of each key row, or -1."""
    cell_of = {tuple(key): cid for cid, key in enumerate(table.tolist())}
    return [cell_of.get(tuple(key), -1) for key in keys.tolist()]


# key tables whose box needs from 0 up to 480 bits: 12 axes of 2**40 each
@st.composite
def _key_rows(draw):
    d = draw(st.integers(1, 12))
    spans = np.array(draw(st.lists(st.sampled_from([1, 4, 2**6, 2**40]),
                                   min_size=d, max_size=d)), dtype=np.int64)
    lo = np.array(draw(st.lists(st.integers(-2**41, 2**41), min_size=d, max_size=d)),
                  dtype=np.int64)
    n = draw(st.integers(1, 30))
    raw = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(0, 2**40 - 1),
                          fill=st.nothing()))
    # repeat some rows, so shared keys occur at every span; the two corners
    # make the box of the rows exactly lo + [0, spans)
    repeats = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)))
    corners = np.vstack([np.zeros(d, dtype=np.int64), spans - 1])
    rows = np.vstack([raw, corners, raw[repeats]]) % spans
    return lo + rows[draw(st.permutations(range(len(rows))))], lo, spans


# key rows and the key range of each axis; half the draws have a box of
# just below 2**63 codes, guard layers included
@st.composite
def _encode_boxes(draw):
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        ranges = draw(st.lists(st.integers(0, 5), min_size=d - 1, max_size=d - 1))
        ranges.append((2**63 - 1) // math.prod(r + 3 for r in ranges) - 3)
    else:
        ranges = draw(st.lists(st.integers(0, 2**12), min_size=d, max_size=d))
    lo = np.array([draw(st.integers(-2**62, 2**62 - r)) for r in ranges], dtype=np.int64)
    n = draw(st.integers(1, 30))
    raw = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(0, 2**62), fill=st.nothing()))
    span = np.array(ranges, dtype=np.int64) + 1
    corners = np.vstack([np.zeros(d, dtype=np.int64), span - 1])  # the box is exactly lo + ranges
    return lo + np.vstack([raw % span, corners]), ranges


def _reference_codes(keys):
    """Mixed-radix codes of key rows in Python ints: the last axis fastest,
    inside the rows' per-axis box widened by one guard layer each side."""
    cols = keys.T.tolist()
    lo = [min(c) - 1 for c in cols]
    spans = [max(c) - min(c) + 3 for c in cols]
    strides = [math.prod(spans[j + 1:]) for j in range(len(spans))]
    return [sum((k - l) * s for k, l, s in zip(row, lo, strides)) for row in keys.tolist()]


def _reference_walk(tree, X):
    """Cell ids of rows of X, one row and one node at a time, from the
    breadth-first layout alone."""
    internal = (tree.split_dim >= 0).tolist()
    cells = []
    for z in np.einsum("ij,nj->ni", tree.rotation, X):  # the rotation build_adaptive uses
        node = 0
        while internal[node]:
            right = z[tree.split_dim[node]] >= tree.threshold[node]
            node = 2 * sum(internal[:node]) + 1 + int(right)
        cells.append(node - sum(internal[:node]))
    return np.array(cells, dtype=np.int64)


def _reference_split(block, min_leaf):
    """One node's split dimension, cut and left-going rows from its (m, d)
    rotated rows, or (-1, NaN, None) when it is a leaf."""
    if len(block) > min_leaf:
        variances = block.var(axis=0)
        dim = int(np.argmax(variances))
        col = block[:, dim]
        cut = float(np.median(col))
        go_left = col < cut
        if variances[dim] > 0.0 and go_left.any() and not go_left.all():
            return dim, cut, go_left
    return -1, np.nan, None


def _reference_build_adaptive(rotation, X, min_leaf):
    """The node-at-a-time build that the level-wise one replaced: nodes
    leave a FIFO queue in breadth-first order, and each node's rows are
    split with ``ndarray.var`` and ``np.median`` on their own."""
    X = np.asarray(X, dtype=np.float64)
    rotation = np.asarray(rotation, dtype=np.float64)
    Z = partition._rotate(rotation, X)
    split_dim, threshold = [], []
    queue = deque([np.arange(len(X), dtype=np.int64)])
    while queue:
        indices = queue.popleft()
        dim, cut, go_left = _reference_split(Z[indices], min_leaf)
        split_dim.append(dim)
        threshold.append(cut)
        if dim >= 0:
            queue.append(indices[go_left])
            queue.append(indices[~go_left])
    return AdaptiveTree(rotation, np.array(split_dim, dtype=np.int64),
                        np.array(threshold, dtype=np.float64))


def _assert_builds_like_reference(rotation, X, min_leaf):
    tree = build_adaptive(rotation, X, min_leaf)
    expected = _reference_build_adaptive(rotation, X, min_leaf)
    assert tree.split_dim.tobytes() == expected.split_dim.tobytes()
    assert tree.threshold.tobytes() == expected.threshold.tobytes()
    return tree


@st.composite
def _build_inputs(draw):
    """Rows for build_adaptive, tie-heavy: values rounded to 0 or 1
    decimals, maybe a constant column and repeated rows, under the identity
    or a sampled rotation, C- or F-ordered; and a min_leaf."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3000))
    rng = philox_generator(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1.0, 3.0, 1e-3]))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        X = np.round(X, decimals)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, 0.1, -2.5]))
    if draw(st.booleans()):
        X[rng.integers(0, n, size=n // 3)] = X[draw(st.integers(0, n - 1))]
    rotation = np.eye(d)
    if draw(st.booleans()):
        rotation = sample_rotation(d, philox_generator(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    min_leaf = draw(st.integers(1, min(n, 8)) | st.integers(1, n))
    return rotation, X, min_leaf


@st.composite
def _drawn_trees(draw):
    """A valid AdaptiveTree of one kind (a root leaf, a complete tree, a
    left or right chain, or a random full tree), with its kind and depth."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["leaf", "complete", "left_chain", "right_chain", "random"]))
    depth = draw(st.integers(1, 6))
    internal = []
    queue = deque([(0, "root")])  # numbered breadth-first, as they leave the queue
    while queue:
        level, side = queue.popleft()
        if kind == "random":
            split = level < 7 and draw(st.booleans())
        else:
            split = kind != "leaf" and level < depth and side != {
                "left_chain": "right", "right_chain": "left"}.get(kind)
        internal.append(split)
        if split:
            queue.extend([(level + 1, "left"), (level + 1, "right")])
    internal = np.array(internal)
    n = len(internal)
    dims = draw(hnp.arrays(np.int64, n, elements=st.integers(0, d - 1)))
    cuts = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
                           | st.floats(-2.0, 2.0)))
    rotation = np.eye(d)
    if draw(st.booleans()):
        rotation = sample_rotation(d, philox_generator(draw(st.integers(0, 2**32 - 1))))
    tree = AdaptiveTree(rotation, np.where(internal, dims, -1),
                        np.where(internal, cuts, np.nan))
    return tree, kind, depth


class TestBuildGrid:
    def test_single_row(self):
        grid, cells = build_grid(_identity_1d(), np.array([[0.4]]))
        assert grid.n_cells == 1
        np.testing.assert_array_equal(cells, [0])

    def test_floor_groups_1d(self):
        grid, cells = build_grid(_identity_1d(), np.array([[0.1], [0.9], [1.2]]))
        assert grid.n_cells == 2
        np.testing.assert_array_equal(cells, [0, 0, 1])

    def test_duplicated_rows_share_a_cell(self):
        X = np.array([[0.3, 0.3], [0.3, 0.3], [5.0, 5.0]])
        t = sample_transform(2, 0.3, 1.0, philox_generator(0))
        _, cells = build_grid(t, X)
        assert cells[0] == cells[1]

    def test_first_occurrence_ordering(self):
        X = np.array([[2.5], [0.5], [2.7], [1.5]])
        _, cells = build_grid(_identity_1d(), X)
        np.testing.assert_array_equal(cells, [0, 1, 0, 2])

    @settings(max_examples=80, deadline=None)
    @given(rows=_key_rows())
    def test_numbering_matches_unique_rows_in_first_occurrence_order(self, rows):
        keys, _, _ = rows
        grid, cells = build_grid(_identity(keys.shape[1]), keys + 0.5)

        uniq, first, inverse = np.unique(keys, axis=0, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first)
        rank = np.argsort(order)
        np.testing.assert_array_equal(grid.keys, uniq[order])
        np.testing.assert_array_equal(cells, rank[inverse.ravel()])

    @settings(max_examples=100, deadline=None)
    @given(boxes=_encode_boxes())
    def test_column_wise_codes_equal_python_int_codes(self, boxes):
        keys, ranges = boxes
        lo, _, strides, size = partition._box(keys)
        assert size == math.prod(r + 3 for r in ranges) < 2**63
        codes = partition._encode(keys, lo, strides)
        assert codes.dtype == np.int64
        assert codes.tolist() == _reference_codes(keys)

    @pytest.mark.parametrize("kind", ["table", "sorted codes", "structured rows"])
    def test_build_grid_cells_equal_assign_many(self, kind):
        if kind == "structured rows":  # a box of about 2**80 codes
            t = _identity(3)
            X = philox_generator(71).integers(0, 2**40, size=(500, 3)) + 0.5
        else:
            t = sample_transform(3, 0.2, 0.9, philox_generator(72))
            X = philox_generator(73).normal(size=(2000, 3))
        with pytest.MonkeyPatch.context() as mp:
            if kind == "sorted codes":
                mp.setattr(partition, "_table_fits", lambda size, rows: False)
            grid, cells = build_grid(t, X)
        assert (grid._table is not None) == (kind == "table")
        assert (grid._strides is None) == (kind == "structured rows")
        assert set(cells.tolist()) == set(range(grid.n_cells))
        np.testing.assert_array_equal(assign_many(grid, X), cells)

    def test_every_point_assigned_and_ids_dense(self):
        t = sample_transform(3, 0.2, 0.9, philox_generator(3))
        X = philox_generator(4).normal(size=(300, 3))
        grid, cells = build_grid(t, X)
        assert set(np.unique(cells)) == set(range(grid.n_cells))


class TestAssignGrid:
    def test_training_point_keeps_its_cell(self):
        t = sample_transform(2, 0.3, 1.0, philox_generator(8))
        X = philox_generator(9).normal(size=(50, 2))
        grid, cells = build_grid(t, X)
        for i in range(len(X)):
            assert assign(grid, X[i]) == cells[i]

    def test_unseen_bin_returns_none(self):
        grid, _ = build_grid(_identity_1d(), np.array([[0.1], [0.9]]))
        assert assign(grid, np.array([1000.0])) is None

    def test_dimension_mismatch(self):
        grid, _ = build_grid(_identity_1d(), np.array([[0.1]]))
        with pytest.raises(ConfigError):
            assign(grid, np.array([0.1, 0.2]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_rebuilt_key_table_assigns_like_build_grid(self, data, d, seed):
        n = data.draw(st.integers(1, 40))
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-5.0, 5.0)))
        Q = data.draw(hnp.arrays(np.float64, (20, d), elements=st.floats(-8.0, 8.0)))
        t = sample_transform(d, 0.3, 1.0, philox_generator(seed))
        for _ in _each_index():
            grid, cells = build_grid(t, X)
            rebuilt = GridPartition(t, grid.keys.copy())  # the load path
            np.testing.assert_array_equal(assign_many(rebuilt, X), cells)

            table = {tuple(key): cid for cid, key in enumerate(grid.keys.tolist())}
            far = np.full((1, d), 1e6)
            queries = np.vstack([Q, far])
            expected = [table.get(tuple(key), -1) for key in bin_key(t, queries).tolist()]
            np.testing.assert_array_equal(assign_many(rebuilt, queries), expected)
            assert expected[-1] == -1

    @settings(max_examples=80, deadline=None)
    @given(rows=_key_rows(), data=st.data())
    def test_lookup_matches_a_dict_on_narrow_and_wide_boxes(self, rows, data):
        keys, lo, spans = rows
        d = keys.shape[1]
        # in-box keys, mostly misses; out-of-box keys one and two past
        # either bound (the guard layer and beyond it); keys at the +-2**62
        # limit of bin_key
        raw = data.draw(hnp.arrays(np.int64, (10, d), elements=st.integers(0, 2**40 - 1),
                                   fill=st.nothing()))
        in_box = lo + raw % spans
        axis = data.draw(st.integers(0, d - 1))
        for _ in _each_index():
            grid, _ = build_grid(_identity(d), keys + 0.5)
            table = grid.keys
            rebuilt = GridPartition(grid.transform, table.copy())  # the load path

            outside = []
            for step in (-2, -1, 1, 2):
                row = table.copy()
                edge = table[:, axis].min() if step < 0 else table[:, axis].max()
                row[:, axis] = edge + step
                outside.append(row)
            queries = np.vstack([table, in_box, *outside])
            expected = _dict_cells(table, queries)
            np.testing.assert_array_equal(assign_many(rebuilt, queries + 0.5), expected)
            assert expected[:len(table)] == list(range(len(table)))
            assert expected[-4 * len(table):] == [-1] * (4 * len(table))

            huge = np.vstack([np.full(d, 1e30), np.full(d, -1e30)])
            np.testing.assert_array_equal(assign_many(rebuilt, huge), [-1, -1])

    @pytest.mark.parametrize("spans", [[2**6] * 12, [2**40, 2**40, 1]])
    def test_wide_box_falls_back_to_row_items(self, spans):
        d = len(spans)
        raw = philox_generator(51).integers(0, 2**40, size=(200, d))
        keys = raw % np.array(spans)
        keys[0], keys[-1] = 0, np.array(spans) - 1  # the box spans every axis in full
        grid, cells = build_grid(_identity(d), keys + 0.5)
        assert grid._strides is None  # 2**72 and 2**80 codes: no int64 index
        np.testing.assert_array_equal(cells, _dict_cells(grid.keys, keys))
        misses = keys[:20].copy()
        misses[:, 0] = (misses[:, 0] + 1) % spans[0]
        queries = np.vstack([keys, misses])
        np.testing.assert_array_equal(assign_many(grid, queries + 0.5),
                                      _dict_cells(grid.keys, queries))

    def test_repeated_key_rejected(self):
        for _ in _each_index():
            with pytest.raises(ConfigError, match="repeats a key"):
                GridPartition(_identity(2), np.array([[0, 1], [2, 3], [0, 1]]))
            with pytest.raises(ConfigError, match="repeats a key"):
                GridPartition(_identity(1), np.array([[5], [-4], [7], [-4]]))

    @settings(max_examples=80, deadline=None)
    @given(rows=_key_rows())
    def test_build_grid_is_byte_equal_on_both_indexes(self, rows):
        keys, _, _ = rows
        X = keys + 0.5
        built = []
        for _ in _each_index():
            grid, cells = build_grid(_identity(keys.shape[1]), X)
            np.testing.assert_array_equal(assign_many(grid, X), cells)
            built.append((grid.keys.tobytes(), cells.dtype, cells.tobytes()))
        assert grid._table is None  # the last pass ran on sorted codes
        assert built[0] == built[1]

    def test_default_rule_gives_small_grids_a_table_and_wide_ones_none(self):
        ds = gen_counter3d(2000, seed=61)
        model = train_ensemble(ds, TrainConfig(n_transforms=3, master_seed=62))
        for member in model.members:  # boxes of a few codes per cell
            assert member.partition._table is not None
        X = philox_generator(63).normal(size=(2000, 12))
        wide = train_ensemble(Dataset(X, X.sum(axis=1)),
                              TrainConfig(n_transforms=3, master_seed=64))
        for member in wide.members:  # a 12-d box has far more codes than rows
            assert member.partition._table is None
            assert member.partition._strides is not None

    def test_table_stays_within_its_bound(self):
        # one key per row: 8 entries a row plus 4096, guard layers included
        fits = GridPartition(_identity(1), np.array([[0], [4109]]))
        assert len(fits._table) == 8 * 2 + 4096
        assert GridPartition(_identity(1), np.array([[0], [4110]]))._table is None
        # a few far-apart keys cannot force a large allocation
        far = GridPartition(_identity(3), np.array([[0, 0, 0], [2**40, 0, 0],
                                                    [0, -2**40, 2**40]]))
        assert far._table is None
        np.testing.assert_array_equal(
            assign_many(far, np.array([[0.5, 0.5, 0.5], [2.0**40, 0.5, 0.5], [1.5, 0.5, 0.5]])),
            [0, 1, -1])

    @pytest.mark.parametrize("key", [-2**62 - 1, 2**62 + 1, np.iinfo(np.int64).min,
                                     np.iinfo(np.int64).max])
    def test_key_outside_bin_key_range_rejected(self, key):
        with pytest.raises(ConfigError, match=r"outside \[-2\*\*62, 2\*\*62\]"):
            GridPartition(_identity(2), np.array([[0, 0], [key, 1]]))

    def test_keys_at_bin_key_limits_accepted(self):
        grid = GridPartition(_identity(2), np.array([[2**62, -2**62], [-2**62, 2**62]]))
        # bin_key clips a huge coordinate to the limit, so it finds those cells
        np.testing.assert_array_equal(
            assign_many(grid, np.array([[1e30, -1e30], [-1e30, 1e30], [1e30, 1e30]])),
            [0, 1, -1])

    def test_sharing_iff_equal_keys(self):
        t = sample_transform(2, 0.25, 0.8, philox_generator(11))
        X = philox_generator(12).normal(size=(1000, 2))
        grid, cells = build_grid(t, X)
        keys = bin_key(t, X)
        for _ in range(200):
            i, j = philox_generator(13).integers(0, len(X), 2)
            assert (cells[i] == cells[j]) == bool((keys[i] == keys[j]).all())


class TestBuildAdaptive:
    def test_small_sample_single_leaf(self):
        tree = build_adaptive(np.eye(2), np.arange(8.0).reshape(4, 2), min_leaf=4)
        assert tree.n_cells == 1
        assert tree.split_dim[0] == -1

    def test_median_split_1d(self):
        tree = build_adaptive(np.eye(1), np.array([[0.0], [1.0], [2.0], [3.0]]), 2)
        assert tree.n_cells == 2
        assert tree.split_dim[0] == 0
        assert tree.threshold[0] == 1.5
        cells = assign_many(tree, np.array([[0.0], [1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(cells, [0, 0, 1, 1])

    def test_largest_variance_dimension_wins(self):
        rng = philox_generator(21)
        X = np.column_stack([np.full(64, 0.5), rng.normal(size=64)])
        tree = build_adaptive(np.eye(2), X, min_leaf=8)
        assert (tree.split_dim[tree.split_dim >= 0] == 1).all()

    def test_variance_tie_prefers_lowest_dimension(self):
        base = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([base, base])
        tree = build_adaptive(np.eye(2), X, min_leaf=2)
        assert tree.split_dim[0] == 0

    def test_identical_points_become_terminal_leaf(self):
        X = np.zeros((10, 2))
        tree = build_adaptive(np.eye(2), X, min_leaf=3)
        assert tree.n_cells == 1
        assert assign_many(tree, X).max() == 0

    def test_unreducible_median_split_terminates(self):
        # median equals the minimum, so the left side would be empty
        X = np.array([[1.0], [2.0], [2.0], [2.0], [2.0]])
        tree = build_adaptive(np.eye(1), X, min_leaf=2)
        leaf_counts = np.bincount(assign_many(tree, X))
        assert leaf_counts.max() >= 2  # a degenerate leaf may stay oversized

    def test_leaf_occupancy_bound(self):
        rng = philox_generator(31)
        X = rng.normal(size=(500, 3))
        rotation = sample_rotation(3, philox_generator(32))
        for m in (1, 7, 50):
            tree = build_adaptive(rotation, X, min_leaf=m)
            counts = np.bincount(assign_many(tree, X), minlength=tree.n_cells)
            assert counts.max() <= m

    def test_even_split_produces_balanced_siblings(self):
        X = philox_generator(33).normal(size=(256, 2))
        tree = build_adaptive(np.eye(2), X, min_leaf=64)
        counts = np.bincount(assign_many(tree, X), minlength=tree.n_cells)
        # distinct continuous values and even counts halve exactly
        assert set(counts.tolist()) == {64}

    def test_row_permutation_only_relabels(self):
        rng = philox_generator(34)
        X = rng.normal(size=(200, 2))
        rotation = sample_rotation(2, philox_generator(35))
        tree_a = build_adaptive(rotation, X, min_leaf=16)
        perm = philox_generator(36).permutation(len(X))
        tree_b = build_adaptive(rotation, X[perm], min_leaf=16)
        sizes_a = sorted(np.bincount(assign_many(tree_a, X)).tolist())
        sizes_b = sorted(np.bincount(assign_many(tree_b, X)).tolist())
        assert sizes_a == sizes_b

    @settings(max_examples=100, deadline=None)
    @given(inputs=_build_inputs())
    def test_equals_the_node_at_a_time_build(self, inputs):
        _assert_builds_like_reference(*inputs)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.integers(1, 8), g=st.integers(1, 5), m=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_variances_equal_ndarray_var_on_each_node(self, data, d, g, m, seed):
        block = philox_generator(seed).normal(size=(d, g, m))
        block = np.round(block * data.draw(st.sampled_from([1.0, 1e3, 1e-3])),
                         data.draw(st.sampled_from([1, 3, 17])))
        variances = partition._variances(block)
        for i in range(g):
            rows = np.ascontiguousarray(block[:, i].T)  # a node's (m, d) rows, as Z[rows]
            assert variances[:, i].tobytes() == rows.var(axis=0).tobytes()

    # one value that a row-by-row fold rounds away fifteen times, but that
    # a pairwise sum keeps
    _SUMMED_APART = np.array([1.0] + [1e-16] * 15)

    def test_one_dimensional_node_is_summed_pairwise(self):
        col = self._SUMMED_APART
        fold = np.add.accumulate((col - np.add.accumulate(col)[-1] / 16) ** 2)[-1] / 16
        assert col.var() != fold  # the two sums give different variances
        variances = partition._variances(col.reshape(1, 1, -1))
        assert variances.tobytes() == col[:, None].var(axis=0).tobytes()
        _assert_builds_like_reference(np.eye(1), col[:, None], 2)

    def test_wider_node_is_summed_row_by_row(self):
        rows = np.column_stack([np.arange(16.0), self._SUMMED_APART])
        pairwise = self._SUMMED_APART.var()
        assert rows.var(axis=0)[1] != pairwise  # the two sums give different variances
        variances = partition._variances(np.ascontiguousarray(rows.T)[:, None, :])
        assert variances[:, 0].tobytes() == rows.var(axis=0).tobytes()

    def test_level_with_nodes_of_several_sizes(self):
        X = np.round(philox_generator(71).normal(size=(1001, 3)), 1)  # ties: uneven splits
        rotation = sample_rotation(3, philox_generator(72))
        columns = np.ascontiguousarray(partition._rotate(rotation, X).T)
        rows, sizes = np.arange(1001), np.array([1001])
        most = 0
        while len(sizes):
            most = max(most, len(np.unique(sizes[sizes > 3])))
            _, _, rows, sizes = partition._split_level(columns, rows, sizes, 3)
        assert most >= 3  # some level splits nodes of three sizes or more
        _assert_builds_like_reference(rotation, X, 3)

    def test_variance_tie_at_every_node(self):
        a = np.round(philox_generator(73).normal(size=500) * 4)
        X = np.column_stack([a, -a, a])  # the same variance, bit for bit, on every dimension
        tree = _assert_builds_like_reference(np.eye(3), X, 5)
        assert set(tree.split_dim.tolist()) == {-1, 0}

    def test_variance_that_underflows_to_zero_keeps_a_leaf(self):
        X = np.array([[0.0], [0.0], [1e-200], [1e-200]])
        assert X.var() == 0.0  # though the median splits the rows 2 | 2
        tree = _assert_builds_like_reference(np.eye(1), X, 1)
        assert tree.n_cells == 1

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 400),
           min_leaf=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_split_level_splits_each_node_alone(self, data, d, n, min_leaf, seed):
        rng = philox_generator(seed)
        columns = np.round(rng.normal(size=(d, n)), data.draw(st.sampled_from([0, 1, 17])))
        rows = rng.permutation(n)  # children keep this order, not the row order
        bounds = sorted(set(data.draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=6))))
        spans = np.split(rows, [b for b in bounds if b < n])
        sizes = np.array([len(span) for span in spans])

        dims, cuts, next_rows, next_sizes = partition._split_level(
            columns, rows.copy(), sizes, min_leaf)
        expected_rows, expected_sizes = [], []
        for i, span in enumerate(spans):
            dim, cut, go_left = _reference_split(np.ascontiguousarray(columns[:, span].T),
                                                 min_leaf)
            assert (int(dims[i]), cuts[i].tobytes()) == (dim, np.float64(cut).tobytes())
            if dim >= 0:
                expected_rows += [span[go_left], span[~go_left]]
                expected_sizes += [int(go_left.sum()), int((~go_left).sum())]
        np.testing.assert_array_equal(next_rows, np.concatenate([[], *expected_rows]))
        assert next_sizes.tolist() == expected_sizes


class TestAssignAdaptive:
    def _three_node_tree(self):
        return AdaptiveTree(
            rotation=np.eye(1),
            split_dim=np.array([0, -1, -1]),
            threshold=np.array([2.0, np.nan, np.nan]),
        )

    def test_walk_matches_threshold_comparisons(self):
        tree = self._three_node_tree()
        assert assign(tree, np.array([1.9])) == 0
        assert assign(tree, np.array([2.0])) == 1  # right side takes >= threshold
        assert assign(tree, np.array([1e9])) == 1
        assert assign(tree, np.array([-1e9])) == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 5), min_leaf=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_rebuilt_tree_assigns_like_build_adaptive(self, data, d, min_leaf, seed):
        n = data.draw(st.integers(1, 60))
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(-5.0, 5.0)))
        rotation = sample_rotation(d, philox_generator(seed))
        tree = build_adaptive(rotation, X, min_leaf)
        rebuilt = AdaptiveTree(rotation, tree.split_dim.copy(), tree.threshold.copy())
        cells = assign_many(rebuilt, X)
        np.testing.assert_array_equal(cells, assign_many(tree, X))
        assert set(cells.tolist()) == set(range(rebuilt.n_cells))

        np.testing.assert_array_equal(cells, _reference_walk(tree, X))

    @settings(max_examples=150, deadline=None)
    @given(drawn=_drawn_trees(), data=st.data())
    def test_walk_matches_reference_on_drawn_trees(self, drawn, data):
        tree, kind, depth = drawn
        d = tree.dim
        internal = (tree.split_dim >= 0).tolist()
        if kind == "leaf":
            assert tree._full_levels == 0
        elif kind == "complete":
            assert tree._full_levels == depth
        elif kind.endswith("chain"):
            assert tree._full_levels == 1
        full = 0  # the levels 0..k-1 are nodes 0..2**k-2
        while 2 ** (full + 1) - 1 <= len(internal) and all(internal[: 2 ** (full + 1) - 1]):
            full += 1
        assert tree._full_levels == full

        # exact thresholds, other values, far points and the origin
        cuts = tree.threshold[np.isfinite(tree.threshold)].tolist()
        values = st.sampled_from(cuts + [0.0, 1e300, -1e300]) | st.floats(-3.0, 3.0)
        n = data.draw(st.integers(0, 40))
        Q = data.draw(hnp.arrays(np.float64, (n, d), elements=values))
        np.testing.assert_array_equal(assign_many(tree, Q), _reference_walk(tree, Q))

    def test_queries_beyond_training_range_reach_a_leaf(self):
        rng = philox_generator(41)
        X = rng.random((100, 2))
        tree = build_adaptive(sample_rotation(2, philox_generator(42)), X, min_leaf=10)
        far = np.array([[1e6, -1e6], [-1e6, 1e6]])
        cells = assign_many(tree, far)
        assert ((0 <= cells) & (cells < tree.n_cells)).all()
