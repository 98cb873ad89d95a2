import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
        grid, cells = build_grid(t, X)
        rebuilt = GridPartition(t, grid.keys.copy())  # the load path
        np.testing.assert_array_equal(assign_many(rebuilt, X), cells)

        table = {tuple(key): cid for cid, key in enumerate(grid.keys.tolist())}
        far = np.full((1, d), 1e6)
        queries = np.vstack([Q, far])
        expected = [table.get(tuple(key), -1) for key in bin_key(t, queries).tolist()]
        np.testing.assert_array_equal(assign_many(rebuilt, queries), expected)
        assert expected[-1] == -1

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

        # reference walk straight from the breadth-first layout
        internal = (tree.split_dim >= 0).tolist()
        Z = np.einsum("ij,nj->ni", rotation, X)  # the rotation build_adaptive uses
        for z, cell in zip(Z, cells):
            node = 0
            while internal[node]:
                right = z[tree.split_dim[node]] >= tree.threshold[node]
                node = 2 * sum(internal[:node]) + 1 + int(right)
            assert cell == node - sum(internal[:node])

    def test_queries_beyond_training_range_reach_a_leaf(self):
        rng = philox_generator(41)
        X = rng.random((100, 2))
        tree = build_adaptive(sample_rotation(2, philox_generator(42)), X, min_leaf=10)
        far = np.array([[1e6, -1e6], [-1e6, 1e6]])
        cells = assign_many(tree, far)
        assert ((0 <= cells) & (cells < tree.n_cells)).all()
