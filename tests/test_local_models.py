import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hte.linalg
import hte.local_models
from hte.errors import ConfigError, IllConditionedError
from hte.data import gen_counter3d
from hte.ensemble import TrainConfig, train_ensemble
from hte.linalg import gaussian_cross, gaussian_gram, solve_spd
from hte.local_models import (
    _STACK_CELL_ENTRIES,
    _STACK_ENTRIES,
    NO_CELL,
    KernelCellModel,
    fit_constant,
    fit_kernel_cell,
    fit_kernel_cells,
    narrow_keys,
)
from hte.partition import assign_many
from hte.rng import philox_generator


def _predict_one(model, cell, x) -> float:
    """Prediction for one point in ``cell`` (NO_CELL marks an unseen cell)."""
    return float(model.predict(np.array([cell]), np.array([x], dtype=np.float64))[0])


def _kernel_model(cells, clip_bound=10.0, fallback=0.0, gamma=1.0):
    """Flat kernel model from per-cell entries: a (support, alpha) pair or a mean."""
    kernel = [c for c in cells if isinstance(c, tuple)]
    sizes = [len(c[1]) if isinstance(c, tuple) else 0 for c in cells]
    d = kernel[0][0].shape[1] if kernel else 1
    support = np.concatenate([s for s, _ in kernel]) if kernel else np.empty((0, d))
    return KernelCellModel(
        offsets=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
        rows=support, ids=np.arange(len(support)),
        alpha=np.concatenate([a for _, a in kernel]) if kernel else np.empty(0),
        means=np.array([0.0 if isinstance(c, tuple) else c for c in cells]),
        gamma=gamma, clip_bound=clip_bound, fallback=fallback,
    )


def _mean_model(cell_ids, y, n_cells, **kwargs):
    """The regressor of ``fit_constant``'s means: every cell a mean cell."""
    return _kernel_model(fit_constant(cell_ids, y, n_cells).tolist(), **kwargs)


class TestFitConstant:
    def test_cell_mean(self):
        means = fit_constant(np.array([0, 0]), np.array([1.0, 3.0]), 1)
        assert means[0] == 2.0

    def test_singleton(self):
        means = fit_constant(np.array([0]), np.array([5.0]), 1)
        assert means[0] == 5.0

    def test_unseen_cell_defaults_to_zero(self):
        model = _mean_model(np.array([0]), np.array([5.0]), 1)
        assert _predict_one(model, NO_CELL, [0.0]) == 0.0

    def test_global_mean_fallback(self):
        y = np.array([1.0, 2.0, 6.0])
        model = _mean_model(np.array([0, 0, 1]), y, 2, fallback=float(y.mean()))
        assert _predict_one(model, NO_CELL, [0.0]) == 3.0

    def test_rejects_empty_cells(self):
        with pytest.raises(ConfigError, match="cell 1 has none"):
            fit_constant(np.array([0, 2]), np.array([1.0, 2.0]), 3)

    def test_matches_brute_force_groupby(self):
        rng = philox_generator(1)
        for trial in range(20):
            n = int(rng.integers(1, 200))
            n_cells = int(rng.integers(1, 20))
            cells = np.concatenate(
                [np.arange(n_cells), rng.integers(0, n_cells, size=n)]
            )
            y = rng.normal(size=len(cells))
            means = fit_constant(cells, y, n_cells)
            for cid in range(n_cells):
                expected = y[cells == cid].mean()
                assert abs(means[cid] - expected) <= 1e-12
                # bit for bit the targets added in row order, over the count
                in_row_order = sum(y[cells == cid].tolist()) / (cells == cid).sum()
                assert means[cid] == in_row_order


class TestFitKernelCell:
    def test_single_point_closed_form(self):
        support, alpha = fit_kernel_cell(
            np.array([[0.3]]), np.array([4.0]), gamma=1.0, lambda2=1.0, n_global=1
        )
        np.testing.assert_allclose(alpha, [4.0 / 2.0], rtol=1e-15)

    def test_interpolation_limit(self):
        X = np.array([[0.0], [1.0], [2.5]])
        y = np.array([1.0, -1.0, 0.5])
        support, alpha = fit_kernel_cell(X, y, gamma=1.0, lambda2=1e-12, n_global=3)
        K = gaussian_gram(X, 1.0)
        np.testing.assert_allclose(K @ alpha, y, atol=1e-6)

    def test_two_point_system_matches_direct_inverse(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([2.0, -1.0])
        gamma, lambda2, n = 0.8, 0.3, 5
        support, alpha = fit_kernel_cell(X, y, gamma, lambda2, n)
        K = gaussian_gram(X, gamma) + n * lambda2 * np.eye(2)
        np.testing.assert_allclose(alpha, np.linalg.inv(K) @ y, atol=1e-10)

    def test_matches_dense_solve_across_random_cells(self):
        rng = philox_generator(2)
        for _ in range(30):
            n_j = int(rng.integers(1, 51))
            X = rng.normal(size=(n_j, 3))
            y = rng.normal(size=n_j)
            gamma = float(rng.uniform(0.3, 3.0))
            lambda2 = float(10.0 ** rng.uniform(-6, 0))
            n = n_j + int(rng.integers(0, 100))
            _, alpha = fit_kernel_cell(X, y, gamma, lambda2, n)
            K = gaussian_gram(X, gamma) + n * lambda2 * np.eye(n_j)
            direct = np.linalg.solve(K, y)
            assert np.linalg.norm(alpha - direct) <= 1e-8 * max(
                1.0, np.linalg.norm(direct)
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            fit_kernel_cell(np.array([[0.0]]), np.array([1.0]), -1.0, 0.1, 1)
        with pytest.raises(ConfigError):
            fit_kernel_cell(np.array([[0.0]]), np.array([1.0]), 1.0, 0.1, 0)


def _cells_one_by_one(support, y, sizes, gamma, lambda2, n_global):
    """Per-cell reference: cross-kernel Gram, ridge on the diagonal, solve_spd."""
    alphas, escalations, start = [], 0, 0
    for m in sizes:
        X, y_cell = support[start : start + m], y[start : start + m]
        K = gaussian_cross(X, X, gamma)
        K[np.diag_indices_from(K)] += n_global * lambda2
        alpha, _, cell_escalations = solve_spd(K, y_cell)
        alphas.append(alpha)
        escalations += cell_escalations
        start += m
    return np.concatenate(alphas), escalations


def _layout(seed, sizes, d, duplicate_share=0.0):
    """Cells of the given sizes; some rows repeat an earlier row of their cell."""
    rng = philox_generator(seed)
    support = rng.normal(size=(sum(sizes), d))
    start = 0
    for m in sizes:
        for row in range(start + 1, start + m):
            if rng.uniform() < duplicate_share:
                support[row] = support[start + int(rng.integers(0, row - start))]
        start += m
    return support, rng.normal(size=len(support))


class TestFitKernelCells:
    @settings(max_examples=60, deadline=None)
    @given(distinct=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           repeats=st.integers(1, 4), d=st.integers(1, 8), gamma=st.floats(0.2, 4.0),
           log_lambda2=st.floats(-12.0, 0.0), duplicate_share=st.floats(0.0, 0.6),
           extra=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    def test_matches_cells_fitted_one_by_one(self, distinct, repeats, d, gamma, log_lambda2,
                                             duplicate_share, extra, seed):
        sizes = philox_generator(seed).permutation(distinct * repeats).tolist()
        support, y = _layout(seed, sizes, d, duplicate_share)
        lambda2, n_global = 10.0**log_lambda2, len(y) + extra
        try:
            expected, _ = _cells_one_by_one(support, y, sizes, gamma, lambda2, n_global)
        except IllConditionedError:
            with pytest.raises(IllConditionedError):
                fit_kernel_cells(support, y, sizes, gamma, lambda2, n_global)
            return
        alpha = fit_kernel_cells(support, y, sizes, gamma, lambda2, n_global)
        assert alpha.tobytes() == expected.tobytes()

    def test_cells_on_the_jitter_ladder_match(self):
        sizes = [6, 9, 6, 9, 6]
        support, y = _layout(11, sizes, 2, duplicate_share=0.5)
        expected, escalations = _cells_one_by_one(support, y, sizes, 1.0, 1e-12, 36)
        assert escalations > 0  # duplicated rows leave the ridge alone on a null space
        alpha = fit_kernel_cells(support, y, sizes, 1.0, 1e-12, 36)
        assert alpha.tobytes() == expected.tobytes()

    def test_exhausted_ladder_raises(self):
        # a negative ridge makes every system indefinite at every jitter step
        support, y = _layout(12, [3, 5], 2)
        with pytest.raises(IllConditionedError):
            _cells_one_by_one(support, y, [3, 5], 0.1, -0.25, 8)
        with pytest.raises(IllConditionedError):
            fit_kernel_cells(support, y, [3, 5], 0.1, -0.25, 8)

    @pytest.mark.parametrize("m", [32, 33, 1025])
    def test_size_group_beyond_the_stack_budget(self, monkeypatch, m):
        # a 32 x 32 Gram has _STACK_CELL_ENTRIES entries and is built in a
        # stack; from 33 x 33 each Gram is built alone, by predict's rule,
        # one cdist per cell written into the chunk's stack
        n_cells = _STACK_ENTRIES // (m * m) + 3
        sizes = [m] * n_cells
        support, y = _layout(13, sizes, 2)
        solves, stacked, routed, alone = [], [], [], []
        solve = hte.local_models.solve_spd_stack_unchecked
        cross_stack = hte.local_models.gaussian_cross_stack
        gram_stack = hte.local_models.gaussian_gram_stack

        def recording_solve(A, B):
            solves.append(len(A))
            return solve(A, B)

        def recording_stack(A, B, gamma):
            stacked.append(A.shape[0])
            return cross_stack(A, B, gamma)

        def recording_gram_stack(P, gamma):
            routed.append(P.shape[0])
            return gram_stack(P, gamma)

        def recording_cdist(XA, XB, metric, **kwargs):
            from scipy.spatial.distance import cdist

            alone.append(len(XA))
            return cdist(XA, XB, metric, **kwargs)

        monkeypatch.setattr(hte.local_models, "solve_spd_stack_unchecked", recording_solve)
        monkeypatch.setattr(hte.local_models, "gaussian_cross_stack", recording_stack)
        monkeypatch.setattr(hte.local_models, "gaussian_gram_stack", recording_gram_stack)
        monkeypatch.setattr(hte.linalg, "_cdist", recording_cdist)
        alpha = fit_kernel_cells(support, y, sizes, 0.7, 1e-3, len(y))
        assert len(solves) > 1 and sum(solves) == n_cells
        assert max(solves) * m * m <= max(_STACK_ENTRIES, m * m)
        if m * m <= _STACK_CELL_ENTRIES:
            assert stacked == solves and routed == [] and alone == []
        else:
            assert stacked == [] and routed == solves and alone == [m] * n_cells
        expected, _ = _cells_one_by_one(support, y, sizes, 0.7, 1e-3, len(y))
        assert alpha.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("broken", ["rows", "targets", "ridge-inf", "ridge-nan"])
    def test_rows_targets_or_ridge_not_finite_raise(self, broken):
        # checked once up front: no system is solved, and no ladder is climbed
        support, y = _layout(15, [4, 4], 2)
        lambda2 = {"ridge-inf": 1e308, "ridge-nan": np.nan}.get(broken, 0.1)
        if broken == "rows":
            support[5, 1] = np.inf
        if broken == "targets":
            y[2] = np.nan
        with pytest.raises(IllConditionedError, match="not finite"):
            fit_kernel_cells(support, y, [4, 4], 1.0, lambda2, 8)

    def test_no_cells(self):
        alpha = fit_kernel_cells(np.empty((0, 2)), np.empty(0), [], 1.0, 0.1, 5)
        assert alpha.shape == (0,)

    def test_rejects_inconsistent_layout(self):
        with pytest.raises(ConfigError):
            fit_kernel_cells(np.zeros((3, 1)), np.zeros(3), [2, 2], 1.0, 0.1, 3)
        with pytest.raises(ConfigError):
            fit_kernel_cells(np.zeros((3, 1)), np.zeros(3), [3, 0], 1.0, 0.1, 3)


class TestPredict:
    def test_constant_cell_value(self):
        model = _kernel_model([2.0])
        assert _predict_one(model, 0, [0.0]) == 2.0

    def test_model_without_kernel_cells_only_gathers(self, monkeypatch):
        # an nht model: the kernel grouping is skipped, and X is never read
        monkeypatch.setattr(KernelCellModel, "_predict_kernel_cells", None)
        model = _kernel_model([4.0, -12.0, 0.5], clip_bound=3.0, fallback=7.0)
        out = model.predict(np.array([2, NO_CELL, 1, 0, 2]), None)
        assert out.tolist() == [0.5, 3.0, -3.0, 3.0, 0.5]
        raw = model.predict(np.array([1, NO_CELL]), None, clipped=False)
        assert raw.tolist() == [-12.0, 7.0]

    def test_single_support_kernel_prediction(self):
        support, alpha = fit_kernel_cell(
            np.array([[0.7]]), np.array([3.0]), gamma=1.0, lambda2=1.0, n_global=1
        )
        model = _kernel_model([(support, alpha)])
        np.testing.assert_allclose(_predict_one(model, 0, [0.7]), 1.5, rtol=1e-15)

    def test_clipping_applies(self):
        # alpha chosen so the raw prediction at the support point is 2.4
        model = _kernel_model([(np.array([[0.0]]), np.array([2.4]))], clip_bound=1.0)
        assert _predict_one(model, 0, [0.0]) == 1.0

    def test_raw_values_available_unclipped(self):
        model = _kernel_model([(np.array([[0.0]]), np.array([2.4]))], clip_bound=1.0)
        raw = model.predict(np.array([0]), np.array([[0.0]]), clipped=False)
        np.testing.assert_allclose(raw, [2.4])

    def test_unassigned_points_get_the_fallback(self):
        model = _kernel_model([5.0], fallback=-1.5)
        out = model.predict(np.array([-1, 0]), np.zeros((2, 1)))
        np.testing.assert_allclose(out, [-1.5, 5.0])

    def test_mixed_cells_in_one_batch(self):
        support = np.array([[0.0], [1.0]])
        alpha = np.array([1.0, -2.0])
        model = _kernel_model([4.0, (support, alpha), -3.0], fallback=0.5)
        X = np.array([[0.3], [0.0], [9.0], [2.0], [0.5]])
        out = model.predict(np.array([1, 0, -1, 2, 1]), X)

        def kernel(x):
            return np.exp(-((x - support[:, 0]) ** 2)) @ alpha

        np.testing.assert_allclose(
            out, [kernel(0.3), 4.0, 0.5, -3.0, kernel(0.5)], rtol=1e-14
        )

    def test_kernel_predictions_are_cell_local(self):
        rng = philox_generator(3)
        X0 = rng.normal(size=(10, 2))
        y0 = rng.normal(size=10)
        X1 = rng.normal(size=(8, 2)) + 10.0
        s0, a0 = fit_kernel_cell(X0, y0, 1.0, 0.1, 18)
        s1a, a1a = fit_kernel_cell(X1, rng.normal(size=8), 1.0, 0.1, 18)
        s1b, a1b = fit_kernel_cell(X1, rng.normal(size=8), 1.0, 0.1, 18)
        model_a = _kernel_model([(s0, a0), (s1a, a1a)])
        model_b = _kernel_model([(s0, a0), (s1b, a1b)])
        queries = rng.normal(size=(25, 2))
        cells = np.zeros(25, dtype=np.int64)
        np.testing.assert_array_equal(
            model_a.predict(cells, queries), model_b.predict(cells, queries)
        )

    def test_clipping_never_increases_training_risk(self):
        rng = philox_generator(4)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            X = rng.normal(size=(n, 2))
            y = rng.normal(size=n)
            bound = float(np.abs(y).max()) or 1.0
            support, alpha = fit_kernel_cell(X, y, 0.5, 1e-9, n)
            model = _kernel_model([(support, alpha)], clip_bound=bound, gamma=0.5)
            cells = np.zeros(n, dtype=np.int64)
            raw = model.predict(cells, X, clipped=False)
            clipped = model.predict(cells, X, clipped=True)
            risk_raw = np.mean((raw - y) ** 2)
            risk_clipped = np.mean((clipped - y) ** 2)
            assert risk_clipped <= risk_raw + 1e-15


def _predict_cell_by_cell(model, cells, X, clipped=True):
    """Reference: each queried kernel cell's ``gaussian_cross(X[r], support) @ alpha``."""
    out = np.full(len(cells), model.fallback)
    for cid in np.unique(cells[cells != NO_CELL]).tolist():
        r = np.flatnonzero(cells == cid)
        lo, hi = model.offsets[cid], model.offsets[cid + 1]
        if hi > lo:
            out[r] = gaussian_cross(X[r], model.support[lo:hi], model.gamma) @ model.alpha[lo:hi]
        else:
            out[r] = model.means[cid]
    return np.clip(out, -model.clip_bound, model.clip_bound) if clipped else out


def _query_layout(seed, shapes, d, n_fallback=0):
    """Kernel model with one cell per (q, m) shape (m = 0: a mean cell), and
    queries in shuffled order: q rows per cell plus ``n_fallback`` unseen rows."""
    rng = philox_generator(seed)
    shapes = [shapes[i] for i in rng.permutation(len(shapes))]
    model = _kernel_model(
        [(rng.normal(size=(m, d)), rng.normal(size=m)) if m else float(rng.normal())
         for _, m in shapes],
        clip_bound=1.5, fallback=0.25, gamma=float(rng.uniform(0.3, 3.0)),
    )
    cells = np.repeat(np.arange(len(shapes)), [q for q, _ in shapes])
    cells = rng.permutation(np.concatenate([cells, np.full(n_fallback, NO_CELL)]))
    return model, cells, rng.normal(size=(len(cells), d))


def _record_kernel_builds(monkeypatch):
    """Record the entry count of every flat kernel pass, and the (q, m)
    shape of every cell built alone, during ``predict``."""
    flat, alone = [], []
    pairs, cross = hte.local_models.gaussian_pairs, hte.local_models.gaussian_cross

    def recording_pairs(A, a_rows, repeats, B, b_rows, gamma):
        flat.append(len(b_rows))
        return pairs(A, a_rows, repeats, B, b_rows, gamma)

    def recording_cross(Xa, Xb, gamma):
        alone.append((len(Xa), len(Xb)))
        return cross(Xa, Xb, gamma)

    monkeypatch.setattr(hte.local_models, "gaussian_pairs", recording_pairs)
    monkeypatch.setattr(hte.local_models, "gaussian_cross", recording_cross)
    monkeypatch.setattr(hte.local_models, "gaussian_cross_stack", None)  # fit's stacks only
    return flat, alone


class TestBatchedKernelPredict:
    @settings(max_examples=80, deadline=None)
    @given(distinct=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                             min_size=1, max_size=5),
           repeats=st.integers(1, 4), n_large=st.integers(0, 2),
           n_fallback=st.integers(0, 5), d=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_cells_predicted_one_by_one(self, distinct, repeats, n_large, n_fallback,
                                                d, seed):
        # repeated shapes are stacked; lone shapes and cells of more than
        # _STACK_CELL_ENTRIES kernel entries are predicted one by one
        big = [(_STACK_CELL_ENTRIES // 31 + 1, 31)] * n_large
        model, cells, X = _query_layout(seed, distinct * repeats + big, d, n_fallback)
        for clipped in (True, False):
            expected = _predict_cell_by_cell(model, cells, X, clipped)
            assert model.predict(cells, X, clipped=clipped).tobytes() == expected.tobytes()

    def test_empty_query(self):
        model, _, _ = _query_layout(1, [(2, 3), (2, 3)], 2)
        assert model.predict(np.empty(0, dtype=np.int64), np.empty((0, 2))).shape == (0,)

    def test_stacks_only_shared_small_shapes(self, monkeypatch):
        # every cell of at most _STACK_CELL_ENTRIES kernel entries, lone
        # shapes included, is built in one flat pass; only larger cells reach
        # gaussian_cross, and no cell a cross stack
        shapes = [(2, 3)] * 5 + [(3, 2), (32, 32)] + [(25, 41)] * 2
        assert 32 * 32 == _STACK_CELL_ENTRIES == 25 * 41 - 1
        model, cells, X = _query_layout(2, shapes, 3)
        flat, alone = _record_kernel_builds(monkeypatch)
        out = model.predict(cells, X)
        assert flat == [5 * 6 + 6 + 1024]
        assert alone == [(25, 41)] * 2
        assert out.tobytes() == _predict_cell_by_cell(model, cells, X).tobytes()

    @pytest.mark.parametrize("q,m", [(3, 5), (16, 32)])
    def test_shape_group_beyond_the_stack_budget(self, monkeypatch, q, m):
        monkeypatch.setattr(hte.local_models, "_FLAT_ENTRIES", 64)
        n_cells = 64 // (q * m) * 3 + 4
        model, cells, X = _query_layout(3, [(q, m)] * n_cells, 2)
        flat, alone = _record_kernel_builds(monkeypatch)
        out = model.predict(cells, X)
        # whole cells per chunk, and at most the budget or one cell
        assert len(flat) > 1 and sum(flat) == n_cells * q * m and not alone
        assert all(n % (q * m) == 0 and n <= max(64, q * m) for n in flat)
        assert out.tobytes() == _predict_cell_by_cell(model, cells, X).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(shapes=st.lists(st.one_of(st.tuples(st.integers(1, 6), st.integers(0, 6)),
                                     st.sampled_from([(32, 32), (25, 41), (1, 1024), (1, 1025)])),
                           min_size=1, max_size=6),
           repeats=st.integers(1, 4), budget=st.integers(1, 200), far=st.booleans(),
           d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_chunks_of_any_budget_match_cells_predicted_one_by_one(self, shapes, repeats, budget,
                                                                   far, d, seed):
        # a small budget splits shape groups across chunks; q * m of 1024 is
        # in the flat pass, 1025 goes alone; a query 1e200 away warns nowhere
        model, cells, X = _query_layout(seed, shapes * repeats, d, n_fallback=1)
        if far:
            X[philox_generator(seed).integers(len(X)), 0] = 1e200
        expected = _predict_cell_by_cell(model, cells, X, clipped=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hte.local_models, "_FLAT_ENTRIES", budget)
            out = model.predict(cells, X, clipped=False)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("overrides", [
        dict(partition="adaptive", min_samples_split=100),
        dict(partition="adaptive", min_samples_split=400),
        dict(partition="grid", n_candidates=3),
    ], ids=["adaptive-100", "adaptive-400", "grid-best-of-3"])
    def test_ensemble_members_match_the_reference(self, overrides):
        model = train_ensemble(gen_counter3d(3000, seed=21),
                               TrainConfig(mode="kht", n_transforms=2, master_seed=4,
                                           **overrides))
        X = model.standardizer.transform(gen_counter3d(2000, seed=22).X)
        for member in model.members:
            cells = assign_many(member.partition, X)
            expected = _predict_cell_by_cell(member.model, cells, X)
            assert member.model.predict(cells, X).tobytes() == expected.tobytes()


class TestNarrowKeys:
    @pytest.mark.parametrize("n_cells, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                                (65_536, np.uint16), (65_537, np.uint32)])
    def test_narrowest_unsigned_dtype_that_holds_every_cell(self, n_cells, dtype):
        keys = narrow_keys(np.arange(n_cells, dtype=np.int64), n_cells - 1)
        assert keys.dtype == dtype
        assert keys.tolist() == list(range(n_cells))

    @settings(max_examples=60, deadline=None)
    @given(top=st.sampled_from([0, 1, 255, 256, 65_535, 65_536, 2**40]),
           n=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
    def test_stable_argsort_of_narrowed_keys_is_the_int64_one(self, top, n, seed):
        rng = philox_generator(seed)
        # half the keys tie on one small value, and top itself is drawn
        keys = rng.integers(0, top + 1, size=n)
        keys[rng.integers(0, 2, size=n) == 1] = rng.integers(0, min(top, 3) + 1)
        keys[: min(n, 1)] = top
        expected = np.argsort(keys, kind="stable")
        assert np.array_equal(np.argsort(narrow_keys(keys, top), kind="stable"), expected)

    @pytest.mark.parametrize("n_cells", [300, 70_000])
    def test_kernel_predict_past_8_and_16_bit_cell_ids(self, n_cells):
        # mostly mean cells; kernel cells of drawn support sizes 1-40
        # scattered over all ids, the last one included, queried in shuffled
        # order with unseen rows
        rng = philox_generator(n_cells)
        kernel = {n_cells - 1, *rng.choice(n_cells, size=60, replace=False).tolist()}

        def entry(cell):
            if cell not in kernel:
                return float(rng.normal())
            m = int(rng.integers(1, 41))
            return rng.normal(size=(m, 2)), rng.normal(size=m)

        model = _kernel_model([entry(c) for c in range(n_cells)], clip_bound=2.0, fallback=0.5,
                              gamma=0.8)
        cells = np.concatenate([np.repeat(sorted(kernel), rng.integers(1, 12, size=len(kernel))),
                                rng.integers(0, n_cells, size=2000), np.full(10, NO_CELL)])
        cells = rng.permutation(cells)
        X = rng.normal(size=(len(cells), 2))
        for clipped in (True, False):
            expected = _predict_cell_by_cell(model, cells, X, clipped)
            assert model.predict(cells, X, clipped=clipped).tobytes() == expected.tobytes()
