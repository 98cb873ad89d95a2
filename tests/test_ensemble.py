import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hte.data import (
    Dataset,
    Standardizer,
    default_scale,
    fit_standardizer,
    gen_counter3d,
    gen_sin16,
)
from hte.ensemble import (
    DEFAULT_CANDIDATE_PAIRS,
    EnsembleModel,
    Member,
    TrainConfig,
    member_predict,
    predict,
    predict_members,
    theoretical_schedule,
    train_ensemble,
    train_member,
)
from hte.errors import ConfigError, DataError, TrainingError
from hte.evaluation import mse
from hte.local_models import ConstantModel, fit_constant
from hte.partition import GridPartition, assign_many, build_grid
from hte.rng import STREAM_CANDIDATE0, STREAM_ROTATION, STREAM_SPLIT, member_generator
from hte.serialize import serialize_model
from hte.transform import HistogramTransform, sample_rotation, sample_stretch


def _member_bytes(model: EnsembleModel, index: int, config: TrainConfig) -> bytes:
    """Member ``index`` as file bytes: a one-member model under a fixed config."""
    return serialize_model(EnsembleModel([model.members[index]], model.standardizer,
                                         config, model.clip_bound))


def _constant_member(value: float) -> Member:
    transform = HistogramTransform(np.eye(1), np.ones(1), np.zeros(1), 1.0, 1.0)
    partition = GridPartition(transform, np.array([[0]]))
    return Member(partition, ConstantModel(values=np.array([value])))


class TestConfigValidation:
    def test_rejects_zero_transforms(self):
        with pytest.raises(ConfigError, match="n_transforms"):
            TrainConfig(n_transforms=0).validate()

    def test_rejects_bad_mode_and_partition(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="svm").validate()
        with pytest.raises(ConfigError):
            TrainConfig(partition="voronoi").validate()

    def test_rejects_best_scored_adaptive(self):
        with pytest.raises(ConfigError):
            TrainConfig(partition="adaptive", n_candidates=3).validate()

    def test_rejects_inverted_scale_window(self):
        with pytest.raises(ConfigError):
            TrainConfig(s_min=2.0, s_max=1.0).validate()

    @pytest.mark.parametrize("field, value", [
        ("gamma", math.nan), ("gamma", math.inf), ("lambda2", math.nan),
        ("lambda2", math.inf), ("clip_bound", math.nan), ("clip_bound", math.inf),
        ("s_min", -math.inf), ("s_max", math.inf),
    ])
    def test_rejects_non_finite_value(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_rejects_non_finite_candidate_pair(self):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(n_candidates=2, candidate_pairs=[(0.0, 1.0), (0.0, math.inf)]).validate()

    def test_rejects_candidate_pair_count_mismatch(self):
        with pytest.raises(ConfigError):
            TrainConfig(n_candidates=2, candidate_pairs=[(0.0, 1.0)]).validate()

    @pytest.mark.parametrize("changes, message", [
        ({"n_candidates": 0}, "n_candidates must be"),
        ({"n_candidates": 2, "validation_fraction": 1.0}, "validation_fraction"),
        ({"n_candidates": 2, "candidate_pairs": [(0.0, 1.0), (1.0, 1.0)]},
         "candidate_pairs needs s_min < s_max"),
        ({"n_candidates": len(DEFAULT_CANDIDATE_PAIRS) + 1},
         "n_candidates exceeds the default candidate grid"),
        ({"min_samples_split": 0}, "min_samples_split"),
        ({"fallback": "median"}, "fallback"),
        ({"k_min": 0}, "k_min"),
        ({"master_seed": -1}, "master_seed"),
    ], ids=["n_candidates", "validation_fraction", "candidate_pairs", "default_grid",
            "min_samples_split", "fallback", "k_min", "master_seed"])
    def test_rejection_names_its_field(self, changes, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**changes).validate()

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            TrainConfig.from_dict({"bogus": 1})

    def test_round_trips_through_dict(self):
        cfg = TrainConfig(
            mode="kht", n_candidates=2, candidate_pairs=[(0.0, 1.0), (1.0, 2.0)],
            master_seed=99,
        )
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestEnsemblePrediction:
    def test_single_member_ensemble_equals_member(self):
        ds = gen_sin16(300, seed=1)
        cfg = TrainConfig(mode="nht", n_transforms=1, master_seed=2)
        model = train_ensemble(ds, cfg)
        X_std = model.standardizer.transform(ds.X)
        member = member_predict(model.members[0], X_std)
        np.testing.assert_array_equal(predict(model, ds.X), member)

    def test_average_of_two_constant_members(self):
        model = EnsembleModel(
            members=[_constant_member(1.0), _constant_member(3.0)],
            standardizer=Standardizer.identity(1),
            config=TrainConfig(n_transforms=2),
            clip_bound=10.0,
        )
        np.testing.assert_array_equal(predict(model, np.array([[0.5]])), [2.0])

    def test_three_member_average(self):
        model = EnsembleModel(
            members=[_constant_member(v) for v in (0.0, 0.0, 3.0)],
            standardizer=Standardizer.identity(1),
            config=TrainConfig(n_transforms=3),
            clip_bound=10.0,
        )
        np.testing.assert_array_equal(predict(model, np.array([[0.5]])), [1.0])

    def test_jensen_dominance(self):
        train = gen_counter3d(600, seed=3)
        test = gen_counter3d(500, seed=4)
        cfg = TrainConfig(mode="nht", n_transforms=7, master_seed=5)
        model = train_ensemble(train, cfg)
        ensemble_mse = mse(predict(model, test.X), test.y)
        member_rows = predict_members(model, test.X)
        member_mean = np.mean([mse(row, test.y) for row in member_rows])
        assert ensemble_mse <= member_mean + 1e-12

    def test_jensen_holds_pointwise(self):
        train = gen_counter3d(800, seed=30)
        test = gen_counter3d(1000, seed=31)
        cfg = TrainConfig(mode="nht", n_transforms=9, master_seed=32)
        model = train_ensemble(train, cfg)
        ensemble_sq = (predict(model, test.X) - test.y) ** 2
        member_sq = (predict_members(model, test.X) - test.y) ** 2
        assert (ensemble_sq <= member_sq.mean(axis=0) + 1e-12).all()

    @pytest.mark.parametrize("mode", ["nht", "kht"])
    @pytest.mark.parametrize("partition", ["grid", "adaptive"])
    def test_running_sum_equals_summing_the_member_matrix(self, mode, partition):
        train = gen_counter3d(600, seed=50)
        query = gen_counter3d(40, seed=51).X
        cfg = TrainConfig(mode=mode, partition=partition, n_transforms=12,
                          min_samples_split=60, standardize_target=True, master_seed=52)
        full = train_ensemble(train, cfg, n_threads=1)
        X_std = full.standardizer.transform(query)
        M = np.vstack([member_predict(m, X_std) for m in full.members])
        for T in range(1, 13):
            model = replace(full, members=full.members[:T])
            expected = full.standardizer.inverse_target(M[:T].sum(axis=0) / T)
            batch = predict(model, query)
            np.testing.assert_array_equal(batch, expected)
            if mode == "nht":
                # members are added in one order for every row, so a row's
                # prediction does not depend on the rest of its batch (a kht
                # member's own rows still do: cells are stacked by query count)
                alone = np.concatenate([predict(model, query[i:i + 1]) for i in range(8)])
                np.testing.assert_array_equal(alone, batch[:8])

    @pytest.mark.parametrize("mode", ["nht", "kht"])
    @pytest.mark.parametrize("partition", ["grid", "adaptive"])
    def test_prediction_does_not_depend_on_the_batch_layout(self, mode, partition):
        ds = gen_counter3d(4000, seed=3)
        X, y = ds.X[:2000], ds.y[:2000]
        cfg = TrainConfig(mode=mode, partition=partition, n_transforms=10,
                          min_samples_split=50)
        model = train_ensemble(Dataset(X, y), cfg)
        # the training rows lie on the medians of an adaptive tree, where the
        # last bit of a rotated value picks the child
        F = np.asfortranarray(X)
        np.testing.assert_array_equal(predict(model, F), predict(model, X))
        np.testing.assert_array_equal(predict_members(model, F), predict_members(model, X))

    def test_predict_dimension_mismatch(self):
        ds = gen_sin16(100, seed=6)
        model = train_ensemble(ds, TrainConfig(n_transforms=1))
        with pytest.raises(DataError):
            predict(model, np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("partition", ["grid", "adaptive"])
    def test_non_finite_query_rejected(self, partition, bad):
        ds = gen_counter3d(300, seed=9)
        model = train_ensemble(ds, TrainConfig(partition=partition, n_transforms=2,
                                               min_samples_split=40))
        X = np.zeros((4, 3))
        X[2, 1] = bad
        for fn in (predict, predict_members):
            with pytest.raises(DataError, match="query row 2 has a non-finite feature"):
                fn(model, X)

    @pytest.mark.parametrize("partition", ["grid", "adaptive"])
    def test_query_overflowing_when_standardized_rejected(self, partition):
        ds = gen_counter3d(500, seed=1)
        model = train_ensemble(ds, TrainConfig(partition=partition, n_transforms=2,
                                               min_samples_split=40))
        assert (model.standardizer.std < 1.0).all()  # 1e308 / std overflows
        X = np.zeros((3, 3))
        X[1] = 1e308
        for fn in (predict, predict_members):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="query row 1 overflows when standardized"):
                    fn(model, X)

    @pytest.mark.parametrize("partition,query", [
        ("grid", [1e308, -1e308, 1e308]),  # overflows in the stretch S x
        ("adaptive", [1.7e308, -1.7e308, 1.7e308]),  # overflows in the rotation R x
    ])
    def test_query_overflowing_in_the_transform_rejected(self, partition, query):
        ds = gen_counter3d(500, seed=1)
        model = train_ensemble(ds, TrainConfig(partition=partition, n_transforms=2,
                                               min_samples_split=40,
                                               standardize_features=False))
        X = np.array([[0.5, 0.5, 0.5], query])
        if partition == "adaptive":  # einsum overflows without a floating-point warning
            with np.errstate(over="ignore", invalid="ignore"):
                rotated = [m.partition.rotation @ X[1] for m in model.members]
            assert not np.isfinite(rotated).all()
        for fn in (predict, predict_members):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError,
                                   match="row 1 overflows in the histogram transform"):
                    fn(model, X)

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("partition", ["grid", "adaptive"])
    def test_training_feature_whose_variance_overflows_rejected(self, partition, standardize):
        ds = gen_counter3d(300, seed=1)
        cfg = TrainConfig(partition=partition, n_transforms=2, min_samples_split=40,
                          standardize_features=standardize)
        huge = ds.X.copy()
        huge[0] = [1e308, -1e308, 1e308]
        with pytest.raises(DataError, match="training feature column 0 is too large"):
            train_ensemble(Dataset(huge, ds.y), cfg)
        # n * d * (2 max|x|)**2 at the largest float: just below trains, just above not
        limit = math.sqrt(np.finfo(np.float64).max / (300 * 3)) / 2
        below, above = ds.X.copy(), ds.X.copy()
        below[5, 1], above[5, 1] = 0.999 * limit, 1.001 * limit
        assert train_ensemble(Dataset(below, ds.y), cfg).total_cells > 0
        with pytest.raises(DataError, match="training feature column 1 is too large"):
            train_ensemble(Dataset(above, ds.y), cfg)

    @pytest.mark.parametrize("partition", ["grid", "adaptive"])
    def test_empty_query_gives_empty_predictions(self, partition):
        model = train_ensemble(gen_counter3d(300, seed=2),
                               TrainConfig(partition=partition, n_transforms=2,
                                           min_samples_split=40))
        assert predict(model, np.empty((0, 3))).shape == (0,)

    def test_huge_finite_queries_get_the_fallback_without_warnings(self):
        ds = gen_counter3d(300, seed=9)
        model = train_ensemble(ds, TrainConfig(n_transforms=2, fallback="global_mean"))
        X = np.array([[1e30, 1e30, 1e30], [-1e30, -1e30, -1e30], [1e30, 0.0, -1e30]])
        fallbacks = np.array([[m.model.fallback] for m in model.members])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            per_member = predict_members(model, X)
        np.testing.assert_array_equal(
            per_member, np.repeat(model.standardizer.inverse_target(fallbacks), 3, axis=1))

    def test_unseen_cells_fall_back_to_zero(self):
        ds = gen_sin16(200, seed=7)
        model = train_ensemble(ds, TrainConfig(n_transforms=3, fallback="zero"))
        np.testing.assert_array_equal(predict(model, np.array([[1e6]])), [0.0])

    def test_unseen_cells_fall_back_to_global_mean(self):
        ds = gen_sin16(200, seed=8)
        model = train_ensemble(
            ds, TrainConfig(n_transforms=3, fallback="global_mean")
        )
        np.testing.assert_allclose(
            predict(model, np.array([[1e6]])), [ds.y.mean()], rtol=1e-15
        )

    @pytest.mark.parametrize("mode", ["nht", "kht"])
    def test_global_mean_fallback_respects_clip_bound(self, mode):
        ds = gen_counter3d(1500, seed=19)
        model = train_ensemble(ds, TrainConfig(mode=mode, n_transforms=2, fallback="global_mean",
                                               clip_bound=0.5, master_seed=20))
        assert abs(ds.y.mean()) > 0.5  # the unclipped fallback breaks the bound
        far = np.full((1, 3), 1e6)  # an unseen cell in every member
        per_member = predict_members(model, np.vstack([ds.X, far]))
        assert np.abs(per_member).max() <= 0.5
        np.testing.assert_array_equal(per_member[:, -1], np.clip(ds.y.mean(), -0.5, 0.5))

    def test_target_standardization_round_trip(self):
        ds = gen_counter3d(400, seed=9)
        cfg = TrainConfig(mode="nht", n_transforms=4, standardize_target=True,
                          master_seed=10)
        model = train_ensemble(ds, cfg)
        pred = predict(model, ds.X)
        assert mse(pred, ds.y) < np.var(ds.y)  # beats the constant-zero baseline


class TestTrainMember:
    @pytest.mark.parametrize("k_min", [1, 3, 12])
    def test_kht_mean_cells_hold_their_target_mean(self, k_min):
        ds = gen_counter3d(3000, seed=8)
        model = train_ensemble(ds, TrainConfig(mode="kht", n_transforms=2, k_min=k_min,
                                               master_seed=1))
        X, y = model.standardizer.transform(ds.X), model.standardizer.transform_target(ds.y)
        for member in model.members:
            cells = assign_many(member.partition, X)
            counts = np.bincount(cells, minlength=member.model.n_cells)
            mean_cells = np.flatnonzero(counts < k_min)
            if k_min == 12:  # numpy sums these pairwise: the per-cell mean path
                assert (counts[mean_cells] >= 8).any()
            expected = np.array([y[cells == c].mean() for c in mean_cells])
            assert member.model.means[mean_cells].tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 3),
           extra=st.integers(1, 5), mode=st.sampled_from(["nht", "kht"]),
           partition=st.sampled_from(["grid", "adaptive"]),
           generator=st.sampled_from([gen_sin16, gen_counter3d]),
           threads=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    @example(seed=12, index=2, extra=5, mode="nht", partition="grid",
             generator=gen_sin16, threads=(None, None))  # T=3 against T=8, default threads
    def test_member_independent_of_total_count(self, seed, index, extra, mode, partition,
                                               generator, threads):
        ds = generator(250, seed=11)
        cfg = TrainConfig(mode=mode, partition=partition, n_transforms=index + 1,
                          min_samples_split=30, master_seed=seed)
        small = train_ensemble(ds, cfg, n_threads=threads[0])
        large = train_ensemble(ds, replace(cfg, n_transforms=index + 1 + extra),
                               n_threads=threads[1])
        for t in range(index + 1):
            assert _member_bytes(small, t, cfg) == _member_bytes(large, t, cfg)

    def test_kernel_cells_are_flat_slices_of_training_rows(self):
        ds = gen_counter3d(300, seed=17)
        cfg = TrainConfig(mode="kht", n_transforms=2, k_min=4, master_seed=18)
        model = train_ensemble(ds, cfg)
        X_std = model.standardizer.transform(ds.X)
        for member in model.members:
            flat = member.model
            cells = assign_many(member.partition, X_std)
            assert flat.gamma == cfg.gamma
            assert flat.offsets[0] == 0 and flat.offsets[-1] == len(flat.alpha)
            assert len(flat.support) == len(flat.alpha)
            for cid in range(member.partition.n_cells):
                rows = np.flatnonzero(cells == cid)
                lo, hi = flat.offsets[cid], flat.offsets[cid + 1]
                if len(rows) >= cfg.k_min:
                    np.testing.assert_array_equal(flat.support[lo:hi], X_std[rows])
                    assert flat.means[cid] == 0.0
                else:
                    assert lo == hi
                    assert flat.means[cid] == ds.y[rows].mean()

    def test_adaptive_members_respect_leaf_bound(self):
        ds = gen_counter3d(800, seed=13)
        cfg = TrainConfig(mode="nht", partition="adaptive", n_transforms=4,
                          min_samples_split=45, master_seed=14)
        model = train_ensemble(ds, cfg)
        X_std = model.standardizer.transform(ds.X)
        for member in model.members:
            counts = np.bincount(assign_many(member.partition, X_std),
                                 minlength=member.partition.n_cells)
            assert counts.max() <= 45

    def test_best_scored_picks_validation_argmin(self):
        ds = gen_sin16(400, seed=15)
        cfg = TrainConfig(mode="nht", n_transforms=1, n_candidates=5, master_seed=77)
        model = train_ensemble(ds, cfg)

        # independent re-derivation of every candidate's validation score
        stz = fit_standardizer(ds)
        X_std = stz.transform(ds.X)
        h_hat, _ = default_scale(X_std)
        rotation = sample_rotation(1, member_generator(77, 0, STREAM_ROTATION))
        perm = member_generator(77, 0, STREAM_SPLIT).permutation(ds.n)
        n_fit = math.ceil(0.7 * ds.n - 1e-9)
        fit_rows, val_rows = perm[:n_fit], perm[n_fit:]
        scores = []
        scales_seen = []
        for i, (s_min, s_max) in enumerate(cfg.resolved_pairs()):
            h_lo, h_hi = h_hat * math.exp(-s_max), h_hat * math.exp(-s_min)
            rng = member_generator(77, 0, STREAM_CANDIDATE0 + i)
            scales, translation = sample_stretch(1, h_lo, h_hi, rng)
            transform = HistogramTransform(rotation, scales, translation, h_lo, h_hi)
            grid, cells = build_grid(transform, X_std[fit_rows])
            cand = Member(
                grid,
                fit_constant(cells, ds.y[fit_rows], grid.n_cells,
                             clip_bound=float(np.abs(ds.y).max())),
            )
            scores.append(mse(member_predict(cand, X_std[val_rows]), ds.y[val_rows]))
            scales_seen.append(scales)
        winner = int(np.argmin(scores))
        assert model.members[0].partition.transform.scales.tobytes() == \
            scales_seen[winner].tobytes()

    def test_tied_scores_keep_candidate_zero(self):
        ds = gen_sin16(300, seed=16)
        flat = type(ds)(ds.X, np.full(ds.n, 4.0))  # constant target: all scores 0
        cfg = TrainConfig(mode="nht", n_transforms=1, n_candidates=5,
                          fallback="global_mean", master_seed=18)
        model = train_ensemble(flat, cfg)
        stz = fit_standardizer(flat)
        h_hat, _ = default_scale(stz.transform(flat.X))
        s_min, s_max = cfg.resolved_pairs()[0]
        rng = member_generator(18, 0, STREAM_CANDIDATE0)
        expected_scales, _ = sample_stretch(
            1, h_hat * math.exp(-s_max), h_hat * math.exp(-s_min), rng
        )
        assert model.members[0].partition.transform.scales.tobytes() == \
            expected_scales.tobytes()

    def test_split_with_empty_side_rejected(self):
        ds = gen_sin16(2, seed=19)
        cfg = TrainConfig(mode="nht", n_transforms=1, n_candidates=2,
                          validation_fraction=0.3, master_seed=20)
        with pytest.raises(TrainingError, match="empty"):
            train_ensemble(ds, cfg)

    def test_train_member_standalone_matches_ensemble(self):
        ds = gen_sin16(150, seed=21)
        cfg = TrainConfig(mode="nht", n_transforms=2, master_seed=22)
        model = train_ensemble(ds, cfg)
        stz = fit_standardizer(ds)
        X_std = stz.transform(ds.X)
        lone = train_member(X_std, ds.y, cfg, member_index=1)
        np.testing.assert_array_equal(
            lone.model.values, model.members[1].model.values
        )


class TestDeterminism:
    @pytest.mark.parametrize("mode,partition", [
        ("nht", "grid"), ("kht", "adaptive"),
    ])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_transforms=st.integers(2, 6),
           n_threads=st.integers(2, 4))
    @example(seed=24, n_transforms=4, n_threads=4)
    def test_thread_count_never_changes_bytes(self, mode, partition, seed, n_transforms,
                                              n_threads):
        ds = gen_counter3d(300, seed=23)
        cfg = TrainConfig(mode=mode, partition=partition, n_transforms=n_transforms,
                          min_samples_split=50, master_seed=seed)
        one = serialize_model(train_ensemble(ds, cfg, n_threads=1))
        many = serialize_model(train_ensemble(ds, cfg, n_threads=n_threads))
        assert one == many


class TestTheoreticalSchedule:
    def test_holder_continuous_width(self):
        schedule = theoretical_schedule(1024, 1, "c0a", alpha=1.0)
        np.testing.assert_allclose(schedule.h_upper, 1024.0 ** (-1.0 / 3.0),
                                   rtol=1e-12)
        np.testing.assert_allclose(schedule.h_upper, 0.09921, atol=5e-6)
        np.testing.assert_allclose(schedule.lam, 1024.0 ** (-4.0 / 3.0), rtol=1e-12)

    def test_differentiable_triple(self):
        schedule = theoretical_schedule(100000, 2, "c1a", alpha=1.0)
        np.testing.assert_allclose(schedule.n_transforms, 10.0, rtol=1e-12)
        np.testing.assert_allclose(schedule.lam, 100000.0 ** (-1.0 / 8.0), rtol=1e-12)
        np.testing.assert_allclose(schedule.h_upper, 100000.0 ** (-0.1), rtol=1e-12)

    def test_smooth_class_keeps_constant_width(self):
        for n in (10, 1000, 10**7):
            schedule = theoretical_schedule(n, 5, "cka", alpha=0.5, k=3)
            assert schedule.h_upper == 1.0
            np.testing.assert_allclose(schedule.gamma,
                                       float(n) ** (-1.0 / (2 * 3.5 + 5)), rtol=1e-12)
            np.testing.assert_allclose(schedule.lambda2, 1.0 / n, rtol=1e-15)

    def test_width_monotone_decreasing_in_n(self):
        for smoothness in ("c0a", "c1a"):
            widths = [
                theoretical_schedule(n, 3, smoothness, alpha=0.7).h_upper
                for n in (10, 100, 1000, 10000)
            ]
            assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_delta_shifts_exponent(self):
        base = theoretical_schedule(4096, 2, "c0a", alpha=1.0, delta=0.0)
        slack = theoretical_schedule(4096, 2, "c0a", alpha=1.0, delta=0.5)
        assert slack.h_upper > base.h_upper

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            theoretical_schedule(1, 1, "c0a", alpha=1.0)
        with pytest.raises(ConfigError):
            theoretical_schedule(100, 1, "c0a", alpha=0.0)
        with pytest.raises(ConfigError):
            theoretical_schedule(100, 1, "c0a", alpha=None)
        with pytest.raises(ConfigError):
            theoretical_schedule(100, 1, "cka", alpha=1.0, k=1)
        with pytest.raises(ConfigError):
            theoretical_schedule(100, 1, "c2a", alpha=1.0)
        with pytest.raises(ConfigError):
            theoretical_schedule(100, 1, "c0a", alpha=1.0, delta=1.0)
