import io
import json
import math
import time

import numpy as np
import pytest

from hte.data import gen_sin16
from hte.ensemble import TrainConfig, predict, train_ensemble
from hte.errors import ConfigError
from hte.evaluation import (
    StudySetup,
    art,
    convergence_slope,
    mse,
    run_study,
    write_study_csv,
    write_study_json,
)
from hte.rng import mix64, philox_generator


class TestMse:
    def test_zero_for_perfect_fit(self):
        y = philox_generator(1).normal(size=20)
        assert mse(y, y) == 0.0

    def test_constant_offset(self):
        y = philox_generator(2).normal(size=50)
        np.testing.assert_allclose(mse(y + 0.5, y), 0.25, rtol=1e-12)

    def test_hand_sum(self):
        assert mse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 5.0])) == 5.0 / 3.0

    def test_permutation_invariant(self):
        rng = philox_generator(3)
        pred = rng.normal(size=30)
        y = rng.normal(size=30)
        perm = rng.permutation(30)
        np.testing.assert_allclose(mse(pred, y), mse(pred[perm], y[perm]), rtol=1e-15)

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ConfigError):
            mse(np.zeros(3), np.zeros(4))
        with pytest.raises(ConfigError):
            mse(np.zeros(0), np.zeros(0))


class TestArt:
    def test_mean(self):
        assert art([1.0, 2.0, 3.0]) == 2.0

    def test_singleton(self):
        assert art([7.0]) == 7.0

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            art([])

    def test_repeated_fixed_workload_reports_spread(self):
        def workload():
            t0 = time.perf_counter()
            sum(i * i for i in range(20000))
            return time.perf_counter() - t0

        times = [workload() for _ in range(50)]
        mean = art(times)
        cv = float(np.std(times) / mean)
        print(f"fixed workload: art={mean:.6f}s cv={cv:.3f}")
        assert mean > 0.0
        assert np.isfinite(cv)


class TestConvergenceSlope:
    def test_exact_power_law(self):
        points = [(n, 123.0 / n) for n in (10, 100, 1000)]
        slope, intercept = convergence_slope(points)
        np.testing.assert_allclose(slope, -1.0, atol=1e-10)

    def test_line_through_two_points(self):
        slope, intercept = convergence_slope([(10, 1.0), (1000, 0.01)])
        np.testing.assert_allclose(slope, -1.0, atol=1e-12)
        np.testing.assert_allclose(np.exp(intercept + slope * np.log(10)), 1.0,
                                   rtol=1e-10)

    def test_rescaling_shifts_only_the_intercept(self):
        points = [(n, 5.0 * n ** -0.6) for n in (16, 64, 256, 1024)]
        scaled = [(n, 3.0 * m) for n, m in points]
        s1, i1 = convergence_slope(points)
        s2, i2 = convergence_slope(scaled)
        assert s1 == s2
        np.testing.assert_allclose(i2 - i1, np.log(3.0), rtol=1e-12)

    def test_noisy_power_law_monte_carlo(self):
        truth = -0.7
        worst = 0.0
        for trial in range(100):
            rng = philox_generator(trial, 555)
            ns = np.logspace(2, 4, 5)
            noise = rng.normal(scale=0.01, size=5)
            points = [(n, 2.0 * n**truth * np.exp(e)) for n, e in zip(ns, noise)]
            slope, _ = convergence_slope(points)
            worst = max(worst, abs(slope - truth))
        assert worst <= 0.05

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ConfigError):
            convergence_slope([(10, 1.0)])
        with pytest.raises(ConfigError):
            convergence_slope([(10, 1.0), (10, 2.0)])
        with pytest.raises(ConfigError):
            convergence_slope([(10, 1.0), (100, 0.0)])


def _tiny_setup(grid, repetitions, seed):
    config = TrainConfig(mode="nht", n_transforms=2)
    return StudySetup("sin16", grid, n_train=100, n_test=50, repetitions=repetitions,
                      seed=seed, config=config)


class TestRunStudy:
    def test_single_point_single_rep_equals_direct_run(self):
        setup = _tiny_setup({"n_transforms": [3]}, repetitions=1, seed=9)
        [result] = run_study(setup)

        train = gen_sin16(100, mix64(9, 0, 0, 0))
        test = gen_sin16(50, mix64(9, 0, 0, 1))
        from dataclasses import replace

        config = replace(setup.config, n_transforms=3, master_seed=mix64(9, 0, 0, 2))
        model = train_ensemble(train, config)
        expected = mse(predict(model, test.X), test.y)
        assert result.mse_mean == expected
        assert result.repetitions == 1
        assert result.mse_std == 0.0

    def test_grid_bookkeeping(self):
        results = run_study(
            _tiny_setup({"n_transforms": [1, 2], "n_train": [60, 80, 100]}, repetitions=3, seed=1)
        )
        assert len(results) == 6
        assert all(r.repetitions == 3 for r in results)
        assert all(np.isfinite(r.mse_mean) for r in results)

    def test_deterministic_mse_columns(self):
        grid = {"n_transforms": [1, 3]}
        a = run_study(_tiny_setup(grid, repetitions=2, seed=4))
        b = run_study(_tiny_setup(grid, repetitions=2, seed=4))
        assert [r.mse_mean for r in a] == [r.mse_mean for r in b]
        assert [r.mse_std for r in a] == [r.mse_std for r in b]

    def test_failing_grid_point_recorded_not_fatal(self):
        results = run_study(_tiny_setup({"n_transforms": [2, 0]}, repetitions=1, seed=2))
        assert np.isfinite(results[0].mse_mean) and results[0].error is None
        assert results[1].error is not None and np.isnan(results[1].mse_mean)

    def test_pair_key_sets_scale_window(self):
        results = run_study(
            _tiny_setup({"pair": [(0.0, 1.0), (1.0, 2.0)]}, repetitions=1, seed=3)
        )
        assert len(results) == 2
        assert results[0].params["pair"] == (0.0, 1.0)

    @pytest.mark.parametrize("setup, named", [
        (StudySetup("sin16", {"n_transforms": 3}), "grid key 'n_transforms' must be a list"),
        (StudySetup("sin16", [3]), "grid must be an object"),
        (StudySetup("sin16", {"n_transfroms": [3]}), "unknown grid keys: n_transfroms"),
        (StudySetup("sin16", {}, n_test="50"), "n_test must be an integer"),
        (StudySetup("sin16", {}, repetitions=0), "repetitions must be >= 1"),
        # checked before the first point trains, not truncated by int()
        (StudySetup("sin16", {"n_train": [60, 50.9]}), "grid value of 'n_train' must be an int"),
        (StudySetup("sin16", {"n_test": [20, True]}), "grid value of 'n_test' must be an int"),
        # a pair is two numbers: it was an error row, a silently cut window,
        # a ValueError row and an s_min of 1.0
        *[(StudySetup("sin16", {"pair": [[0.0, 1.0], pair]}),
           r"grid value of 'pair' must be a pair of numbers, got " + named)
          for pair, named in [(5, "5"), ([0, 1, 2], r"\[0, 1, 2\]"),
                              (["a", "b"], r"\['a', 'b'\]"), ([True, 2], r"\[True, 2\]")]],
        # a grid value of a TrainConfig field has its JSON type, and a number
        # in a real field or a pair is finite: each was an error row
        (StudySetup("sin16", {"pair": [[math.nan, 1]]}),
         r"grid value of 'pair' must be finite, got \[nan, 1\]"),
        (StudySetup("sin16", {"s_min": [math.nan]}), "grid value of 's_min' must be finite"),
        (StudySetup("sin16", {"gamma": ["a"]}), "grid value of 'gamma' must be a number"),
        (StudySetup("sin16", {"n_transforms": [2.5]}),
         "grid value of 'n_transforms' must be an integer"),
    ])
    def test_invalid_setup_is_a_config_error_naming_its_field(self, setup, named):
        with pytest.raises(ConfigError, match=named):
            run_study(setup)

    def test_from_dict_fills_the_defaults_and_reads_train_as_config(self):
        setup = StudySetup.from_dict({"generator": "sin16", "grid": {"k_min": [1, 2]},
                                      "train": {"mode": "kht"}})
        assert setup == StudySetup("sin16", {"k_min": [1, 2]}, n_train=1000, n_test=1000,
                                   repetitions=1, seed=0, config=TrainConfig(mode="kht"))
        with pytest.raises(ConfigError, match="unknown study keys: config"):
            StudySetup.from_dict({"generator": "sin16", "grid": {}, "config": {}})

    def test_csv_and_json_emission(self):
        results = run_study(_tiny_setup({"n_transforms": [1, 2]}, repetitions=1, seed=5))
        csv_buf = io.StringIO()
        write_study_csv(results, csv_buf)
        lines = csv_buf.getvalue().strip().splitlines()
        assert lines[0] == "param.n_transforms,reps,mse_mean,mse_std,art_mean_s,predict_time_s"
        assert len(lines) == 3

        json_buf = io.StringIO()
        write_study_json(results, json_buf)
        rows = json.loads(json_buf.getvalue())
        assert len(rows) == 2
        assert rows[0]["param.n_transforms"] == 1
        assert set(rows[0]) >= {"reps", "mse_mean", "mse_std", "art_mean_s",
                                "predict_time_s"}
