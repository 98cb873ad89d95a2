"""Metrics, convergence slopes and parameter-study orchestration.

A study runs its grid points and their repetitions one after another, so
that no repetition's training time contends with another's; each
repetition trains its members on ``n_threads`` threads.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import gen_counter3d, gen_sin16
from .ensemble import TrainConfig, check_field, check_pair, check_type, predict, train_ensemble
from .errors import ConfigError
from .rng import mix64

GENERATORS = {"sin16": gen_sin16, "counter3d": gen_counter3d}

TABLE_FIELDS = ["reps", "mse_mean", "mse_std", "art_mean_s", "predict_time_s"]

# grid keys that address the data setup rather than the train config
_SETUP_KEYS = {"n_train", "n_test"}


def mse(pred: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error between predictions and targets."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(pred) != len(y):
        raise ConfigError(f"length mismatch: {len(pred)} predictions vs {len(y)} targets")
    if len(y) == 0:
        raise ConfigError("mse of zero samples is undefined")
    diff = pred - y
    return float(diff @ diff) / len(y)


def art(times) -> float:
    """Average running time: the arithmetic mean of per-run training seconds."""
    times = list(times)
    if not times:
        raise ConfigError("art of an empty list is undefined")
    return float(np.mean(times))


def convergence_slope(points) -> tuple[float, float]:
    """OLS fit of log(mse) against log(n); returns (slope, intercept)."""
    pts = [(float(n), float(m)) for n, m in points]
    ns = np.array([p[0] for p in pts])
    ms = np.array([p[1] for p in pts])
    if len(set(ns.tolist())) < 2:
        raise ConfigError("need at least 2 distinct sample sizes")
    if np.any(ms <= 0):
        raise ConfigError("mse values must be positive for a log-log fit")
    x = np.log(ns)
    z = np.log(ms)
    x_c = x - x.mean()
    slope = float((x_c @ (z - z.mean())) / (x_c @ x_c))
    intercept = float(z.mean() - slope * x.mean())
    return slope, intercept


@dataclass
class StudySetup:
    """A whole parameter study: its data source, grid, repetitions and seed.

    ``grid`` maps each key it varies (a ``TrainConfig`` field, ``n_train``,
    ``n_test``, or ``pair``, an ``(s_min, s_max)`` window) to a list of
    values; every point of their cartesian product trains ``repetitions``
    times on fresh data, starting from ``config``.
    """

    generator: str
    grid: dict
    n_train: int = 1000
    n_test: int = 1000
    repetitions: int = 1
    seed: int = 0
    config: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "StudySetup":
        """A study config as JSON holds it: the fields by name, ``config``
        under the key ``train``; ``generator`` and ``grid`` are required."""
        known = {f.name for f in fields(cls)} - {"config"} | {"train"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown study keys: {', '.join(unknown)}")
        if "grid" not in raw or "generator" not in raw:
            raise ConfigError("study config needs 'grid' and 'generator'")
        config = TrainConfig.from_dict(check_type("train", raw.get("train", {}), "dict"))
        setup = cls(**{k: v for k, v in raw.items() if k != "train"}, config=config)
        setup.validate()
        return setup

    def validate(self) -> None:
        check_type("generator", self.generator, "str")
        for name in ("n_train", "n_test", "repetitions", "seed"):
            check_type(name, getattr(self, name), "int")
        grid = check_type("grid", self.grid, "dict")
        unknown = set(grid) - {f.name for f in fields(TrainConfig)} - _SETUP_KEYS - {"pair"}
        if unknown:
            raise ConfigError(f"unknown grid keys: {', '.join(sorted(map(str, unknown)))}")
        for key, values in grid.items():
            label = f"grid value of {key!r}"
            # types and finite numbers here; TrainConfig.validate's range
            # checks run per point, where a failure is an error row
            for value in check_type(f"grid key {key!r}", values, "list"):
                if key in _SETUP_KEYS:
                    check_type(label, value, "int")
                elif key == "pair":
                    check_pair(label, value)
                else:
                    check_field(key, value, label)
        if self.generator not in GENERATORS:
            raise ConfigError(
                f"unknown generator {self.generator!r}; choose from {sorted(GENERATORS)}"
            )
        if self.n_train < 2 or self.n_test < 1:
            raise ConfigError("need n_train >= 2 and n_test >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")


@dataclass
class StudyResult:
    """Aggregated outcome of all repetitions at one grid point."""

    params: dict
    repetitions: int
    mse_mean: float
    mse_std: float
    art_mean_s: float
    predict_time_s: float
    error: str | None = None


def _apply_point(setup: StudySetup, point: dict) -> StudySetup:
    config_updates = {}
    setup_updates = {}
    for key, value in point.items():
        if key in _SETUP_KEYS:
            setup_updates[key] = value
        elif key == "pair":
            config_updates["s_min"] = float(value[0])
            config_updates["s_max"] = float(value[1])
        else:
            config_updates[key] = value
    config = replace(setup.config, **config_updates)
    return replace(setup, config=config, **setup_updates)


def _run_point(
    setup: StudySetup, point: dict, point_index: int, n_threads: int | None
) -> StudyResult:
    local = _apply_point(setup, point)
    local.config.validate()
    gen, seed, repetitions = GENERATORS[local.generator], local.seed, local.repetitions
    errors, train_times, predict_times = [], [], []
    for rep in range(repetitions):
        train = gen(local.n_train, mix64(seed, point_index, rep, 0))
        test = gen(local.n_test, mix64(seed, point_index, rep, 1))
        config = replace(local.config, master_seed=mix64(seed, point_index, rep, 2))
        t0 = time.perf_counter()
        model = train_ensemble(train, config, n_threads=n_threads)
        t1 = time.perf_counter()
        pred = predict(model, test.X)
        t2 = time.perf_counter()
        errors.append(mse(pred, test.y))
        train_times.append(t1 - t0)
        predict_times.append(t2 - t1)
    errors = np.array(errors)
    return StudyResult(
        params=dict(point),
        repetitions=repetitions,
        mse_mean=float(errors.mean()),
        mse_std=float(errors.std(ddof=1)) if repetitions > 1 else 0.0,
        art_mean_s=art(train_times),
        predict_time_s=float(np.mean(predict_times)),
    )


def run_study(setup: StudySetup, n_threads: int | None = None) -> list[StudyResult]:
    """Train/evaluate over the cartesian product of the grid values.

    Every repetition regenerates its data and master seed from (seed, grid
    point index, repetition index), so MSE columns are reproducible run to
    run.  An empty grid is one point.  A failing grid point is recorded
    with its error message and the study continues.
    """
    setup.validate()
    grid = setup.grid or {"_": [None]}
    keys = list(grid.keys())
    results = []
    for index, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        point = {k: v for k, v in zip(keys, combo) if k != "_"}
        try:
            results.append(_run_point(setup, point, index, n_threads))
        except Exception as exc:  # noqa: BLE001 - study must survive bad points
            nan = float("nan")
            results.append(StudyResult(dict(point), setup.repetitions, nan, nan, nan, nan,
                                       error=f"{type(exc).__name__}: {exc}"))
    return results


def _param_columns(results: list[StudyResult]) -> list[str]:
    seen: dict[str, None] = {}
    for res in results:
        for key in res.params:
            seen.setdefault(key, None)
    return [f"param.{k}" for k in seen]


def _result_row(res: StudyResult, param_cols: list[str]) -> dict:
    row = {}
    for col in param_cols:
        value = res.params.get(col[len("param.") :], "")
        row[col] = value if not isinstance(value, (list, tuple)) else repr(tuple(value))
    row.update(
        reps=res.repetitions,
        mse_mean=res.mse_mean,
        mse_std=res.mse_std,
        art_mean_s=res.art_mean_s,
        predict_time_s=res.predict_time_s,
    )
    if res.error:
        row["error"] = res.error
    return row


def write_study_csv(results: list[StudyResult], stream) -> None:
    """Write one CSV row per grid point: param.* columns then the metrics."""
    param_cols = _param_columns(results)
    has_errors = any(r.error for r in results)
    fields = param_cols + TABLE_FIELDS + (["error"] if has_errors else [])
    writer = csv.DictWriter(stream, fieldnames=fields)
    writer.writeheader()
    for res in results:
        writer.writerow(_result_row(res, param_cols))


def write_study_json(results: list[StudyResult], stream) -> None:
    param_cols = _param_columns(results)
    rows = [_result_row(res, param_cols) for res in results]
    json.dump(rows, stream, indent=2, sort_keys=True)
    stream.write("\n")
