"""Ensemble training and prediction.

An ensemble holds T members, each a partition of the (standardized) input
space plus per-cell regressors, and predicts by averaging the members.  In
best-scored mode each member draws one rotation, tries several candidate
stretch/translation draws whose bin-width windows come from (s_min, s_max)
offset pairs around the heuristic scale, scores each candidate by MSE on a
member-local validation split, and keeps the best.

All randomness is derived from (master_seed, member index, stream), so the
trained model is identical whatever the degree of parallelism.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Standardizer, default_scale, fit_standardizer
from .errors import ConfigError, DataError, TrainingError
from .linalg import valid_gamma
from .local_models import KernelCellModel, fit_constant, fit_kernel_cells, narrow_keys
from .local_models import fit_kernel_cell  # noqa: F401  (benchmarks/perf.py traces it here)
from .partition import AdaptiveTree, GridPartition, assign_many, build_grid, grow_adaptive
from .partition import build_adaptive  # noqa: F401  (benchmarks/perf.py traces it here)
from .rng import STREAM_CANDIDATE0, STREAM_ROTATION, STREAM_SPLIT, member_generator
from .transform import HistogramTransform, first_nonfinite_row, sample_rotation, sample_stretch

MODES = ("nht", "kht")
PARTITIONS = ("grid", "adaptive")
FALLBACK_RULES = ("zero", "global_mean")

# Stretch-offset pairs used for best-scored candidates when none are given.
DEFAULT_CANDIDATE_PAIRS = ((-1.0, 1.0), (0.0, 2.0), (1.0, 3.0), (2.0, 4.0), (3.0, 5.0))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON type name -> (what the message says, test); a bool is not a number,
# and a number must fit a float
_TYPES = {
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "float": ("a number",
              lambda v: isinstance(v, float) or _is_int(v) and abs(v) <= sys.float_info.max),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list", lambda v: isinstance(v, (list, tuple))),
    "dict": ("an object", lambda v: isinstance(v, dict)),
}


def check_type(name: str, value, *kinds: str):
    """``value`` if it has one of the JSON types ``kinds``, else a
    ``ConfigError`` naming ``name``."""
    if not any(_TYPES[kind][1](value) for kind in kinds):
        nouns = " or ".join(_TYPES[kind][0] for kind in kinds)
        raise ConfigError(f"{name} must be {nouns}, got {value!r}")
    return value


def check_pair(name: str, value):
    """``value`` if it is a list of two finite numbers, else a
    ``ConfigError`` naming ``name``."""
    if not (_TYPES["list"][1](value) and len(value) == 2 and all(map(_TYPES["float"][1], value))):
        raise ConfigError(f"{name} must be a pair of numbers, got {value!r}")
    if not all(map(math.isfinite, value)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def check_field(name: str, value, label: str | None = None):
    """``value`` if it has the JSON type of ``TrainConfig`` field ``name``
    (null where the field may be None), a real field's and a candidate
    pair's numbers finite, else a ``ConfigError`` naming ``label`` (by
    default ``name``)."""
    label = label or name
    kind = _FIELD_TYPES[name].removesuffix(" | None")
    if value is None and kind != _FIELD_TYPES[name]:
        return value
    check_type(label, value, kind.partition("[")[0])  # "list[tuple[...]]" is a list
    if name == "candidate_pairs":
        for pair in value:
            check_pair(f"each of {label}", pair)
    elif kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{label} must be finite, got {value!r}")
    return value


@dataclass
class TrainConfig:
    """Everything needed to train an ensemble, minus the data itself.

    ``s_min``/``s_max`` shift the log-scale window around the heuristic
    scale: bin widths run from h_hat * exp(-s_max) to h_hat * exp(-s_min).
    ``lambda2=None`` resolves to 1/n at fit time.  ``clip_bound=None``
    resolves to the largest absolute training target.
    """

    mode: str = "nht"
    partition: str = "grid"
    n_transforms: int = 10
    n_candidates: int = 1
    candidate_pairs: list[tuple[float, float]] | None = None
    s_min: float = 0.0
    s_max: float = 1.0
    min_samples_split: int = 1200
    gamma: float = 1.0
    lambda2: float | None = None
    clip_bound: float | None = None
    fallback: str = "zero"
    k_min: int = 3
    validation_fraction: float = 0.3
    master_seed: int = 0
    standardize_features: bool = True
    standardize_target: bool = False

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            check_field(f.name, getattr(self, f.name))
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.partition not in PARTITIONS:
            raise ConfigError(
                f"partition must be one of {PARTITIONS}, got {self.partition!r}"
            )
        if self.n_transforms < 1:
            raise ConfigError("n_transforms must be an integer >= 1")
        if self.n_candidates < 1:
            raise ConfigError("n_candidates must be an integer >= 1")
        if self.n_candidates > 1 and self.partition != "grid":
            raise ConfigError("best-scored candidates (n_candidates > 1) require grid partitions")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must lie in (0, 1)")
        if self.candidate_pairs is not None:
            if len(self.candidate_pairs) != self.n_candidates:
                raise ConfigError(
                    "candidate_pairs count "
                    f"{len(self.candidate_pairs)} != n_candidates {self.n_candidates}"
                )
            for lo, hi in self.candidate_pairs:
                if not lo < hi:
                    raise ConfigError("each of candidate_pairs needs s_min < s_max")
        elif self.n_candidates > len(DEFAULT_CANDIDATE_PAIRS):
            raise ConfigError(
                "n_candidates exceeds the default candidate grid; "
                "supply candidate_pairs explicitly"
            )
        if not self.s_min < self.s_max:
            raise ConfigError("s_min must be strictly less than s_max")
        if self.min_samples_split < 1:
            raise ConfigError("min_samples_split must be >= 1")
        if not valid_gamma(self.gamma):
            raise ConfigError("gamma must be positive and finite, with a positive finite square")
        if self.lambda2 is not None and self.lambda2 <= 0:
            raise ConfigError("lambda2 must be positive and finite")
        if self.clip_bound is not None and self.clip_bound <= 0:
            raise ConfigError("clip_bound must be positive and finite")
        if self.fallback not in FALLBACK_RULES:
            raise ConfigError(f"fallback must be one of {FALLBACK_RULES}")
        if self.k_min < 1:
            raise ConfigError("k_min must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be a non-negative integer")

    def resolved_pairs(self) -> list[tuple[float, float]]:
        if self.candidate_pairs is not None:
            return [(float(a), float(b)) for a, b in self.candidate_pairs]
        if self.n_candidates == 1:
            return [(self.s_min, self.s_max)]
        return [tuple(p) for p in DEFAULT_CANDIDATE_PAIRS[: self.n_candidates]]

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["candidate_pairs"] is not None:
            out["candidate_pairs"] = [list(p) for p in out["candidate_pairs"]]
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        if cfg.candidate_pairs is not None:
            cfg.candidate_pairs = [tuple(p) for p in cfg.candidate_pairs]
        return cfg


# each field's annotation names its JSON type; "| None" allows null
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


@dataclass
class Member:
    partition: GridPartition | AdaptiveTree
    model: KernelCellModel


@dataclass
class EnsembleModel:
    """Trained ensemble: members, the shared standardizer, config snapshot,
    and ``data_info``, a JSON object on the training file (``hte train``
    puts the target column's key and ``has_header`` there)."""

    members: list[Member]
    standardizer: Standardizer
    config: TrainConfig
    clip_bound: float
    data_info: dict = dataclasses.field(default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.standardizer.mean)

    @property
    def n_transforms(self) -> int:
        return len(self.members)

    @property
    def total_cells(self) -> int:
        return sum(m.partition.n_cells for m in self.members)


def _window(h_hat: float, pair: tuple[float, float],
            names: tuple[str, str]) -> tuple[float, float]:
    """Bin-width bounds ``h_hat * exp(-s_max) <= h_hat * exp(-s_min)`` for an
    offset pair ``(s_min, s_max)`` around the heuristic scale.

    Raises ``ConfigError`` naming the offset (``names`` holds the pair's
    field names) whose bin width is not a positive normal float; only then
    is its reciprocal, a stretch factor bound, finite too.
    """
    widths = []
    for offset, name in zip(pair, names):
        try:
            width = h_hat * math.exp(-offset)
        except OverflowError:  # math.exp raises past the float range
            width = math.inf
        if not sys.float_info.min <= width <= sys.float_info.max:
            raise ConfigError(f"{name} {offset!r} gives the bin width {h_hat!r} * exp({-offset!r})"
                              f" = {width!r}, not a positive normal float")
        widths.append(width)
    h_upper, h_lower = widths
    return h_lower, h_upper


def _fit_cells(
    rows: np.ndarray,
    y: np.ndarray,
    cells: np.ndarray,
    n_cells: int,
    config: TrainConfig,
    clip_bound: float,
    fit_rows: np.ndarray | None = None,
) -> KernelCellModel:
    """Every cell's mean; in kht each cell of at least ``k_min`` rows is a
    kernel cell instead, with mean 0.

    ``y`` and ``cells`` belong to the fitted rows ``rows[fit_rows]`` (all of
    ``rows`` when None); a kernel cell's ids index ``rows`` itself.
    """
    fallback = float(y.mean()) if config.fallback == "global_mean" else 0.0
    means, fallback = fit_constant(cells, y, n_cells, fallback=fallback, clip_bound=clip_bound)
    model = KernelCellModel(
        offsets=np.zeros(n_cells + 1, dtype=np.int64),
        rows=np.empty((0, rows.shape[1])),
        ids=np.empty(0, dtype=np.intp),
        alpha=np.empty(0),
        means=means,
        gamma=config.gamma,
        clip_bound=clip_bound,
        fallback=fallback,
    )
    if config.mode == "kht":
        n_fit = len(y)
        lambda2 = config.lambda2 if config.lambda2 is not None else 1.0 / n_fit
        if not math.isfinite(n_fit * lambda2):
            raise ConfigError(f"lambda2 {lambda2!r} is too large: the ridge "
                              f"{n_fit} * lambda2 overflows")
        counts = np.bincount(cells, minlength=n_cells)
        is_kernel = counts >= config.k_min
        means[is_kernel] = 0.0
        model.offsets[1:] = np.cumsum(np.where(is_kernel, counts, 0))
        by_cell = np.argsort(narrow_keys(cells, n_cells - 1), kind="stable")
        support_rows = by_cell[np.repeat(is_kernel, counts)]
        ids = support_rows if fit_rows is None else fit_rows[support_rows]
        model = dataclasses.replace(model, rows=rows, ids=ids)
        model.alpha = fit_kernel_cells(model.support, y[support_rows], counts[is_kernel],
                                       config.gamma, lambda2, n_fit)
    return model


def member_predict(member: Member, X_std: np.ndarray, clipped: bool = True) -> np.ndarray:
    """Predictions of one member on already-standardized inputs."""
    cells = assign_many(member.partition, X_std)
    return member.model.predict(cells, X_std, clipped=clipped)


def train_member(
    X_std: np.ndarray,
    y_fit: np.ndarray,
    config: TrainConfig,
    member_index: int,
    h_hat: float | None,
    clip_bound: float,
) -> Member:
    """Train one ensemble member on standardized features.

    Depends only on (master_seed, member_index) and the resolved context
    (heuristic scale ``h_hat``, None on adaptive partitions, and clip
    bound), never on the total member count, so members can be trained in
    any order or concurrently.
    """
    n, d = X_std.shape
    rotation = sample_rotation(
        d, member_generator(config.master_seed, member_index, STREAM_ROTATION)
    )

    if config.partition == "adaptive":
        tree, cells = grow_adaptive(rotation, X_std, config.min_samples_split)
        return Member(tree, _fit_cells(X_std, y_fit, cells, tree.n_cells, config, clip_bound))

    pairs = config.resolved_pairs()

    def grid_candidate(i: int, X: np.ndarray, y: np.ndarray,
                       fit_rows: np.ndarray | None = None) -> Member:
        """Candidate i: its window, stretch draw and grid, fit on (X, y), the
        rows ``fit_rows`` of ``X_std`` (all of them when None)."""
        names = ("s_min", "s_max") if config.candidate_pairs is None else (
            f"candidate_pairs[{i}][0]", f"candidate_pairs[{i}][1]")
        h_lower, h_upper = _window(h_hat, pairs[i], names)
        rng = member_generator(config.master_seed, member_index, STREAM_CANDIDATE0 + i)
        scales, translation = sample_stretch(d, h_lower, h_upper, rng)
        transform = HistogramTransform(rotation, scales, translation, h_lower, h_upper)
        grid, cells = build_grid(transform, X)
        return Member(grid, _fit_cells(X_std, y, cells, grid.n_cells, config, clip_bound,
                                       fit_rows))

    if config.n_candidates == 1:
        return grid_candidate(0, X_std, y_fit)

    # best-scored: shared rotation, per-candidate stretch/translation,
    # scored on a member-local validation split
    perm = member_generator(config.master_seed, member_index, STREAM_SPLIT).permutation(n)
    n_fit = int(math.ceil((1.0 - config.validation_fraction) * n - 1e-9))
    fit_rows, val_rows = perm[:n_fit], perm[n_fit:]
    if len(fit_rows) == 0 or len(val_rows) == 0:
        raise TrainingError(
            f"validation split of {n} rows at fraction "
            f"{config.validation_fraction} leaves an empty portion"
        )
    X_fit, y_fit_rows = X_std[fit_rows], y_fit[fit_rows]
    X_val, y_val = X_std[val_rows], y_fit[val_rows]

    best: Member | None = None
    best_score = math.inf
    for i in range(len(pairs)):
        candidate = grid_candidate(i, X_fit, y_fit_rows, fit_rows)
        residual = member_predict(candidate, X_val) - y_val
        score = float(residual @ residual) / len(val_rows)
        if score < best_score:  # strict: ties keep the lowest candidate index
            best, best_score = candidate, score
    return best


def train_ensemble(
    dataset: Dataset, config: TrainConfig, n_threads: int | None = None
) -> EnsembleModel:
    """Train all members; output is independent of the worker thread count.

    Raises ``DataError`` for a feature so large that a variance computed in
    training would overflow.
    """
    config.validate()
    # a centred value is at most 2 max|x| and the rotation is orthogonal, so
    # every variance that standardizing, default_scale and grow_adaptive
    # compute is below n * d * (2 max|x|)**2, finite while max|x| <= limit
    X = dataset.X
    n, d = X.shape
    limit = math.sqrt(np.finfo(np.float64).max / max(n * d, 1)) / 2
    if max(X.max(initial=0.0), -X.min(initial=0.0)) > limit:
        column = int(np.argmax((np.abs(X) > limit).any(axis=0)))
        raise DataError(f"training feature column {column} is too large: its variance overflows")
    standardizer = fit_standardizer(dataset, config.standardize_features,
                                    config.standardize_target)
    X_std = standardizer.transform(dataset.X)
    y_fit = standardizer.transform_target(dataset.y)
    clip_bound = config.clip_bound
    if clip_bound is None:  # the largest |target|, or 1 for an all-zero target
        clip_bound = float(np.abs(y_fit).max()) or 1.0
    h_hat = default_scale(X_std) if config.partition == "grid" else None

    def _one(t: int) -> Member:
        return train_member(X_std, y_fit, config, t, h_hat, clip_bound)

    indices = range(config.n_transforms)
    if n_threads is None:
        n_threads = os.cpu_count() or 1
    if n_threads <= 1 or config.n_transforms == 1:
        members = [_one(t) for t in indices]
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            members = list(pool.map(_one, indices))
    return EnsembleModel(members, standardizer, config, clip_bound)


def _standardize_queries(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    """Query rows standardized for the members, C-contiguous whatever the
    layout of X, so that a prediction does not depend on it.

    Raises ``DataError`` naming the first query row that has a NaN or inf
    or overflows to inf when standardized.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    with np.errstate(over="ignore"):
        X_std = model.standardizer.transform(X)
    row = first_nonfinite_row(X_std)  # NaN and inf stay non-finite when standardized
    if row is not None:
        finite_input = np.isfinite(X[row]).all()
        problem = "overflows when standardized" if finite_input else "has a non-finite feature"
        raise DataError(f"query row {row} {problem}")
    return X_std


def predict_members(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    """Per-member predictions in original target units, shape (T, q)."""
    X_std = _standardize_queries(model, X)
    M = np.vstack([member_predict(m, X_std) for m in model.members])
    return model.standardizer.inverse_target(M)


def predict(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    """Ensemble prediction: the member average, de-standardized.

    Members are added in order into one running sum, so a row's prediction
    does not depend on the other rows of its batch.
    """
    X_std = _standardize_queries(model, X)
    total = member_predict(model.members[0], X_std)  # a new array, safe to add into
    for member in model.members[1:]:
        total += member_predict(member, X_std)
    return model.standardizer.inverse_target(total / len(model.members))


SMOOTHNESS_CLASSES = ("c0a", "c1a", "cka")


@dataclass
class Schedule:
    """Parameter schedule evaluated from the convergence-rate recipes."""

    smoothness: str
    n: int
    d: int
    alpha: float
    k: int | None
    delta: float
    lam: float
    h_upper: float
    n_transforms: float
    gamma: float | None = None
    lambda2: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def theoretical_schedule(
    n: int,
    d: int,
    smoothness: str,
    alpha: float | None = None,
    k: int | None = None,
    delta: float = 0.0,
) -> Schedule:
    """Evaluate the published parameter schedules as executable presets.

    * c0a — Hoelder-continuous targets: both the penalty weight and the bin
      width shrink polynomially; ensembling does not change the rate, so the
      suggested member count is 1.
    * c1a — differentiable targets: the member count grows as
      n**(2 alpha / (2 (1+alpha) (2-delta) + d)) alongside a shrinking bin
      width; this is the regime where ensembles provably beat singles.
    * cka — k >= 2 times differentiable targets: cells stay at constant
      width (h_upper = 1) and the per-cell Gaussian kernel does the work,
      with gamma shrinking and lambda2 = 1/n.

    ``delta`` is a slack constant in (0, 1); its asymptotic limit 0 is the
    default.
    """
    smoothness = smoothness.lower()
    if smoothness not in SMOOTHNESS_CLASSES:
        raise ConfigError(f"smoothness must be one of {SMOOTHNESS_CLASSES}")
    n = int(n)
    d = int(d)
    if n < 2:
        raise ConfigError("n must be an integer >= 2")
    if d < 1:
        raise ConfigError("d must be >= 1")
    if alpha is None or not 0.0 < float(alpha) <= 1.0:
        raise ConfigError("alpha is required and must lie in (0, 1]")
    alpha = float(alpha)
    if not 0.0 <= delta < 1.0:
        raise ConfigError("delta must lie in [0, 1)")
    nf = float(n)

    if smoothness == "c0a":
        denom = 2.0 * alpha * (1.0 + delta) + d
        return Schedule(
            smoothness, n, d, alpha, None, delta,
            lam=nf ** (-2.0 * (alpha + d) / denom),
            h_upper=nf ** (-1.0 / denom),
            n_transforms=1.0,
        )
    if smoothness == "c1a":
        denom = 2.0 * (1.0 + alpha) * (2.0 - delta) + d
        return Schedule(
            smoothness, n, d, alpha, None, delta,
            lam=nf ** (-1.0 / (2.0 * (1.0 + alpha) + 2.0 * d)),
            h_upper=nf ** (-1.0 / denom),
            n_transforms=nf ** (2.0 * alpha / denom),
        )
    if k is None or int(k) < 2:
        raise ConfigError("smoothness cka requires an integer k >= 2")
    k = int(k)
    denom = 2.0 * (k + alpha) + d
    rate = nf ** (-1.0 / denom)
    return Schedule(
        smoothness, n, d, alpha, k, delta,
        lam=rate,
        h_upper=1.0,
        n_transforms=1.0,
        gamma=rate,
        lambda2=1.0 / nf,
    )
