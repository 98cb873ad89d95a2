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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Standardizer, default_scale, fit_standardizer
from .errors import ConfigError, DataError, TrainingError
from .local_models import ConstantModel, KernelCellModel, fit_constant, fit_kernel_cells
from .local_models import fit_kernel_cell  # noqa: F401  (benchmarks/perf.py traces it here)
from .partition import AdaptiveTree, GridPartition, assign_many, build_adaptive, build_grid
from .rng import STREAM_CANDIDATE0, STREAM_ROTATION, STREAM_SPLIT, member_generator
from .transform import HistogramTransform, sample_rotation, sample_stretch

MODES = ("nht", "kht")
PARTITIONS = ("grid", "adaptive")
FALLBACK_RULES = ("zero", "global_mean")

# Stretch-offset pairs used for best-scored candidates when none are given.
DEFAULT_CANDIDATE_PAIRS = ((-1.0, 1.0), (0.0, 2.0), (1.0, 3.0), (2.0, 4.0), (3.0, 5.0))

# numpy sums 8 or more values pairwise, so from this many rows a cell's
# ``ndarray.mean`` may differ in the last bit from a running sum
_PAIRWISE_MIN = 8


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
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.partition not in PARTITIONS:
            raise ConfigError(
                f"partition must be one of {PARTITIONS}, got {self.partition!r}"
            )
        if not isinstance(self.n_transforms, int) or self.n_transforms < 1:
            raise ConfigError("n_transforms must be an integer >= 1")
        if not isinstance(self.n_candidates, int) or self.n_candidates < 1:
            raise ConfigError("n_candidates must be an integer >= 1")
        if self.n_candidates > 1:
            if self.partition != "grid":
                raise ConfigError("best-scored candidates require grid partitions")
            if not 0.0 < self.validation_fraction < 1.0:
                raise ConfigError("validation_fraction must lie in (0, 1)")
        if self.candidate_pairs is not None:
            if len(self.candidate_pairs) != self.n_candidates:
                raise ConfigError(
                    "candidate_pairs count "
                    f"{len(self.candidate_pairs)} != n_candidates {self.n_candidates}"
                )
            for lo, hi in self.candidate_pairs:
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ConfigError("each of candidate_pairs needs finite offsets")
                if not lo < hi:
                    raise ConfigError("each of candidate_pairs needs s_min < s_max")
        elif self.n_candidates > len(DEFAULT_CANDIDATE_PAIRS):
            raise ConfigError(
                "n_candidates exceeds the default candidate grid; "
                "supply candidate_pairs explicitly"
            )
        if not (math.isfinite(self.s_min) and math.isfinite(self.s_max)):
            raise ConfigError("s_min and s_max must be finite")
        if not self.s_min < self.s_max:
            raise ConfigError("s_min must be strictly less than s_max")
        if self.min_samples_split < 1:
            raise ConfigError("min_samples_split must be >= 1")
        # NaN fails every comparison, so "not 0 < v < inf" rejects it too
        if not 0 < self.gamma < math.inf:
            raise ConfigError("gamma must be positive and finite")
        if self.lambda2 is not None and not 0 < self.lambda2 < math.inf:
            raise ConfigError("lambda2 must be positive and finite")
        if self.clip_bound is not None and not 0 < self.clip_bound < math.inf:
            raise ConfigError("clip_bound must be positive and finite")
        if self.fallback not in FALLBACK_RULES:
            raise ConfigError(f"fallback must be one of {FALLBACK_RULES}")
        if self.k_min < 1:
            raise ConfigError("k_min must be >= 1")
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
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
        data = dict(raw)
        if data.get("candidate_pairs") is not None:
            data["candidate_pairs"] = [tuple(p) for p in data["candidate_pairs"]]
        cfg = cls(**data)
        cfg.validate()
        return cfg


@dataclass
class Member:
    partition: GridPartition | AdaptiveTree
    model: ConstantModel | KernelCellModel


@dataclass
class EnsembleModel:
    """Trained ensemble: members, the shared standardizer, config snapshot."""

    members: list[Member]
    standardizer: Standardizer
    config: TrainConfig
    clip_bound: float

    @property
    def d(self) -> int:
        return len(self.standardizer.mean)

    @property
    def n_transforms(self) -> int:
        return len(self.members)

    @property
    def total_cells(self) -> int:
        return sum(m.partition.n_cells for m in self.members)


def _window(h_hat: float, pair: tuple[float, float]) -> tuple[float, float]:
    """Bin-width bounds for an offset pair around the heuristic scale."""
    s_min, s_max = pair
    return h_hat * math.exp(-s_max), h_hat * math.exp(-s_min)


def _fit_cells(
    X: np.ndarray,
    y: np.ndarray,
    cells: np.ndarray,
    n_cells: int,
    config: TrainConfig,
    clip_bound: float,
) -> ConstantModel | KernelCellModel:
    fallback = float(y.mean()) if config.fallback == "global_mean" else 0.0
    if config.mode == "nht":
        return fit_constant(cells, y, n_cells, fallback=fallback, clip_bound=clip_bound)
    n_fit = len(y)
    lambda2 = config.lambda2 if config.lambda2 is not None else 1.0 / n_fit
    if not math.isfinite(n_fit * lambda2):
        raise ConfigError(f"lambda2 {lambda2!r} is too large: the ridge "
                          f"{n_fit} * lambda2 overflows")
    counts = np.bincount(cells, minlength=n_cells)
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise TrainingError(f"cell {empty} received no training samples")
    order = np.argsort(cells, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))
    is_kernel = counts >= config.k_min
    offsets = np.concatenate(([0], np.cumsum(np.where(is_kernel, counts, 0))))
    support_rows = order[np.repeat(is_kernel, counts)]
    support = X[support_rows]
    alpha = fit_kernel_cells(
        support, y[support_rows], counts[is_kernel], config.gamma, lambda2, n_fit
    )
    # bincount adds each cell's targets in row order, the order of ``order``;
    # below _PAIRWISE_MIN rows ``ndarray.mean`` adds them the same way
    sums = np.bincount(cells, weights=y, minlength=n_cells)
    means = np.where(is_kernel, 0.0, sums / counts)
    for cid in np.flatnonzero(~is_kernel & (counts >= _PAIRWISE_MIN)).tolist():
        means[cid] = y[order[starts[cid] : starts[cid + 1]]].mean()
    return KernelCellModel(
        offsets=offsets,
        support=support,
        alpha=alpha,
        means=means,
        gamma=config.gamma,
        clip_bound=clip_bound,
        fallback=fallback,
    )


def member_predict(member: Member, X_std: np.ndarray, clipped: bool = True) -> np.ndarray:
    """Predictions of one member on already-standardized inputs."""
    cells = assign_many(member.partition, X_std)
    if isinstance(member.model, KernelCellModel):
        return member.model.predict(cells, X_std, clipped=clipped)
    return member.model.predict(cells, X_std)


def train_member(
    X_std: np.ndarray,
    y_fit: np.ndarray,
    config: TrainConfig,
    member_index: int,
    h_hat: float | None = None,
    clip_bound: float | None = None,
) -> Member:
    """Train one ensemble member on standardized features.

    Depends only on (master_seed, member_index) and the resolved context
    (heuristic scale, clip bound), never on the total member count, so
    members can be trained in any order or concurrently.
    """
    n, d = X_std.shape
    if clip_bound is None:
        clip_bound = _resolve_clip(config, y_fit)
    rotation = sample_rotation(
        d, member_generator(config.master_seed, member_index, STREAM_ROTATION)
    )

    if config.partition == "adaptive":
        tree = build_adaptive(rotation, X_std, config.min_samples_split)
        cells = assign_many(tree, X_std)
        model = _fit_cells(X_std, y_fit, cells, tree.n_cells, config, clip_bound)
        return Member(tree, model)

    if h_hat is None:
        h_hat, _ = default_scale(X_std)
    pairs = config.resolved_pairs()

    def grid_candidate(i: int, X: np.ndarray, y: np.ndarray) -> Member:
        """Candidate i: its window, stretch draw and grid, fit on (X, y)."""
        h_lower, h_upper = _window(h_hat, pairs[i])
        rng = member_generator(config.master_seed, member_index, STREAM_CANDIDATE0 + i)
        scales, translation = sample_stretch(d, h_lower, h_upper, rng)
        transform = HistogramTransform(rotation, scales, translation, h_lower, h_upper)
        grid, cells = build_grid(transform, X)
        return Member(grid, _fit_cells(X, y, cells, grid.n_cells, config, clip_bound))

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
        candidate = grid_candidate(i, X_fit, y_fit_rows)
        residual = member_predict(candidate, X_val) - y_val
        score = float(residual @ residual) / len(val_rows)
        if score < best_score:  # strict: ties keep the lowest candidate index
            best, best_score = candidate, score
    return best


def _resolve_clip(config: TrainConfig, y_fit: np.ndarray) -> float:
    if config.clip_bound is not None:
        return config.clip_bound
    bound = float(np.abs(y_fit).max())
    return bound if bound > 0 else 1.0


def train_ensemble(
    dataset: Dataset, config: TrainConfig, n_threads: int | None = None
) -> EnsembleModel:
    """Train all members; output is independent of the worker thread count.

    Raises ``DataError`` for a feature so large that a variance computed in
    training would overflow.
    """
    config.validate()
    # a centred value is at most 2 max|x| and the rotation is orthogonal, so
    # every variance that standardizing, default_scale and build_adaptive
    # compute is below n * d * (2 max|x|)**2, finite while max|x| <= limit
    X = dataset.X
    n, d = X.shape
    limit = math.sqrt(np.finfo(np.float64).max / max(n * d, 1)) / 2
    if max(X.max(initial=0.0), -X.min(initial=0.0)) > limit:
        column = int(np.argmax((np.abs(X) > limit).any(axis=0)))
        raise DataError(f"training feature column {column} is too large: its variance overflows")
    if config.standardize_features:
        standardizer = fit_standardizer(dataset, scale_target=config.standardize_target)
    else:
        standardizer = Standardizer.identity(dataset.d)
        if config.standardize_target:
            target = Standardizer.fit(dataset.X, dataset.y)
            standardizer.target_mean = target.target_mean
            standardizer.target_std = target.target_std
    X_std = standardizer.transform(dataset.X)
    y_fit = standardizer.transform_target(dataset.y)
    clip_bound = _resolve_clip(config, y_fit)
    h_hat = default_scale(X_std)[0] if config.partition == "grid" else None

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
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    with np.errstate(over="ignore"):
        X_std = model.standardizer.transform(X)
    if not np.isfinite(X_std).all():  # NaN and inf stay non-finite when standardized
        row = int(np.argmin(np.isfinite(X_std).all(axis=1)))
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
