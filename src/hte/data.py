"""Data ingestion, standardization, scale heuristic, synthetic generators."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .rng import STREAM_DATA, philox_generator, standard_normal
from .transform import column_sums, rowwise

NOISE_STD = 0.1  # observation noise of both synthetic generators


@dataclass
class Dataset:
    """Columnar numeric data: features X (n, d) and target y (n,).

    X is stored C-contiguous, so a model trained on it does not depend on
    the layout the caller passed.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str] | None = None
    target_column: str | int | None = None  # ``load_csv``'s key of the y column

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] < 1 or y.ndim != 1 or len(X) != len(y):
            raise DataError("X must be (n, d) with d >= 1 and y (n,) with matching n")
        if len(y) < 1:
            raise DataError("dataset is empty")
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise DataError("dataset contains non-finite entries")
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise DataError("feature name count != feature count")
        self.X = X
        self.y = y

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class Standardizer:
    """Per-feature zero-mean unit-variance scaling, optional target scaling.

    ``fit_standardizer`` builds one; a feature it leaves unscaled has mean 0
    and std 1, and an unscaled target has no statistics.
    """

    mean: np.ndarray
    std: np.ndarray
    target_mean: float | None = None
    target_std: float | None = None

    @property
    def scales_target(self) -> bool:
        return self.target_mean is not None

    def transform(self, X: np.ndarray) -> np.ndarray:
        """``(X - mean) / std`` of one point (d,) or a batch (n, d), with the
        bits of the broadcast but on widened rows (``transform.rowwise``): a
        new array, C-ordered whatever the layout of X."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != len(self.mean):
            raise DataError(
                f"feature dimension mismatch: model expects d={len(self.mean)}, "
                f"data has d={X.shape[-1]}"
            )
        out = rowwise(np.subtract, X, self.mean)
        return rowwise(np.divide, out, self.std, out=out)

    def transform_target(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if not self.scales_target:
            return y
        return (y - self.target_mean) / self.target_std

    def inverse_target(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if not self.scales_target:
            return y
        return y * self.target_std + self.target_mean


def fit_standardizer(dataset: Dataset, features: bool, target: bool) -> Standardizer:
    """The scaling of ``dataset``'s features (if ``features``) and target (if ``target``).

    Stats use the sample standard deviation (ddof=1); a constant column, a
    constant target and a single-row dataset keep std 1, so they pass
    through unchanged.
    """
    X, y = dataset.X, dataset.y
    if features:
        mean, variance = column_moments(X)
        std = np.sqrt(variance)  # X.std(axis=0, ddof=1) is this square root
        std = np.where(std == 0.0, 1.0, std)
    else:
        mean, std = np.zeros(X.shape[1]), np.ones(X.shape[1])
    standardizer = Standardizer(mean, std)
    if target:
        target_std = float(y.std(ddof=1)) if len(y) > 1 else 1.0
        standardizer.target_mean = float(y.mean())
        standardizer.target_std = target_std if target_std != 0.0 else 1.0
    return standardizer


def column_moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bits of ``X.mean(axis=0)`` and ``X.var(axis=0, ddof=1)`` of an (n, d) X.

    numpy's own operations, with the column sums of the mean taken once:
    sum, divide, subtract, square in place, sum, divide, each sum by
    ``transform.column_sums``.  The deviations keep the layout numpy's
    ``X - mean`` gives them, since the sums' order depends on it.  On
    C-ordered X one buffer takes both folds and the deviations, formed on
    widened rows (``rowwise``), so no more memory is touched than by
    ``X.var``.  One row has variance 0, not numpy's NaN.
    """
    n = len(X)
    if X.flags.c_contiguous:
        dev = np.empty(X.shape)
        mean = column_sums(X, work=dev) / n
        rowwise(np.subtract, X, mean, out=dev)
    else:
        mean = column_sums(X) / n
        dev = X - mean
    np.square(dev, out=dev)
    return mean, column_sums(dev, work=dev) / max(n - 1, 1)


def read_matrix(path, has_header: bool) -> tuple[np.ndarray, list[str] | None]:
    """Parse a numeric CSV into a float64 matrix and its header (if any).

    Blank lines are skipped.  Any cell that does not parse as a finite
    decimal number is a hard error reported with its 1-based row and column;
    so are text that is not UTF-8, a cell longer than
    ``csv.field_size_limit()`` and a header with more or fewer cells than
    the rows.

    The file is read once.  Text with no ``"``, at least one data row and no
    line longer than the field limit is first parsed by ``np.loadtxt``, and
    that matrix is returned only if it has one row per non-empty line and
    every value is finite and the header is as wide as the rows: then it
    equals what the ``csv.reader`` loop (``_parse_rows``) returns.  Anything
    else (a parse error, a ragged row, a whitespace-only line, a quote, a
    non-finite value, ``1_0``, a header of another width) runs that loop on
    the same text, which accepts or reports it.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    return _parse_fast(text, has_header) or _parse_rows(path, text, has_header)


def _parse_fast(text: str, has_header: bool) -> tuple[np.ndarray, list[str] | None] | None:
    """``np.loadtxt`` on quote-free text; None wherever ``_parse_rows`` might differ."""
    if '"' in text:
        return None
    # without quotes a csv.reader row is one line split at commas, and its
    # line ends are "\r\n", a lone "\r" and "\n"
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = list(filter(None, text.split("\n")))
    limit = csv.field_size_limit()
    if not lines or len(text) > limit and max(map(len, lines)) > limit:
        return None
    header = None
    if has_header:
        header = [c.strip() for c in lines[0].split(",")]
        lines = lines[1:]
        if not lines:  # loadtxt warns on empty input
            return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    # every non-empty line is a csv.reader row: a line loadtxt skipped would shift them
    if len(values) != len(lines) or not np.isfinite(values).all():
        return None
    if header is not None and len(header) != values.shape[1]:  # the row loop reports it
        return None
    return values, header


def _parse_rows(path, text: str, has_header: bool) -> tuple[np.ndarray, list[str] | None]:
    """The reference parser: ``csv.reader`` rows and one ``float()`` per cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: no data rows after header")
    offset = 2 if has_header else 1
    width = len(rows[0])
    if header is not None and len(header) != width:
        raise DataError(f"{path}: header width {len(header)} != row width {width}")
    values = np.empty((len(rows), width), dtype=np.float64)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {r + offset} has {len(row)} cells, expected {width}")
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell.strip())
            except ValueError as exc:
                raise DataError(
                    f"{path}: non-numeric value {cell.strip()!r} "
                    f"at row {r + offset}, column {c + 1}"
                ) from exc
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise DataError(
            f"{path}: non-finite value {rows[r][c].strip()!r} "
            f"at row {r + offset}, column {c + 1}"
        )
    return values, header


def target_column(path, header: list[str] | None, width: int,
                  target: str | int) -> tuple[int, str | int]:
    """The 0-based column ``target`` picks in a CSV of ``width`` columns, and its key.

    The one target rule of ``load_csv`` and ``hte predict``: a string names
    a header column when the header has it; otherwise a decimal string,
    like an int, is a 0-based index.  The key is that index when the target
    reads as it, and the target otherwise, so the rule picks the same
    column again from the key.
    """
    if isinstance(target, str) and header is not None and target in header:
        index = header.index(target)
    elif isinstance(target, str) and not target.isdecimal():
        if header is None:
            raise ConfigError("target given by name but the file has no header")
        raise DataError(f"{path}: target column {target!r} not found in header")
    else:
        index = int(target)
    if not 0 <= index < width:
        raise DataError(f"{path}: target index {index} out of range for {width} columns")
    by_index = not isinstance(target, str) or target.isdecimal() and int(target) == index
    return index, index if by_index else target


def load_csv(path, target: str | int, has_header: bool = True) -> Dataset:
    """Read a numeric CSV; the target column becomes y, the rest X in file order.

    ``target_column`` picks the target column, and the dataset records its
    key.  Cells are parsed by ``read_matrix``.
    """
    values, header = read_matrix(path, has_header)
    width = values.shape[1]
    index, key = target_column(path, header, width, target)
    if width < 2:
        raise DataError(f"{path}: need at least one feature column besides the target")
    names = None if header is None else header[:index] + header[index + 1 :]
    return Dataset(np.delete(values, index, axis=1), values[:, index], names, key)


def default_scale(X: np.ndarray) -> float:
    """Default bin width from the data spread.

    sigma is the root mean sample variance across features; the heuristic
    bin width is 3.5 * sigma * n**(-1/(2+d)).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    if n < 2:
        raise DataError("scale heuristic needs at least 2 samples")
    sigma = math.sqrt(float(column_moments(X)[1].mean()))
    if sigma == 0.0:
        raise DataError("all points identical: scale heuristic degenerate")
    return 3.5 * sigma * n ** (-1.0 / (2 + d))


def sin16_truth(x: np.ndarray) -> np.ndarray:
    """Noiseless regression surface of the 1-d sine benchmark."""
    return np.sin(16.0 * np.asarray(x, dtype=np.float64)).ravel()


def counter3d_truth(X: np.ndarray) -> np.ndarray:
    """Noiseless regression surface of the 3-d benchmark."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return (10.0 * X * np.sin(2.0 * X - 3.0)).sum(axis=1)


def gen_sin16(n: int, seed: int) -> Dataset:
    """y = sin(16 x) + noise with x uniform on [0, 1], noise N(0, 0.1^2)."""
    if n < 1:
        raise DataError("need n >= 1")
    rng = philox_generator(seed, STREAM_DATA)
    X = rng.random((n, 1))
    y = sin16_truth(X) + NOISE_STD * standard_normal(rng, n)
    return Dataset(X, y, ["x"])


def gen_counter3d(n: int, seed: int) -> Dataset:
    """y = sum_i 10 x_i sin(2 x_i - 3) + noise on the unit cube, noise N(0, 0.1^2)."""
    if n < 1:
        raise DataError("need n >= 1")
    rng = philox_generator(seed, STREAM_DATA)
    X = rng.random((n, 3))
    y = counter3d_truth(X) + NOISE_STD * standard_normal(rng, n)
    return Dataset(X, y, ["x1", "x2", "x3"])
