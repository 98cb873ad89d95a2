"""Random histogram transforms.

A histogram transform is the affine map ``H(x) = R S x + b`` built from a
uniformly random rotation ``R``, a diagonal stretching matrix ``S`` with
log-uniform (Jeffreys prior) diagonal, and a translation ``b`` uniform on
``[0, 1)^d``.  The integer unit grid in the transformed space induces a
randomized axis-oblique partition of the input space: two points share a
cell exactly when the component-wise floors of their images agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .rng import standard_normal

_ORTHO_TOL = 1e-10
_BOUND_SLACK = 1e-9  # relative slack on 1/s_i vs the bin-width bounds
_KEY_LIMIT = 2.0**62  # bin keys are clipped to +-this; exact in float64 and int64
_ROW_WIDTH = 512  # entries in one widened row of ``rowwise``
# widest C-ordered row that ``column_sums`` folds by accumulate.  On 100k
# rows (milliseconds, median of 25; numpy 2.4.6 on a shared 2-vCPU x86-64
# machine) numpy's axis-0 reduce against the accumulate: d=2 2.09/0.71,
# 3 2.12/1.05, 4 2.31/1.46, 6 2.50/2.49, 8 2.68/4.40, 12 3.33/7.53,
# 32 4.63/45.1; blocks of 2**14 entries do not rescue wide rows (12.9 ms
# at d=32)
_FOLD_WIDTH = 4


@dataclass(frozen=True)
class HistogramTransform:
    """One randomized affine partition map.

    Attributes
    ----------
    rotation : (d, d) ndarray
        Orthonormal matrix with unit determinant.
    scales : (d,) ndarray
        Positive stretching factors (diagonal of S).  The bin width in
        input-space units along axis i is 1 / scales[i].
    translation : (d,) ndarray
        Translation vector, each component in [0, 1).
    h_lower, h_upper : float
        Bin-width bounds: every 1 / scales[i] lies in [h_lower, h_upper].
    """

    rotation: np.ndarray
    scales: np.ndarray
    translation: np.ndarray
    h_lower: float
    h_upper: float

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        s = np.asarray(self.scales, dtype=np.float64)
        b = np.asarray(self.translation, dtype=np.float64)
        check_rotation(r)
        d = r.shape[0]
        if s.shape != (d,) or b.shape != (d,):
            raise ConfigError("inconsistent transform dimensions")
        if not (0 < self.h_lower <= self.h_upper):
            raise ConfigError("need 0 < h_lower <= h_upper")
        widths = 1.0 / s
        lo = self.h_lower * (1.0 - _BOUND_SLACK)
        hi = self.h_upper * (1.0 + _BOUND_SLACK)
        if np.any(widths < lo) or np.any(widths > hi):
            raise ConfigError("bin widths escape [h_lower, h_upper]")
        if np.any(b < 0.0) or np.any(b >= 1.0):
            raise ConfigError("translation components must lie in [0, 1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "translation", b)

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]


def check_rotation(r: np.ndarray) -> None:
    """``ConfigError`` unless r, a (d, d) float matrix or a stack of them, is
    orthonormal with determinant 1 within ``_ORTHO_TOL``: the one rule for
    grid transforms and tree rotations.  Entries are bounded first, so the
    Gram product of a finite but huge entry cannot overflow."""
    d = r.shape[-1] if r.ndim >= 2 else 0
    if not d or r.shape[-2] != d:
        raise ConfigError(f"rotation of shape {r.shape} is not (d, d) with d >= 1")
    if not np.abs(r).max() <= 1.0 + _ORTHO_TOL:  # NaN fails too
        raise ConfigError("rotation entry outside [-1, 1]")
    gram_err = np.abs(np.matmul(r.swapaxes(-1, -2), r) - np.eye(d)).max()
    if gram_err > _ORTHO_TOL:
        raise ConfigError(f"rotation not orthonormal (max error {gram_err:.2e})")
    det_err = np.abs(np.linalg.det(r) - 1.0).max()
    if det_err > _ORTHO_TOL:
        raise ConfigError(f"rotation determinant differs from 1 by {det_err:.2e}")


def sample_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly random rotation matrix (orthonormal, det +1).

    Fills a d x d matrix with standard normals, takes its QR factorization
    with the sign convention that the triangular factor has a positive
    diagonal, and flips the last column if the determinant came out -1.
    For d = 1 the only valid rotation is [[1.0]].
    """
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    if d == 1:
        return np.array([[1.0]])
    m = standard_normal(rng, (d, d))
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def sample_stretch(
    d: int, h_lower: float, h_upper: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw stretching factors and a translation for given bin-width bounds.

    log(s_i) is uniform on [log(1/h_upper), log(1/h_lower)] and b_i uniform
    on [0, 1).  A degenerate interval (h_lower == h_upper) yields the exact
    scale 1/h_lower on every axis.
    """
    if not (0 < h_lower <= h_upper):
        raise ConfigError("need 0 < h_lower <= h_upper")
    if h_lower == h_upper:
        scales = np.full(d, 1.0 / h_lower)
    else:
        log_lo = math.log(1.0 / h_upper)
        log_hi = math.log(1.0 / h_lower)
        scales = np.exp(rng.uniform(log_lo, log_hi, size=d))
        # guard against exp() rounding a hair past the interval ends
        scales = np.clip(scales, 1.0 / h_upper, 1.0 / h_lower)
    translation = rng.random(d)
    return scales, translation


def sample_transform(
    d: int, h_lower: float, h_upper: float, rng: np.random.Generator
) -> HistogramTransform:
    """Draw a complete histogram transform: rotation, stretching, translation."""
    rotation = sample_rotation(d, rng)
    scales, translation = sample_stretch(d, h_lower, h_upper, rng)
    return HistogramTransform(rotation, scales, translation, h_lower, h_upper)


def rowwise(op, x: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``op(x, v)`` for a batch x of shape (..., d) and a vector v of shape (d,).

    The result is C-ordered: written into ``out`` (C-contiguous, x's shape)
    or a new array.  x, made C-contiguous, is viewed as rows of k of its own
    rows, about ``_ROW_WIDTH`` entries, against v tiled k times; the rows
    left over take one plain call.  numpy's inner loop then runs once per
    wide row instead of once per d entries, and every entry still gets the
    same operation on the same operands, so the bits are ``op(x, v)``'s.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty(x.shape) if out is None else out
    d = len(v)
    k = max(1, _ROW_WIDTH // d)
    rows, dest = x.reshape(-1, d), out.reshape(-1, d)
    m = len(rows) // k * k
    if m:  # a batch of fewer than k rows takes the plain call alone
        tiled = np.repeat(v[None, :], k, axis=0).reshape(-1)  # np.tile(v, k), in a third the time
        op(rows[:m].reshape(-1, k * d), tiled, out=dest[:m].reshape(-1, k * d))
    op(rows[m:], v, out=dest[m:])
    return out


def column_sums(a: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """``np.add.reduce(a, axis=0)`` of a float64 array, bit for bit.

    On C-ordered input numpy's axis-0 reduce adds row after row, with one
    inner-loop call per row; on narrow rows that call costs more than the
    adds.  A C-contiguous array whose rows hold 2 to ``_FOLD_WIDTH`` values
    is folded instead by ``np.add.accumulate``, whose last row is the same
    sums in the same order, except that reduce starts from +0.0: ``+ 0.0``
    turns an all -0.0 column's -0.0 into reduce's +0.0.  The running sums
    go into ``work`` (C-contiguous, a's shape; a itself if it may be
    overwritten) or a new array.  One-value rows (summed pairwise by
    numpy), other layouts and wider rows keep the reduce, and leave
    ``work`` as it is.
    """
    width = a.size // len(a) if a.ndim >= 2 and len(a) else 0
    if 2 <= width <= _FOLD_WIDTH and a.flags.c_contiguous:
        return np.add.accumulate(a, axis=0, out=work)[-1] + 0.0
    return np.add.reduce(a, axis=0)


def apply_transform(transform: HistogramTransform, x: np.ndarray) -> np.ndarray:
    """Evaluate H(x) = R S x + b for one point (d,) or a batch (n, d).

    Uses an einsum contraction so a single row produces bit-identical output
    whether passed alone or inside a batch (floor-based binning depends on
    that consistency).  The einsum's bits depend on the layout of its input,
    so S x is formed C-ordered (``rowwise``) whatever the layout of x, and
    the image is C-ordered too; b is added in place, also by ``rowwise``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != transform.dim:
        raise ConfigError(
            f"point dimension {x.shape[-1]} != transform dimension {transform.dim}"
        )
    image = np.einsum("ij,...j->...i", transform.rotation,
                      rowwise(np.multiply, x, transform.scales))
    return rowwise(np.add, image, transform.translation, out=image)


def bin_key(transform: HistogramTransform, x: np.ndarray) -> np.ndarray:
    """Integer bin key: component-wise floor of H(x), rounding toward -inf.

    Components are clipped to +-2**62 before the int64 cast, so a huge but
    finite input gets a defined key instead of a platform-dependent one.
    An image that is not finite (a finite input can overflow in R S x) is a
    ``DataError`` naming its row.
    """
    with np.errstate(over="ignore"):
        image = check_finite_image(apply_transform(transform, x))
    # in place: a second live (n, d) temporary costs fresh pages on every call
    np.floor(image, out=image)
    return np.clip(image, -_KEY_LIMIT, _KEY_LIMIT, out=image).astype(np.int64)


def first_nonfinite_row(a: np.ndarray) -> int | None:
    """The index of the first row of a batch (n, d) or point (d,) holding a
    NaN or inf; None when every entry is finite."""
    # min and max propagate NaN and allocate no (n, d) mask on the good path
    if not a.size or np.isfinite(a.min()) and np.isfinite(a.max()):
        return None
    return int(np.argmin(np.isfinite(np.atleast_2d(a)).all(axis=1)))


def check_finite_image(image: np.ndarray) -> np.ndarray:
    """A transformed or rotated batch as it is; ``DataError`` naming its first
    row that is not finite."""
    row = first_nonfinite_row(image)
    if row is not None:
        raise DataError(f"row {row} overflows in the histogram transform")
    return image


def cell_volume(transform: HistogramTransform) -> float:
    """Lebesgue volume of each cell in input space: prod_i 1/s_i."""
    return float(np.prod(1.0 / transform.scales))
