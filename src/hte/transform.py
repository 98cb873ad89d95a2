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
        d = r.shape[0]
        if r.shape != (d, d) or s.shape != (d,) or b.shape != (d,):
            raise ConfigError("inconsistent transform dimensions")
        gram_err = np.abs(r.T @ r - np.eye(d)).max()
        if gram_err > _ORTHO_TOL:
            raise ConfigError(f"rotation not orthonormal (max error {gram_err:.2e})")
        det_err = abs(np.linalg.det(r) - 1.0)
        if det_err > _ORTHO_TOL:
            raise ConfigError(f"rotation determinant differs from 1 by {det_err:.2e}")
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


def apply_transform(transform: HistogramTransform, x: np.ndarray) -> np.ndarray:
    """Evaluate H(x) = R S x + b for one point (d,) or a batch (n, d).

    Uses an einsum contraction so a single row produces bit-identical output
    whether passed alone or inside a batch (floor-based binning depends on
    that consistency).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != transform.dim:
        raise ConfigError(
            f"point dimension {x.shape[-1]} != transform dimension {transform.dim}"
        )
    stretched = x * transform.scales
    if x.ndim == 1:
        out = np.einsum("ij,j->i", transform.rotation, stretched)
    else:
        out = np.einsum("ij,nj->ni", transform.rotation, stretched)
    out += transform.translation
    return out


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


def check_finite_image(image: np.ndarray) -> np.ndarray:
    """A transformed or rotated batch as it is; ``DataError`` naming its first
    row that is not finite."""
    # min and max propagate NaN and allocate no (n, d) mask on the good path
    if image.size and not (np.isfinite(image.min()) and np.isfinite(image.max())):
        row = int(np.argmin(np.isfinite(np.atleast_2d(image)).all(axis=1)))
        raise DataError(f"row {row} overflows in the histogram transform")
    return image


def cell_volume(transform: HistogramTransform) -> float:
    """Lebesgue volume of each cell in input space: prod_i 1/s_i."""
    return float(np.prod(1.0 / transform.scales))
