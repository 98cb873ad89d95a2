"""Versioned binary model container.

Layout (all integers little-endian):

    magic b"HTEN" | u32 version | u64 header length | header JSON (utf-8)
    standardizer block | one block per member | sha256 of everything above

Arrays are written as a dtype tag (0 = float64, 1 = int64), a u8 rank, u64
dimensions and raw C-order bytes, so the round trip is bit-exact.  The
header carries the effective train config, enough to reproduce the model
byte-for-byte from the same data.  Loading verifies magic, version and
checksum before touching any payload, then that the header is a JSON
object with integer ``d`` and ``n_transforms``, an object ``config`` (a
valid ``TrainConfig``, so a ``gamma`` that training accepts) and a finite
positive ``clip_bound``, then checks the shapes of the grid key tables,
tree arrays and regressor arrays against ``d`` and the cell counts, and
that every value prediction reads is finite (with std positive); a payload
the model classes reject (a repeated grid key, say) is reported as corrupt
too.

A member is its partition block then its regressor block.  A grid block
holds the transform and the ``(n_cells, d)`` key table; a tree block holds
the ``(d, d)`` rotation and the breadth-first node arrays ``split_dim`` and
``threshold``.  Every member's regressor is a ``KernelCellModel``; its
block holds ``fallback`` and ``means``, and in a kht file then the flat
kernel arrays ``offsets``, ``support`` and ``alpha``.  An nht member has no
kernel cells, so the loader rebuilds zero ``offsets`` and empty ``support``
and ``alpha``.  ``gamma`` and ``clip_bound`` are the header's, shared by
every member.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct

import numpy as np

from .data import Standardizer
from .ensemble import EnsembleModel, Member, TrainConfig
from .errors import ConfigError, DataError
from .local_models import KernelCellModel
from .partition import AdaptiveTree, GridPartition
from .rng import NORMAL_METHOD, RNG_ALGORITHM
from .transform import HistogramTransform

MAGIC = b"HTEN"
FORMAT_VERSION = 4
_CHECKSUM_BYTES = 32

_DTYPES = {0: np.dtype(np.float64), 1: np.dtype(np.int64)}
_TAGS = {dtype: tag for tag, dtype in _DTYPES.items()}

# header fields the loader reads, with the JSON types they must have
_HEADER_FIELDS = {"d": (int,), "n_transforms": (int,), "config": (dict,),
                  "clip_bound": (float, int)}

_PARTITION_GRID = 0
_PARTITION_TREE = 1


def _w_u8(buf: io.BytesIO, v: int) -> None:
    buf.write(struct.pack("<B", v))


def _w_u64(buf: io.BytesIO, v: int) -> None:
    buf.write(struct.pack("<Q", v))


def _w_f64(buf: io.BytesIO, v: float) -> None:
    buf.write(struct.pack("<d", v))


def _w_array(buf: io.BytesIO, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _TAGS:
        raise DataError(f"unsupported array dtype {arr.dtype}")
    _w_u8(buf, _TAGS[arr.dtype])
    _w_u8(buf, arr.ndim)
    for dim in arr.shape:
        _w_u64(buf, dim)
    buf.write(arr.tobytes(order="C"))


class _Reader:
    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.pos = offset

    def _take(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise DataError("model file truncated")
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def array(self) -> np.ndarray:
        tag = self.u8()
        if tag not in _DTYPES:
            raise DataError(f"model file corrupt: unknown array dtype tag {tag}")
        dtype = _DTYPES[tag]
        ndim = self.u8()
        if ndim > 2:  # every array the format writes has rank at most 2
            raise DataError(f"model file corrupt: array of rank {ndim} above 2")
        shape = tuple(self.u64() for _ in range(ndim))
        raw = self._take(math.prod(shape) * 8)
        little_endian = np.frombuffer(raw, dtype=dtype.newbyteorder("<"))
        return little_endian.astype(dtype).reshape(shape)


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise DataError(f"model file corrupt: {problem}")


def _require_finite(what: str, *values) -> None:
    _require(all(np.isfinite(v).all() for v in values), f"{what} not finite")


def _write_standardizer(buf: io.BytesIO, stz: Standardizer) -> None:
    _w_array(buf, np.asarray(stz.mean, dtype=np.float64))
    _w_array(buf, np.asarray(stz.std, dtype=np.float64))
    _w_u8(buf, 1 if stz.scales_target else 0)
    if stz.scales_target:
        _w_f64(buf, stz.target_mean)
        _w_f64(buf, stz.target_std)


def _read_standardizer(r: _Reader) -> Standardizer:
    stz = Standardizer(r.array(), r.array())
    if r.u8():
        stz.target_mean, stz.target_std = r.f64(), r.f64()
        _require_finite("standardizer target statistics", stz.target_mean, stz.target_std)
        _require(stz.target_std > 0, "standardizer target std is not positive")
    _require_finite("standardizer mean or std", stz.mean, stz.std)
    _require((stz.std > 0).all(), "standardizer std is not positive")
    return stz


def _write_partition(buf: io.BytesIO, part) -> None:
    if isinstance(part, GridPartition):
        _w_u8(buf, _PARTITION_GRID)
        t = part.transform
        _w_array(buf, t.rotation)
        _w_array(buf, t.scales)
        _w_array(buf, t.translation)
        _w_f64(buf, t.h_lower)
        _w_f64(buf, t.h_upper)
        _w_array(buf, part.keys)
    else:
        _w_u8(buf, _PARTITION_TREE)
        _w_array(buf, part.rotation)
        _w_array(buf, part.split_dim)
        _w_array(buf, part.threshold)


def _read_partition(r: _Reader, d: int):
    kind = r.u8()
    if kind == _PARTITION_GRID:
        rotation = r.array()
        scales = r.array()
        translation = r.array()
        h_lower = r.f64()
        h_upper = r.f64()
        keys = r.array()
        _require_finite("grid transform", rotation, scales, translation, h_lower, h_upper)
        _require(
            keys.dtype == np.int64 and keys.ndim == 2 and keys.shape[1] == d
            and len(keys) > 0,
            f"grid key table of shape {keys.shape} is not (n_cells, {d}) int64",
        )
        transform = HistogramTransform(rotation, scales, translation, h_lower, h_upper)
        return GridPartition(transform, keys)
    if kind != _PARTITION_TREE:
        raise DataError(f"unknown partition tag {kind}")
    rotation = r.array()
    _require(rotation.shape == (d, d),
             f"tree rotation of shape {rotation.shape} is not ({d}, {d})")
    tree = AdaptiveTree(rotation, split_dim=r.array(), threshold=r.array())
    _require_finite("tree rotation or internal threshold",
                    rotation, tree.threshold[tree.split_dim >= 0])
    return tree


def _write_model(buf: io.BytesIO, model: KernelCellModel, ensemble: EnsembleModel) -> None:
    # what the block leaves out, the loader takes from the header
    kernel = ensemble.config.mode == "kht"
    if (model.gamma, model.clip_bound) != (ensemble.config.gamma, ensemble.clip_bound):
        raise DataError("a member's gamma or clip_bound differs from the ensemble's")
    if not kernel and len(model.alpha):
        raise DataError("an nht member cannot hold kernel cells")
    _w_f64(buf, model.fallback)
    _w_array(buf, model.means)
    if kernel:
        for arr in (model.offsets, model.support, model.alpha):
            _w_array(buf, arr)


def _read_model(r: _Reader, d: int, n_cells: int, kernel: bool, gamma: float,
                clip_bound: float) -> KernelCellModel:
    fallback, means = r.f64(), r.array()
    _require(means.dtype == np.float64 and means.shape == (n_cells,),
             f"cell means are not float64 of shape ({n_cells},)")
    _require_finite("fallback or cell means", fallback, means)
    if kernel:
        offsets, support, alpha = r.array(), r.array(), r.array()
        _require(alpha.ndim == 1, "kernel coefficients are not a vector")
        _require(
            offsets.dtype == np.int64 and offsets.shape == (n_cells + 1,)
            and offsets[0] == 0 and (np.diff(offsets) >= 0).all()
            and offsets[-1] == len(alpha),
            f"kernel offsets must run from 0 up to {len(alpha)} in {n_cells + 1} steps",
        )
        _require(support.shape == (len(alpha), d),
                 f"kernel support of shape {support.shape} is not ({len(alpha)}, {d})")
        _require_finite("kernel support or alpha", support, alpha)
        # kernel values lie in [0, 1]: a finite sum of |alpha| bounds every K @ alpha
        with np.errstate(over="ignore"):
            _require(np.isfinite(np.abs(alpha).sum()),
                     "kernel coefficients sum past the float range")
    else:
        offsets = np.zeros(n_cells + 1, dtype=np.int64)
        support, alpha = np.empty((0, d)), np.empty(0)
    return KernelCellModel(
        offsets=offsets,
        support=support,
        alpha=alpha,
        means=means,
        gamma=gamma,
        clip_bound=clip_bound,
        fallback=fallback,
    )


def serialize_model(model: EnsembleModel, data_info: dict | None = None) -> bytes:
    header = {
        "format_version": FORMAT_VERSION,
        "mode": model.config.mode,
        "partition": model.config.partition,
        "d": model.d,
        "n_transforms": model.n_transforms,
        "seed": model.config.master_seed,
        "rng": RNG_ALGORITHM,
        "normal_method": NORMAL_METHOD,
        "clip_bound": model.clip_bound,
        "total_cells": model.total_cells,
        "config": model.config.to_dict(),
        "data": data_info or {},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    _w_u64(buf, len(header_bytes))
    buf.write(header_bytes)
    _write_standardizer(buf, model.standardizer)
    for member in model.members:
        _write_partition(buf, member.partition)
        _write_model(buf, member.model, model)
    payload = buf.getvalue()
    return payload + hashlib.sha256(payload).digest()


def save_model(model: EnsembleModel, path, data_info: dict | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model, data_info))


def _verify(data: bytes) -> dict:
    if len(data) < len(MAGIC) + 4 + 8 + _CHECKSUM_BYTES:
        raise DataError("not a model file (too short)")
    if data[: len(MAGIC)] != MAGIC:
        raise DataError("not a model file (bad magic)")
    version = struct.unpack_from("<I", data, len(MAGIC))[0]
    if version != FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    digest = hashlib.sha256(data[:-_CHECKSUM_BYTES]).digest()
    if digest != data[-_CHECKSUM_BYTES:]:
        raise DataError("model file corrupt: checksum mismatch")
    header_len = struct.unpack_from("<Q", data, len(MAGIC) + 4)[0]
    start = len(MAGIC) + 4 + 8
    try:
        header = json.loads(data[start : start + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise DataError(f"model file corrupt: header is not JSON ({exc})") from exc
    _require(isinstance(header, dict), "header is not a JSON object")
    for key, kinds in _HEADER_FIELDS.items():
        value = header.get(key)
        _require(isinstance(value, kinds) and not isinstance(value, bool),
                 f"header field {key!r} is missing or not {kinds[0].__name__}")
    _require(header["d"] >= 1 and header["n_transforms"] >= 1,
             "header d and n_transforms must be >= 1")
    _require(0 < header["clip_bound"] < math.inf, "header clip_bound must be finite and positive")
    _require(isinstance(header.get("data", {}), dict), "header field 'data' is not an object")
    header["_payload_offset"] = start + header_len
    return header


def read_metadata(path) -> dict:
    """Header of a model file (verified), without loading the members."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _verify(data)
    header.pop("_payload_offset")
    return header


def deserialize_model(data: bytes) -> EnsembleModel:
    header = _verify(data)
    reader = _Reader(data[:-_CHECKSUM_BYTES], header.pop("_payload_offset"))
    d = header["d"]
    members = []
    try:
        config = TrainConfig.from_dict(header["config"])
        standardizer = _read_standardizer(reader)
        kernel = config.mode == "kht"
        for _ in range(header["n_transforms"]):
            partition = _read_partition(reader, d)
            model = _read_model(reader, d, partition.n_cells, kernel, config.gamma,
                                header["clip_bound"])
            members.append(Member(partition, model))
    except ConfigError as exc:  # the config, a transform or a tree rejected the file
        raise DataError(f"model file corrupt: {exc}") from exc
    _require(reader.pos == len(reader.data),
             f"{len(reader.data) - reader.pos} trailing bytes after the last member")
    return EnsembleModel(members, standardizer, config, header["clip_bound"])


def load_model(path) -> EnsembleModel:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
