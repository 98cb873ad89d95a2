"""Versioned binary model container, format 7.

Layout (all integers little-endian):

    magic b"HTEN" | u32 version | u64 header length | header JSON (utf-8)
    standardizer block | kht: shared support rows | one block per member
    sha256 of everything above

Arrays are written as a dtype tag (0 = float64, 1 = int64, 2-5 = uint8,
uint16, uint32, uint64), a u8 rank, u64 dimensions and raw C-order bytes,
so the round trip is bit-exact.  An integer array is an unsigned record on
the narrowest of the four widths that holds its largest value (the grid
key base is the one int64 array); the loader rejects a record stored wider
than that, and one whose values the model's own dtype cannot hold, then
widens it to that dtype.  Every fact has one home, on the model or in this
build, so a file the writer made loads and saves to the same bytes.  The
header holds this build's ``format_version``, ``rng`` and
``normal_method``; ``d``, ``n_transforms`` and ``total_cells`` (for
``read_metadata``; checked against the members); ``clip_bound``; the
effective ``config``, enough to reproduce the model byte-for-byte from the
same data; and ``data``, the model's ``data_info``.  Loading verifies magic,
version and checksum before touching any payload, then those header values
and each field's JSON type, a valid ``config`` (so a ``gamma`` that training
accepts) and a finite positive ``clip_bound``.  Each record is then taken
by one typed read of ``_Reader`` that names the dtype and shape the writer
gives it, from ``d`` and the counts read before it (None for a length the
record sets itself), and rejects any other; every stored float, in an
array or alone, must be finite.  What the reads leave are value rules: std
positive, a grid key base that is its keys' minimum, kernel offsets that
start at 0 and never decrease, kernel row ids inside the shared block, and
each shared row used; a payload the model classes reject (a repeated grid
key, say) is reported as corrupt too.

A kht file stores the kernel support rows once: a ``(k, d)`` float64 block
of the rows that the members' ids use, in the order of the matrix they
share (the standardized training features, for a trained model), each of
them used by some member.  An nht file has no such block.

A member is its partition block then its regressor block, untagged: the
config's ``partition`` and ``mode`` give their kinds.  A grid block
holds the transform, then the ``(n_cells, d)`` key table as the int64
``(d,)`` base ``lo``, each column's minimum, and the offsets ``keys - lo``,
both taken in uint64 so that a span of 2**63 (keys at -2**62 and 2**62)
does not wrap.  A tree block holds the ``(d, d)`` rotation, ``split_dim +
1`` of the breadth-first nodes (0 at a leaf) and the thresholds of the
internal nodes only; the loader puts NaN back at the leaves.  Every
member's regressor is a ``KernelCellModel``; its block holds ``fallback``
and ``means``, and in a kht file then the flat kernel arrays ``offsets``,
the row ``ids`` into the shared block (int32 once loaded) and ``alpha``.
An nht member has no kernel cells, so the loader rebuilds zero
``offsets`` and empty ``rows``, ``ids`` and ``alpha``.  ``gamma`` and
``clip_bound`` are the header's, shared by every member.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct

import numpy as np

from .data import Standardizer
from .ensemble import EnsembleModel, Member, TrainConfig, check_type
from .errors import ConfigError, DataError
from .local_models import KernelCellModel
from .partition import AdaptiveTree, GridPartition
from .rng import NORMAL_METHOD, RNG_ALGORITHM
from .transform import HistogramTransform, check_rotation

MAGIC = b"HTEN"
FORMAT_VERSION = 7
_CHECKSUM_BYTES = 32

_DTYPES = dict(enumerate(map(np.dtype, (np.float64, np.int64,
                                          np.uint8, np.uint16, np.uint32, np.uint64))))
_TAGS = {dtype: tag for tag, dtype in _DTYPES.items()}

# header fields every file of this build holds with these values
_HEADER_CONSTANTS = {"format_version": FORMAT_VERSION, "rng": RNG_ALGORITHM,
                     "normal_method": NORMAL_METHOD}
# header fields the loader reads or checks, with their JSON types
_HEADER_FIELDS = {"d": "int", "n_transforms": "int", "total_cells": "int", "config": "dict",
                  "clip_bound": "float", "data": "dict"}


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
    buf.write(struct.pack(f"<BB{arr.ndim}Q", _TAGS[arr.dtype], arr.ndim, *arr.shape))
    buf.write(arr)


def _w_unsigned(buf: io.BytesIO, arr: np.ndarray) -> None:
    """Integers >= 0 as a record on the narrowest unsigned dtype that holds them."""
    if arr.dtype.kind not in "iu":
        raise DataError(f"an unsigned record cannot hold {arr.dtype} values")
    if arr.min(initial=0) < 0:
        raise DataError("an unsigned record cannot hold a negative value")
    _w_array(buf, arr.astype(np.min_scalar_type(int(arr.max(initial=0)))))


class _Reader:
    """The records of a model file in order.  Each typed read names the
    dtype and shape the writer gives a record and rejects any other."""

    def __init__(self, data: memoryview, offset: int):
        self.data = data
        self.pos = offset

    def _take(self, size: int) -> memoryview:
        if self.pos + size > len(self.data):
            raise DataError("model file truncated")
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def f64(self, what: str) -> float:
        value = struct.unpack("<d", self._take(8))[0]
        _require(math.isfinite(value), f"{what} not finite")
        return value

    def _record(self) -> np.ndarray:
        """The next array record, as stored."""
        tag, ndim = self._take(2)
        if tag not in _DTYPES:
            raise _corrupt(f"unknown array dtype tag {tag}")
        dtype = _DTYPES[tag]
        if ndim > 2:  # every array the format writes has rank at most 2
            raise _corrupt(f"array of rank {ndim} above 2")
        shape = struct.unpack(f"<{ndim}Q", self._take(8 * ndim))
        raw = self._take(math.prod(shape) * dtype.itemsize)
        little_endian = np.frombuffer(raw, dtype=dtype.newbyteorder("<"))
        return little_endian.astype(dtype).reshape(shape)

    def array(self, what: str, dtype: type, *shape: int | None) -> np.ndarray:
        """The next record, a ``dtype`` array of ``shape`` (None: any
        length); float64 values must be finite."""
        arr = self._record()
        _expect(what, arr, np.dtype(dtype), shape)
        if arr.dtype == np.float64 and not np.isfinite(arr).all():
            raise _corrupt(f"{what} not finite")
        return arr

    def unsigned(self, what: str, dtype: type, *shape: int | None,
                 below: int | None = None) -> np.ndarray:
        """The next record, an unsigned array of ``shape`` on the narrowest
        width that holds its largest value (numpy's ``min_scalar_type``),
        widened to ``dtype``; every value must lie below ``below``, by
        default the range of ``dtype``, so the widening cannot wrap."""
        arr = self._record()
        top = int(arr.max(initial=0)) if arr.dtype.kind == "u" else None
        # a signed or float record equals no unsigned dtype
        _expect(what, arr, "unsigned" if top is None else np.min_scalar_type(top), shape)
        below = np.iinfo(dtype).max + 1 if below is None else below
        if top >= below and arr.size:
            raise _corrupt(f"{what} outside [0, {below})")
        return arr.astype(dtype)


def _corrupt(problem: str) -> DataError:
    return DataError(f"model file corrupt: {problem}")


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise _corrupt(problem)


def _expect(what: str, arr: np.ndarray, dtype, shape: tuple) -> None:
    """``DataError`` unless ``arr`` is ``dtype`` of ``shape`` (None: any length)."""
    if arr.dtype != dtype or arr.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, arr.shape)):
        want = str(tuple("n" if n is None else n for n in shape)).replace("'", "")
        raise _corrupt(f"{what}: {arr.dtype} of shape {arr.shape}, not {dtype} of shape {want}")


def _write_standardizer(buf: io.BytesIO, stz: Standardizer) -> None:
    _w_array(buf, np.asarray(stz.mean, dtype=np.float64))
    _w_array(buf, np.asarray(stz.std, dtype=np.float64))
    _w_u8(buf, 1 if stz.scales_target else 0)
    if stz.scales_target:
        _w_f64(buf, stz.target_mean)
        _w_f64(buf, stz.target_std)


def _read_standardizer(r: _Reader, d: int) -> Standardizer:
    stz = Standardizer(r.array("standardizer mean", np.float64, d),
                       r.array("standardizer std", np.float64, d))
    _require((stz.std > 0).all(), "standardizer std is not positive")
    scales_target = r.u8()
    _require(scales_target < 2, f"standardizer target flag {scales_target} is not 0 or 1")
    if scales_target:
        what = "standardizer target statistics"
        stz.target_mean, stz.target_std = r.f64(what), r.f64(what)
        _require(stz.target_std > 0, "standardizer target std is not positive")
    return stz


def _used_rows(n_rows: int, kernels: list[KernelCellModel]) -> np.ndarray:
    """Which of the ``n_rows`` shared rows the kernels' ids use."""
    used = np.zeros(n_rows, dtype=bool)
    for kernel in kernels:
        used[kernel.ids] = True
    return used


def _shared_rows(ensemble: EnsembleModel) -> tuple[np.ndarray, np.ndarray]:
    """The rows that the kht members' ids use, once and in order, and each
    row's new id: its position among them (as int32)."""
    kernels = [member.model for member in ensemble.members]
    rows = kernels[0].rows
    if any(kernel.rows is not rows for kernel in kernels):
        raise DataError("the kht members do not share one rows matrix")
    used = _used_rows(len(rows), kernels)
    new_ids = np.cumsum(used) - 1
    if len(rows) and new_ids[-1] > np.iinfo(np.int32).max:
        raise DataError("more shared support rows than int32 ids can address")
    return rows[used], new_ids.astype(np.int32)


def _write_member(buf: io.BytesIO, member: Member, ensemble: EnsembleModel,
                  new_ids: np.ndarray | None) -> None:
    # the loader takes what the blocks leave out from the header: the kinds
    # of partition and regressor, gamma and clip_bound
    part, model, config = member.partition, member.model, ensemble.config
    if isinstance(part, GridPartition) != (config.partition == "grid"):
        raise DataError("a member's partition kind differs from the ensemble's")
    if (model.gamma, model.clip_bound) != (config.gamma, ensemble.clip_bound):
        raise DataError("a member's gamma or clip_bound differs from the ensemble's")
    if new_ids is None and len(model.alpha):
        raise DataError("an nht member cannot hold kernel cells")
    if isinstance(part, GridPartition):
        t = part.transform
        _w_array(buf, t.rotation)
        _w_array(buf, t.scales)
        _w_array(buf, t.translation)
        _w_f64(buf, t.h_lower)
        _w_f64(buf, t.h_upper)
        lo = part._lo + 1  # the keys' per-axis minimum: the box without its guard layer
        _w_array(buf, lo)
        # in uint64, so a span of 2**63 (keys at -2**62 and 2**62) does not wrap
        _w_unsigned(buf, part.keys.view(np.uint64) - lo.view(np.uint64))
    else:
        _w_array(buf, part.rotation)
        _w_unsigned(buf, part.split_dim + 1)  # 0 at a leaf
        _w_array(buf, part.threshold[part.split_dim >= 0])
    _w_f64(buf, model.fallback)
    _w_array(buf, model.means)
    if new_ids is not None:
        _w_unsigned(buf, model.offsets)
        _w_unsigned(buf, new_ids[model.ids])
        _w_array(buf, model.alpha)


def _read_member(r: _Reader, d: int, config: TrainConfig, clip_bound: float,
                 rows: np.ndarray) -> Member:
    if config.partition == "grid":
        transform = HistogramTransform(
            r.array("grid rotation", np.float64, d, d),
            r.array("grid scales", np.float64, d),
            r.array("grid translation", np.float64, d),
            r.f64("grid h_lower"),
            r.f64("grid h_upper"),
        )
        lo = r.array("grid key base", np.int64, d)
        keys = r.unsigned("grid key offsets", np.uint64, None, d)
        keys += lo.view(np.uint64)  # offsets to keys: uint64 sums wrap to the int64 bits
        part = GridPartition(transform, keys.view(np.int64))
        # the box rejected keys outside +-2**62; a base that is not the
        # keys' minimum, or an offset that wrapped (to a key below the
        # base), moves the minimum off the base
        _require((part._lo + 1 == lo).all(), "grid key base is not the keys' minimum")
    else:
        rotation = r.array("tree rotation", np.float64, d, d)
        split_dim = r.unsigned("tree split dimensions", np.int64, None) - 1
        internal = split_dim >= 0
        threshold = np.full(split_dim.shape, np.nan)  # NaN at a leaf
        threshold[internal] = r.array("tree thresholds", np.float64, int(internal.sum()))
        part = AdaptiveTree(rotation, split_dim, threshold)
    n_cells = part.n_cells
    fallback, means = r.f64("fallback"), r.array("cell means", np.float64, n_cells)
    if config.mode == "kht":
        offsets = r.unsigned("kernel offsets", np.int64, n_cells + 1)
        _require(offsets[0] == 0 and (np.diff(offsets) >= 0).all(),
                 "kernel offsets must start at 0 and never decrease")
        n_kernel = int(offsets[-1])
        ids = r.unsigned("kernel row ids", np.int32, n_kernel, below=len(rows))
        alpha = r.array("kernel coefficients", np.float64, n_kernel)
        # kernel values lie in [0, 1]: a finite sum of |alpha| bounds every K @ alpha
        with np.errstate(over="ignore"):
            _require(np.isfinite(np.abs(alpha).sum()),
                     "kernel coefficients sum past the float range")
    else:
        offsets = np.zeros(n_cells + 1, dtype=np.int64)
        ids, alpha = np.empty(0, dtype=np.intp), np.empty(0)
    return Member(part, KernelCellModel(
        offsets=offsets,
        rows=rows,
        ids=ids,
        alpha=alpha,
        means=means,
        gamma=config.gamma,
        clip_bound=clip_bound,
        fallback=fallback,
    ))


def serialize_model(model: EnsembleModel) -> bytes:
    header = {
        **_HEADER_CONSTANTS,
        "d": model.d,
        "n_transforms": model.n_transforms,
        "total_cells": model.total_cells,
        "clip_bound": model.clip_bound,
        "config": model.config.to_dict(),
        "data": model.data_info,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    _w_u64(buf, len(header_bytes))
    buf.write(header_bytes)
    _write_standardizer(buf, model.standardizer)
    new_ids = None
    if model.config.mode == "kht":
        shared, new_ids = _shared_rows(model)
        _w_array(buf, shared)
    for member in model.members:
        _write_member(buf, member, model, new_ids)
    payload = buf.getvalue()
    return payload + hashlib.sha256(payload).digest()


def save_model(model: EnsembleModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def _verify(data: bytes) -> tuple[dict, int]:
    """The checked header of a model file and the offset of its payload."""
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
    digest = hashlib.sha256(memoryview(data)[:-_CHECKSUM_BYTES]).digest()
    if digest != data[-_CHECKSUM_BYTES:]:
        raise DataError("model file corrupt: checksum mismatch")
    header_len = struct.unpack_from("<Q", data, len(MAGIC) + 4)[0]
    start = len(MAGIC) + 4 + 8
    try:
        header = json.loads(data[start : start + header_len].decode())
    except (ValueError, RecursionError) as exc:  # a too long integer; nested too deep
        raise DataError(f"model file corrupt: header is not JSON ({exc})") from exc
    _require(isinstance(header, dict), "header is not a JSON object")
    for key, value in _HEADER_CONSTANTS.items():
        _require(header.get(key) == value, f"header field {key!r} is not {value!r}")
    try:
        for key, kind in _HEADER_FIELDS.items():
            _require(key in header, f"header field {key!r} is missing")
            check_type(f"header field {key!r}", header[key], kind)
    except ConfigError as exc:
        raise DataError(f"model file corrupt: {exc}") from exc
    _require(header["d"] >= 1 and header["n_transforms"] >= 1,
             "header d and n_transforms must be >= 1")
    _require(0 < header["clip_bound"] < math.inf, "header clip_bound must be finite and positive")
    return header, start + header_len


def read_metadata(path) -> dict:
    """Header of a model file (verified), without loading the members."""
    with open(path, "rb") as fh:
        return _verify(fh.read())[0]


def deserialize_model(data: bytes) -> EnsembleModel:
    header, offset = _verify(data)
    reader = _Reader(memoryview(data)[:-_CHECKSUM_BYTES], offset)
    d = header["d"]
    try:
        config = TrainConfig.from_dict(header["config"])
        standardizer = _read_standardizer(reader, d)
        kernel = config.mode == "kht"
        rows = (reader.array("shared support rows", np.float64, None, d) if kernel
                else np.empty((0, d)))
        members = [_read_member(reader, d, config, header["clip_bound"], rows)
                   for _ in range(header["n_transforms"])]
        if kernel:  # a row no member uses would be dropped by the next save
            used = _used_rows(len(rows), [member.model for member in members])
            _require(used.all(), "a shared support row is used by no member")
        if config.partition == "adaptive":  # a grid transform checks its own
            check_rotation(np.array([m.partition.rotation for m in members]))
    except ConfigError as exc:  # the config, a transform or a tree rejected the file
        raise DataError(f"model file corrupt: {exc}") from exc
    _require(reader.pos == len(reader.data),
             f"{len(reader.data) - reader.pos} trailing bytes after the last member")
    model = EnsembleModel(members, standardizer, config, header["clip_bound"], header["data"])
    _require(model.total_cells == header["total_cells"],
             f"header total_cells {header['total_cells']} != the members' {model.total_cells}")
    return model


def load_model(path) -> EnsembleModel:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())
