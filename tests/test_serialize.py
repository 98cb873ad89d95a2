import functools
import hashlib
import json
import struct
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hte.data import Dataset, gen_counter3d, gen_sin16
from hte.ensemble import EnsembleModel, TrainConfig, predict, train_ensemble
from hte.errors import DataError
from hte.local_models import KernelCellModel
from hte.partition import AdaptiveTree, GridPartition
from hte.serialize import (
    _TRAILER_BYTES,
    FORMAT_VERSION,
    _Reader,
    _seal,
    _Writer,
    deserialize_model,
    load_model,
    read_metadata,
    save_model,
    serialize_model,
)


def _train(mode, partition, n=250, seed=42, **overrides):
    ds = gen_counter3d(n, seed=seed)
    cfg = TrainConfig(mode=mode, partition=partition, n_transforms=3,
                      min_samples_split=40, master_seed=seed, **overrides)
    return ds, train_ensemble(ds, cfg)


def _assert_round_trip_lossless(model):
    again = deserialize_model(serialize_model(model))

    assert again.config == model.config
    assert again.clip_bound == model.clip_bound
    np.testing.assert_array_equal(again.standardizer.mean, model.standardizer.mean)
    np.testing.assert_array_equal(again.standardizer.std, model.standardizer.std)
    assert (again.standardizer.target_mean, again.standardizer.target_std) == \
           (model.standardizer.target_mean, model.standardizer.target_std)

    for a, b in zip(model.members, again.members):
        if isinstance(a.partition, GridPartition):
            assert isinstance(b.partition, GridPartition)
            assert a.partition.keys.dtype == b.partition.keys.dtype
            assert a.partition.keys.shape == b.partition.keys.shape
            assert a.partition.keys.tobytes() == b.partition.keys.tobytes()
            ta, tb = a.partition.transform, b.partition.transform
            assert ta.rotation.tobytes() == tb.rotation.tobytes()
            assert ta.scales.tobytes() == tb.scales.tobytes()
            assert ta.translation.tobytes() == tb.translation.tobytes()
            assert (ta.h_lower, ta.h_upper) == (tb.h_lower, tb.h_upper)
        else:
            assert isinstance(b.partition, AdaptiveTree)
            for field in ("rotation", "split_dim", "threshold"):
                fa, fb = getattr(a.partition, field), getattr(b.partition, field)
                assert (fa.dtype, fa.shape) == (fb.dtype, fb.shape)
                assert fa.tobytes() == fb.tobytes()
            assert a.partition.n_cells == b.partition.n_cells
        assert isinstance(b.model, KernelCellModel)
        assert (a.model.gamma, a.model.clip_bound, a.model.fallback) == \
               (b.model.gamma, b.model.clip_bound, b.model.fallback)
        for field in ("offsets", "support", "alpha", "means"):
            fa, fb = getattr(a.model, field), getattr(b.model, field)
            assert (fa.dtype, fa.shape) == (fb.dtype, fb.shape)
            assert fa.tobytes() == fb.tobytes()
        assert b.model.rows is again.members[0].model.rows  # one shared block

    queries = gen_counter3d(100, seed=7).X
    np.testing.assert_array_equal(predict(model, queries), predict(again, queries))


@pytest.mark.parametrize("mode,partition", [
    ("nht", "grid"), ("nht", "adaptive"), ("kht", "grid"), ("kht", "adaptive"),
])
def test_round_trip_is_lossless(mode, partition):
    _, model = _train(mode, partition)
    _assert_round_trip_lossless(model)


@settings(max_examples=20, deadline=None)
@given(mode=st.sampled_from(["nht", "kht"]), partition=st.sampled_from(["grid", "adaptive"]),
       k_min=st.integers(1, 12), n_candidates=st.integers(1, 3),
       standardize_features=st.booleans(), standardize_target=st.booleans(),
       seed=st.integers(0, 2**16))
def test_round_trip_is_lossless_over_drawn_configs(mode, partition, k_min, n_candidates,
                                                   standardize_features, standardize_target,
                                                   seed):
    if partition == "adaptive":
        n_candidates = 1  # best-scored candidates need grid partitions
    _, model = _train(mode, partition, seed=seed, k_min=k_min, n_candidates=n_candidates,
                      standardize_features=standardize_features,
                      standardize_target=standardize_target)
    _assert_round_trip_lossless(model)


@pytest.mark.parametrize("partition", ["grid", "adaptive"])
def test_model_bytes_do_not_depend_on_the_feature_layout(partition):
    ds = gen_counter3d(2000, seed=3)
    cfg = TrainConfig(partition=partition, n_transforms=4, min_samples_split=50)
    c_ordered = serialize_model(train_ensemble(ds, cfg))
    f_ordered = Dataset(np.asfortranarray(ds.X), ds.y)
    assert serialize_model(train_ensemble(f_ordered, cfg)) == c_ordered


def test_reserialization_is_byte_stable():
    _, model = _train("kht", "grid")
    blob = serialize_model(model)
    assert serialize_model(deserialize_model(blob)) == blob


def test_file_round_trip(tmp_path):
    ds, model = _train("nht", "grid")
    model.data_info = {"target": "y", "has_header": True}
    path = tmp_path / "model.hte"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(predict(loaded, ds.X), predict(model, ds.X))
    assert loaded.data_info == {"target": "y", "has_header": True}

    metadata = read_metadata(path)
    assert metadata == {
        "format_version": FORMAT_VERSION,
        "rng": "philox4x64",
        "normal_method": "inverse_cdf",
        "d": 3,
        "n_transforms": 3,
        "total_cells": model.total_cells,
        "clip_bound": model.clip_bound,
        "config": model.config.to_dict(),
        "data": {"target": "y", "has_header": True},
    }
    assert metadata["config"]["mode"] == "nht" and metadata["config"]["master_seed"] == 42


def _unwritable_members(model):
    model.members[0].model.clip_bound = 2 * model.clip_bound


def _unwritable_data(model):
    model.data_info = {"columns": {"x1", "x2"}}  # a set: not JSON


def _circular_data(model):
    model.data_info = {"target": "y"}
    model.data_info["self"] = model.data_info


@pytest.mark.parametrize("spoil,problem", [
    (_unwritable_members, "a member's gamma or clip_bound differs from the ensemble's"),
    (_unwritable_data, r"header field 'data' cannot be written as JSON \(.*set"),
    (_circular_data, r"header field 'data' cannot be written as JSON \(Circular reference"),
])
def test_a_failed_save_leaves_the_old_file(tmp_path, spoil, problem):
    _, model = _train("kht", "grid", n=120)
    path = tmp_path / "model.hte"
    save_model(model, path)
    old = path.read_bytes()
    spoil(model)
    with pytest.raises(DataError, match=problem):
        serialize_model(model)
    with pytest.raises(DataError, match=problem):
        save_model(model, path)
    assert path.read_bytes() == old
    with pytest.raises(DataError, match=problem):
        save_model(model, tmp_path / "new.hte")
    assert not (tmp_path / "new.hte").exists()


@pytest.mark.parametrize("partition", ["grid", "adaptive"])
def test_member_block_has_no_partition_tag(partition):
    # the config gives the kind: the first member block opens with its
    # float64 rank-2 rotation, right after the standardizer block
    _, model = _train("nht", partition, n=120)
    blob = serialize_model(model)
    standardizer_bytes = 2 * (1 + 1 + 8 + 8 * 3) + 1  # mean, std, no target statistics
    at = _first_array_offset(blob) + standardizer_bytes
    assert blob[at:at + 2] == bytes([0, 2])
    assert struct.unpack_from("<QQ", blob, at + 2) == (3, 3)


def test_member_partition_kind_must_match_the_config():
    _, model = _train("nht", "grid", n=120)
    model.config.partition = "adaptive"
    with pytest.raises(DataError, match="a member's partition kind differs from the ensemble's"):
        serialize_model(model)


def test_checksum_detects_corruption(tmp_path):
    _, model = _train("nht", "grid", n=120)
    path = tmp_path / "model.hte"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="checksum"):
        load_model(path)


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(["nht", "kht"]), partition=st.sampled_from(["grid", "adaptive"]),
       seed=st.integers(0, 3), width=st.integers(1, 4), near_end=st.booleans(),
       data=st.data())
def test_a_burst_of_up_to_four_bytes_fails_the_checksum(mode, partition, seed, width,
                                                        near_end, data):
    # CRC-32 detects every burst of up to 32 bits, so a changed run of 1-4
    # bytes anywhere after the version field, the trailer included, is a
    # checksum mismatch; one in the magic or version is rejected by name
    blob = _small_model_file(mode, partition, seed)
    last = len(blob) - width
    start = data.draw(st.integers(max(0, last - 8), last) if near_end else st.integers(0, last))
    old = blob[start:start + width]
    new = data.draw(st.binary(min_size=width, max_size=width).filter(lambda b: b != old))
    corrupt = blob[:start] + new + blob[start + width:]
    first = start + next(i for i in range(width) if new[i] != old[i])
    problem = "checksum mismatch" if first >= 8 else "magic|version"
    with pytest.raises(DataError, match=problem):
        deserialize_model(corrupt)


@pytest.mark.parametrize("mode", ["nht", "kht"])
def test_every_bit_of_the_trailer_is_checked(mode):
    blob = _small_model_file(mode, "grid", 0)
    # the trailer is the little-endian zlib.crc32 of everything before it
    assert _TRAILER_BYTES == 4 and blob[-4:] == struct.pack("<I", zlib.crc32(blob[:-4]))
    for bit in range(8 * _TRAILER_BYTES):
        corrupt = bytearray(blob)
        corrupt[len(blob) - _TRAILER_BYTES + bit // 8] ^= 1 << bit % 8
        with pytest.raises(DataError, match="checksum mismatch"):
            deserialize_model(bytes(corrupt))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "nonsense.hte"
    path.write_bytes(b"not a model at all, definitely too short? no - long enough")
    with pytest.raises(DataError, match="magic"):
        load_model(path)


def test_unsupported_version_rejected(tmp_path):
    _, model = _train("nht", "grid", n=120)
    blob = bytearray(serialize_model(model))
    blob[4] = 99  # version field
    with pytest.raises(DataError, match="version"):
        deserialize_model(bytes(blob))


def test_same_seed_retraining_reproduces_bytes():
    ds = gen_sin16(300, seed=5)
    cfg = TrainConfig(mode="nht", n_transforms=4, master_seed=77)
    a = serialize_model(train_ensemble(ds, cfg))
    b = serialize_model(train_ensemble(ds, cfg))
    assert a == b


def _first_array_offset(blob: bytes) -> int:
    """Offset of the standardizer mean, the first array after the header."""
    return 4 + 4 + 8 + struct.unpack_from("<Q", blob, 8)[0]


def test_version_1_file_rejected_by_name():
    _, model = _train("nht", "grid", n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[4:8] = struct.pack("<I", 1)
    with pytest.raises(DataError, match="unsupported model format version 1"):
        deserialize_model(_seal(bytes(blob)))


def test_unknown_dtype_tag_rejected():
    _, model = _train("nht", "grid", n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[_first_array_offset(blob)] = 7
    with pytest.raises(DataError, match="dtype tag 7"):
        deserialize_model(_seal(bytes(blob)))


def test_trailing_bytes_rejected():
    _, model = _train("nht", "grid", n=120)
    payload = serialize_model(model)[:-_TRAILER_BYTES] + b"\x00" * 3
    with pytest.raises(DataError, match="3 trailing bytes"):
        deserialize_model(_seal(payload))


def _kernel_grid_member():
    _, model = _train("kht", "grid")
    member = model.members[0]
    assert member.model.offsets[-1] > 0  # at least one kernel cell
    return model, member


def _key_records(keys: np.ndarray) -> bytes:
    """The records the writer stores for a grid key table: the int64 base
    (each column's minimum), then the offsets from it as an unsigned record."""
    lo = keys.min(axis=0)
    return _record(lo) + _unsigned_record(keys.view(np.uint64) - lo.view(np.uint64))


def test_grid_key_table_width_checked():
    model, member = _kernel_grid_member()
    blob = serialize_model(model)
    keys = member.partition.keys
    offsets = keys.view(np.uint64) - keys.min(axis=0).view(np.uint64)
    narrow = _with_record(blob, _unsigned_record(offsets), _unsigned_record(offsets[:, :2]))
    with pytest.raises(DataError, match=r"corrupt: grid key offsets: uint\d+ of shape \(\d+, 2\), "
                                        r"not uint\d+ of shape \(n, 3\)"):
        deserialize_model(narrow)


@pytest.mark.parametrize("partition", ["grid", "adaptive"])
def test_float_record_under_an_integer_tag_is_corrupt(partition):
    # each loaded and saved to other bytes: a grid translation of uint8
    # zeros, and a tree rotation that is the identity in int64
    _, model = _train("nht", partition, n=120)
    part = model.members[0].partition
    if partition == "grid":
        what, old, new = "grid translation", part.transform.translation, np.zeros(3, np.uint8)
    else:
        part.rotation = np.eye(3)
        what, old, new = "tree rotation", part.rotation, np.eye(3, dtype=np.int64)
    blob = _with_record(serialize_model(model), _record(old), _record(new))
    with pytest.raises(DataError, match=rf"corrupt: {what}: {new.dtype} of shape "
                                        rf"\(.*\), not float64 of shape"):
        deserialize_model(blob)


def test_grid_member_of_another_dimension_is_corrupt():
    # a 3-d file whose first member holds a 2-d transform over its 3-column
    # key table loaded, and predict then failed with a config error
    _, model = _train("nht", "grid", n=120)
    t = model.members[0].partition.transform
    old = b"".join(map(_record, (t.rotation, t.scales, t.translation)))
    new = b"".join(map(_record, (np.eye(2), t.scales[:2], t.translation[:2])))
    with pytest.raises(DataError, match=r"corrupt: grid rotation: float64 of shape \(2, 2\), "
                                        r"not float64 of shape \(3, 3\)"):
        deserialize_model(_with_record(serialize_model(model), old, new))


def test_grid_repeated_key_is_corrupt():
    model, member = _kernel_grid_member()
    keys = member.partition.keys.copy()
    keys[1] = keys[0]  # cell 1's bin would become a miss
    member.partition.keys = keys
    with pytest.raises(DataError, match="corrupt: grid key table repeats a key"):
        deserialize_model(serialize_model(model))


@pytest.mark.parametrize("key", [np.iinfo(np.int64).min, np.iinfo(np.int64).max])
def test_grid_key_outside_bin_key_range_is_corrupt(key):
    # the guard layers around such a key would wrap, so it must not load
    _, model = _train("nht", "grid", n=120)
    keys = model.members[0].partition.keys
    bad = keys.copy()
    bad[-1, 0] = key
    blob = _with_record(serialize_model(model), _key_records(keys), _key_records(bad))
    with pytest.raises(DataError, match=r"corrupt: grid key outside \[-2\*\*62, 2\*\*62\]"):
        deserialize_model(blob)


@pytest.mark.parametrize("edit", ["lower base", "wrapped offset"])
def test_grid_key_base_must_be_the_keys_minimum(edit):
    # a lower base with larger offsets gives the same keys, but a save
    # would write other bytes; an offset whose sum with the base passes
    # 2**63 - 1 wraps to a key below the base
    _, model = _train("nht", "grid", n=120)
    keys = model.members[0].partition.keys
    lo = keys.min(axis=0)
    offsets = keys.view(np.uint64) - lo.view(np.uint64)
    if edit == "lower base":
        lo[1] -= 1
        offsets[:, 1] += np.uint64(1)
    else:
        offsets[0, 0] = np.uint64(2**64 - 1)  # lo + 2**64 - 1 wraps to lo - 1
    blob = _with_record(serialize_model(model), _key_records(keys),
                        _record(lo) + _unsigned_record(offsets))
    with pytest.raises(DataError, match="corrupt: grid key base is not the keys' minimum"):
        deserialize_model(blob)


_MEANS_SHAPE = r"corrupt: cell means: \w+ of shape \(\d+,\), not float64 of shape \(\d+,\)"


def _serialize_unchecked(model) -> bytes:
    """The file of ``model`` without the writer's record-length check: the
    files that check refuses to write, for the loader's own length rules."""
    with mock.patch("hte.serialize._check_lengths"):
        return serialize_model(model)


def test_kernel_means_length_checked():
    model, member = _kernel_grid_member()
    member.model.means = member.model.means[:-1]
    with pytest.raises(DataError, match=_MEANS_SHAPE):
        deserialize_model(_serialize_unchecked(model))


@pytest.mark.parametrize("partition", ["grid", "adaptive"])
def test_nht_means_length_checked(partition):
    _, model = _train("nht", partition, n=120)
    member = model.members[-1]
    member.model.means = np.append(member.model.means, 0.0)
    with pytest.raises(DataError, match=_MEANS_SHAPE):
        deserialize_model(_serialize_unchecked(model))


@pytest.mark.parametrize("mode, fields", [("nht", ["means", "offsets"]), ("kht", ["means"]),
                                          ("kht", ["offsets"]), ("kht", ["ids"]),
                                          ("kht", ["alpha"])])
def test_writer_refuses_a_member_its_loader_rejects(tmp_path, mode, fields):
    # records one short make a file the loader rejects; the writer raises
    # first, and a failed save leaves the old file
    model = _train(mode, "grid")[1] if mode == "nht" else _kernel_grid_member()[0]
    path = tmp_path / "model.hte"
    save_model(model, path)
    old = path.read_bytes()
    member = model.members[0].model
    for field in fields:
        setattr(member, field, getattr(member, field)[:-1])
    with pytest.raises(DataError, match="corrupt"):
        deserialize_model(_serialize_unchecked(model))
    with pytest.raises(DataError, match="a member's (regressor|kernel offsets)"):
        save_model(model, path)
    assert path.read_bytes() == old


def test_cell_means_dtype_checked():
    _, model = _train("nht", "grid", n=120)
    member = model.members[0]
    member.model.means = np.zeros(member.model.n_cells, dtype=np.int64)
    with pytest.raises(DataError, match=_MEANS_SHAPE):
        deserialize_model(serialize_model(model))


def test_nht_file_holds_no_kernel_cells():
    _, model = _train("nht", "grid", n=120)
    blob = serialize_model(model)
    again = deserialize_model(blob)
    for member in again.members:
        assert member.model.offsets.tolist() == [0] * (member.model.n_cells + 1)
        assert member.model.support.shape == (0, 3) and member.model.alpha.shape == (0,)
        assert (member.model.gamma, member.model.clip_bound) == \
               (model.config.gamma, model.clip_bound)
    member = model.members[0]
    member.model.offsets = np.r_[0, np.ones(member.model.n_cells, dtype=np.int64)]
    member.model.support, member.model.alpha = np.zeros((1, 3)), np.ones(1)
    with pytest.raises(DataError, match="an nht member cannot hold kernel cells"):
        serialize_model(model)


@pytest.mark.parametrize("field", ["gamma", "clip_bound"])
def test_member_must_share_the_header_gamma_and_clip_bound(field):
    # a file holds one gamma and one clip_bound for all members
    model, member = _kernel_grid_member()
    setattr(member.model, field, getattr(member.model, field) * 2.0)
    with pytest.raises(DataError, match="gamma or clip_bound differs from the ensemble's"):
        serialize_model(model)


def test_kernel_offsets_must_start_at_zero():
    model, member = _kernel_grid_member()
    member.model.offsets = member.model.offsets.copy()
    member.model.offsets[0] = 1
    with pytest.raises(DataError, match="offsets"):
        deserialize_model(serialize_model(model))


def test_kernel_offsets_must_not_decrease():
    model, member = _kernel_grid_member()
    offsets = member.model.offsets.copy()
    offsets[1] = offsets[-1] + 1  # start and end stay valid
    member.model.offsets = offsets
    with pytest.raises(DataError, match="offsets"):
        deserialize_model(serialize_model(model))


def test_kernel_offsets_must_end_at_coefficient_count():
    # the last offset gives the coefficient count the read expects
    model, member = _kernel_grid_member()
    n = member.model.offsets[-1]
    member.model.alpha = member.model.alpha[:-1]
    with pytest.raises(DataError, match=rf"corrupt: kernel coefficients: float64 of shape "
                                        rf"\({n - 1},\), not float64 of shape \({n},\)"):
        deserialize_model(_serialize_unchecked(model))


def _share_rows(model, rows):
    """Point every member at ``rows``, the one matrix their ids index."""
    for member in model.members:
        member.model.rows = rows


def test_kernel_support_width_checked():
    model, member = _kernel_grid_member()
    _share_rows(model, member.model.rows[:, :2])
    with pytest.raises(DataError, match=r"shared support rows: float64 of shape \(\d+, 2\), "
                                        r"not float64 of shape \(n, 3\)"):
        deserialize_model(serialize_model(model))


def _record(arr: np.ndarray) -> bytes:
    """The bytes the writer stores for ``arr``: tag, rank, dimensions, data."""
    w = _Writer()
    w.array(arr)
    return b"".join(w.parts)


def _unsigned_record(arr: np.ndarray) -> bytes:
    """The bytes the writer stores for integers >= 0: the narrowest unsigned
    dtype that holds them (numpy's ``min_scalar_type`` of the largest)."""
    narrow = np.min_scalar_type(int(arr.max(initial=0)))
    assert narrow.kind == "u"
    return _record(arr.astype(narrow))


def _with_record(blob: bytes, old: bytes, new: bytes) -> bytes:
    """A resealed copy of a model file with its one record ``old`` replaced."""
    payload = blob[:-_TRAILER_BYTES]
    assert payload.count(old) == 1
    return _seal(payload.replace(old, new))


def test_kht_file_stores_each_support_row_once():
    model, _ = _kernel_grid_member()
    blob = serialize_model(model)
    again = deserialize_model(blob)
    rows = again.members[0].model.rows
    trained = np.unique(np.concatenate([m.model.ids for m in model.members]))
    # the used rows in training order, right after the standardizer
    assert rows.tobytes() == model.members[0].model.rows[trained].tobytes()
    standardizer_bytes = 2 * (1 + 1 + 8 + 8 * 3) + 1
    assert blob[_first_array_offset(blob) + standardizer_bytes:].startswith(_record(rows))
    for a, b in zip(model.members, again.members):
        assert b.model.ids.dtype == np.int32 and b.model.rows is rows
        assert _unsigned_record(b.model.ids) in blob
        np.testing.assert_array_equal(rows[b.model.ids], a.model.support)
    assert sum(len(m.model.ids) for m in model.members) > len(rows)


@pytest.mark.parametrize("bad", ["negative", "k"])
def test_kernel_row_id_outside_the_shared_rows_is_corrupt(bad):
    model, _ = _kernel_grid_member()
    blob = serialize_model(model)
    kernel = deserialize_model(blob).members[1].model
    k = len(kernel.rows)
    ids = kernel.ids.astype(np.uint32)
    ids[0] = 2**32 - 1 if bad == "negative" else k  # the bits of int32 -1: no wrap on load
    with pytest.raises(DataError, match=rf"corrupt: kernel row ids outside \[0, {k}\)"):
        deserialize_model(_with_record(blob, _unsigned_record(kernel.ids),
                                       _unsigned_record(ids)))


def _integer_records(blob: bytes) -> dict[str, bytes]:
    """The first unsigned record of each kind in a model file, by name."""
    records = {}
    for start, end, what in _array_spans(blob):
        if what is not None:
            records.setdefault(what, blob[start:end])
    return records


_INTEGER_RECORDS = [("kht", "grid", "grid key offsets"), ("kht", "grid", "kernel offsets"),
                    ("kht", "grid", "kernel row ids"), ("nht", "adaptive", "tree split dimensions")]


@pytest.mark.parametrize("mode,partition,what", _INTEGER_RECORDS,
                         ids=[what.replace(" ", "-") for *_, what in _INTEGER_RECORDS])
def test_integer_record_wider_than_needed_is_corrupt(mode, partition, what):
    # one width per set of values keeps load -> save byte-stable
    _, model = _train(mode, partition)
    blob = serialize_model(model)
    record = _integer_records(blob)[what]
    values = _record_values(record)
    wider = np.dtype(f"u{2 * values.itemsize}")
    with pytest.raises(DataError, match=rf"corrupt: {what}: {wider} of shape \(.*\), "
                                        rf"not {values.dtype} of shape"):
        deserialize_model(_with_record(blob, record, _record(values.astype(wider))))
    for signed in (np.int64, np.float64):  # a signed or float record where unsigned belongs
        with pytest.raises(DataError, match=rf"corrupt: {what}: {np.dtype(signed)} of shape "
                                            rf"\(.*\), not unsigned of shape"):
            deserialize_model(_with_record(blob, record, _record(values.astype(signed))))
    if what != "grid key offsets":  # a value that would wrap when widened to int64 or int32
        past = values.astype(np.uint64)
        past[-1] = 2**63
        with pytest.raises(DataError, match=rf"corrupt: {what} outside \[0, \d+\)"):
            deserialize_model(_with_record(blob, record, _unsigned_record(past)))


def test_kernel_row_ids_length_checked():
    model, member = _kernel_grid_member()
    n = len(member.model.ids)
    member.model.ids = member.model.ids[:-1]
    with pytest.raises(DataError, match=rf"corrupt: kernel row ids: uint\d+ of shape \({n - 1},\), "
                                        rf"not uint\d+ of shape \({n},\)"):
        deserialize_model(_serialize_unchecked(model))


def test_shared_row_used_by_no_member_is_corrupt():
    # a load and save would drop such a row and change the bytes
    model, _ = _kernel_grid_member()
    blob = serialize_model(model)
    rows = deserialize_model(blob).members[0].model.rows
    extra = np.vstack([rows, np.zeros((1, 3))])
    with pytest.raises(DataError, match="corrupt: a shared support row is used by no member"):
        deserialize_model(_with_record(blob, _record(rows), _record(extra)))


def test_members_of_two_models_do_not_share_one_file():
    model, _ = _kernel_grid_member()
    _, other = _train("kht", "grid", seed=43)
    mixed = EnsembleModel([model.members[0], other.members[1]], model.standardizer,
                          model.config, model.clip_bound)
    with pytest.raises(DataError, match="the kht members do not share one rows matrix"):
        serialize_model(mixed)


def test_version_2_file_rejected_by_name():
    _, model = _train("nht", "adaptive", n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[4:8] = struct.pack("<I", 2)
    with pytest.raises(DataError, match=rf"unsupported model format version 2 "
                                        rf"\(this build reads version {FORMAT_VERSION}\)"):
        deserialize_model(_seal(bytes(blob)))


@pytest.mark.parametrize("mode", ["nht", "kht"])
def test_version_3_file_rejected_by_name(mode):
    # version 3 tagged each regressor block and stored a kernel member's
    # gamma and clip_bound in it; those files must be retrained
    _, model = _train(mode, "grid", n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[4:8] = struct.pack("<I", 3)
    with pytest.raises(DataError, match=rf"unsupported model format version 3 "
                                        rf"\(this build reads version {FORMAT_VERSION}\)"):
        deserialize_model(_seal(bytes(blob)))


@pytest.mark.parametrize("partition", ["grid", "adaptive"])
def test_version_4_file_rejected_by_name(partition):
    # version 4 tagged each partition block and copied mode, partition and
    # seed into the header; those files must be retrained
    _, model = _train("nht", partition, n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[4:8] = struct.pack("<I", 4)
    with pytest.raises(DataError, match=rf"unsupported model format version 4 "
                                        rf"\(this build reads version {FORMAT_VERSION}\)"):
        deserialize_model(_seal(bytes(blob)))


@pytest.mark.parametrize("mode", ["nht", "kht"])
def test_version_5_file_rejected_by_name(mode):
    # version 5 stored each kht member's own float64 copy of its support
    # rows; those files must be retrained
    _, model = _train(mode, "grid", n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[4:8] = struct.pack("<I", 5)
    with pytest.raises(DataError, match=rf"unsupported model format version 5 "
                                        rf"\(this build reads version {FORMAT_VERSION}\)"):
        deserialize_model(_seal(bytes(blob)))


@pytest.mark.parametrize("partition", ["grid", "adaptive"])
def test_version_6_file_rejected_by_name(partition):
    # version 6 stored every integer array as int64 (kht row ids as int32)
    # and a NaN threshold at each tree leaf; those files must be retrained
    _, model = _train("nht", partition, n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[4:8] = struct.pack("<I", 6)
    with pytest.raises(DataError, match=r"unsupported model format version 6 "
                                        rf"\(this build reads version {FORMAT_VERSION}\)"):
        deserialize_model(_seal(bytes(blob)))


@pytest.mark.parametrize("trailer", ["crc32", "sha256"])
def test_version_7_file_rejected_by_name(trailer):
    # version 7 ended in a 32-byte SHA-256; the version is read before the
    # trailer, so such a file is named, not reported as corrupt
    _, model = _train("kht", "grid", n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[4:8] = struct.pack("<I", 7)
    payload = bytes(blob)
    old = _seal(payload) if trailer == "crc32" else payload + hashlib.sha256(payload).digest()
    with pytest.raises(DataError, match=r"unsupported model format version 7 "
                                        rf"\(this build reads version {FORMAT_VERSION}\)"):
        deserialize_model(old)


def _tree_member():
    _, model = _train("nht", "adaptive")
    member = model.members[0]
    assert (member.partition.split_dim >= 0).sum() >= 2
    return model, member


def test_tree_split_dim_range_checked():
    model, member = _tree_member()
    member.partition.split_dim = member.partition.split_dim.copy()
    member.partition.split_dim[0] = 7
    with pytest.raises(DataError, match=r"corrupt: tree split_dim outside \[-1, 3\)"):
        deserialize_model(serialize_model(model))


def test_tree_node_count_checked():
    model, member = _tree_member()
    member.partition.split_dim = member.partition.split_dim[:-1]
    member.partition.threshold = member.partition.threshold[:-1]
    with pytest.raises(DataError, match="corrupt: .* not a full binary tree"):
        deserialize_model(_serialize_unchecked(model))


def test_tree_node_before_its_children_checked():
    model, member = _tree_member()
    split_dim = member.partition.split_dim.copy()
    split_dim[0], split_dim[-1] = -1, 0  # same node count, last node now internal
    member.partition.split_dim = split_dim
    threshold = member.partition.threshold.copy()
    threshold[-1] = 0.5  # a finite cut for the new internal node, so its read passes
    member.partition.threshold = threshold
    with pytest.raises(DataError, match="corrupt: a tree node is at or after its first child"):
        deserialize_model(serialize_model(model))


def test_tree_threshold_length_checked():
    # a file holds one threshold per internal node; leaves load as NaN
    model, member = _tree_member()
    blob = serialize_model(model)
    tree = member.partition
    internal = tree.threshold[tree.split_dim >= 0]
    for wrong in (internal[:-1], np.append(internal, 0.5)):
        with pytest.raises(DataError, match=rf"corrupt: tree thresholds: float64 of shape "
                                            rf"\(\d+,\), not float64 of shape \({len(internal)},\)"):
            deserialize_model(_with_record(blob, _record(internal), _record(wrong)))


def test_tree_rotation_shape_checked():
    model, member = _tree_member()
    member.partition.rotation = member.partition.rotation[:, :2]
    with pytest.raises(DataError, match=r"corrupt: tree rotation: float64 of shape \(3, 2\), "
                                        r"not float64 of shape \(3, 3\)"):
        deserialize_model(serialize_model(model))


def test_grid_scales_outside_window_are_corrupt():
    model, member = _kernel_grid_member()
    t = member.partition.transform
    object.__setattr__(t, "scales", t.scales * 100.0)
    with pytest.raises(DataError, match="corrupt: bin widths escape"):
        deserialize_model(serialize_model(model))


def test_tree_split_dim_dtype_checked():
    model, member = _tree_member()
    blob = serialize_model(model)
    stored = member.partition.split_dim + 1  # 0 at a leaf
    as_float = _with_record(blob, _unsigned_record(stored), _record(stored.astype(np.float64)))
    with pytest.raises(DataError, match=r"corrupt: tree split dimensions: float64 of shape "
                                        r"\(\d+,\), not unsigned of shape \(n,\)"):
        deserialize_model(as_float)
    member.partition.split_dim = member.partition.split_dim.astype(np.float64)
    with pytest.raises(DataError, match="an unsigned record cannot hold float64 values"):
        serialize_model(model)


# Values that predict reads must be finite (and gamma, clip_bound, std
# positive): a file that holds anything else is corrupt, whatever its checksum.

@pytest.mark.parametrize("field", ["values", "fallback"])
def test_constant_cell_value_not_finite_is_corrupt(field):
    _, model = _train("nht", "grid", n=120)
    member = model.members[0]
    if field == "values":
        member.model.means = member.model.means.copy()
        member.model.means[0] = np.nan
    else:
        member.model.fallback = np.nan
    problem = "cell means" if field == "values" else "fallback"
    with pytest.raises(DataError, match=f"corrupt: {problem} not finite"):
        deserialize_model(serialize_model(model))


@pytest.mark.parametrize("field", ["alpha", "means", "support", "fallback"])
def test_kernel_value_not_finite_is_corrupt(field):
    model, member = _kernel_grid_member()
    if field == "fallback":
        member.model.fallback = np.inf
    elif field == "support":  # the member's last support row, in the shared rows
        rows = member.model.rows.copy()
        rows[member.model.ids[-1], -1] = np.nan
        _share_rows(model, rows)
    else:
        values = getattr(member.model, field).copy()
        values.flat[-1] = np.nan
        setattr(member.model, field, values)
    problem = {"alpha": "kernel coefficients", "support": "shared support rows",
               "means": "cell means", "fallback": "fallback"}[field]
    with pytest.raises(DataError, match=f"corrupt: {problem} not finite"):
        deserialize_model(serialize_model(model))


def test_kernel_coefficients_whose_sum_overflows_are_corrupt():
    # each finite, but a cell's K @ alpha could overflow: it predicted NaN
    ds = gen_counter3d(600, seed=1)
    model = train_ensemble(ds, TrainConfig(mode="kht", n_transforms=2, master_seed=1))
    alpha = model.members[0].model.alpha
    model.members[0].model.alpha = np.where(np.arange(len(alpha)) % 2, -1e308, 1e308)
    with pytest.raises(DataError, match="corrupt: kernel coefficients sum past the float range"):
        deserialize_model(serialize_model(model))


def _set_header_value(model, field, value):
    """``gamma`` and ``clip_bound`` are written once, in the header."""
    if field == "gamma":
        model.config.gamma = value
    else:
        model.clip_bound = value
    for member in model.members:
        setattr(member.model, field, value)


@pytest.mark.parametrize("field,value", [("gamma", -1.0), ("gamma", np.nan),
                                         ("gamma", 1e200), ("gamma", 1e-200),
                                         ("clip_bound", 0.0), ("clip_bound", np.inf)])
def test_kernel_gamma_and_clip_bound_must_be_positive(field, value):
    model, _ = _kernel_grid_member()
    _set_header_value(model, field, value)
    with pytest.raises(DataError, match=f"model file corrupt: .*{field} must be .*finite"):
        deserialize_model(serialize_model(model))


@pytest.mark.parametrize("field,value", [("gamma", 0.0), ("gamma", np.inf),
                                         ("clip_bound", -1.0), ("clip_bound", np.nan)])
def test_header_gamma_and_clip_bound_checked_in_nht_files(field, value):
    _, model = _train("nht", "adaptive", n=120)
    _set_header_value(model, field, value)
    with pytest.raises(DataError, match=f"model file corrupt: .*{field} must be .*finite"):
        deserialize_model(serialize_model(model))


def test_tree_internal_threshold_not_finite_is_corrupt():
    model, member = _tree_member()
    threshold = member.partition.threshold.copy()
    assert np.isnan(threshold[member.partition.split_dim < 0]).all()  # leaves load as NaN
    threshold[0] = np.nan  # the root: every row would be routed right
    member.partition.threshold = threshold
    with pytest.raises(DataError, match="corrupt: tree thresholds not finite"):
        deserialize_model(serialize_model(model))


@pytest.mark.parametrize("field", ["rotation", "scales", "translation"])
def test_grid_transform_not_finite_is_corrupt(field):
    model, member = _kernel_grid_member()
    t = member.partition.transform
    values = getattr(t, field).copy()
    values.flat[0] = np.nan  # passes the transform's own range checks
    object.__setattr__(t, field, values)
    with pytest.raises(DataError, match=f"corrupt: grid {field} not finite"):
        deserialize_model(serialize_model(model))


@pytest.mark.parametrize("partition", ["grid", "adaptive"])
@pytest.mark.parametrize("entry", [0.5, 1e200])
def test_rotation_not_orthonormal_is_corrupt(partition, entry):
    # a tree rotation was never checked, so an adaptive file loaded and
    # predicted wrong; a grid file warned of an overflow in the Gram product
    # before its DataError (an error under this suite's warning filter)
    _, model = _train("nht", partition)
    part = model.members[0].partition
    owner = part.transform if partition == "grid" else part
    rotation = owner.rotation.copy()
    rotation[0, 1] = entry
    object.__setattr__(owner, "rotation", rotation)
    with pytest.raises(DataError, match="corrupt: rotation"):
        deserialize_model(serialize_model(model))


@pytest.mark.parametrize("field,value", [("mean", np.nan), ("std", np.inf)])
def test_standardizer_not_finite_is_corrupt(field, value):
    _, model = _train("nht", "adaptive", n=120)
    values = getattr(model.standardizer, field).copy()
    values[0] = value
    setattr(model.standardizer, field, values)
    with pytest.raises(DataError, match=f"corrupt: standardizer {field} not finite"):
        deserialize_model(serialize_model(model))


@pytest.mark.parametrize("field,edit", [
    # predict used to end in a reshape ValueError
    pytest.param("std", lambda v: v[:2], id="std-short"),
    pytest.param("mean", lambda v: np.append(v, 0.0), id="mean-long"),
    pytest.param("std", lambda v: v[None, :], id="std-rank-2"),
])
def test_standardizer_shape_checked(field, edit):
    _, model = _train("nht", "grid", n=120)
    setattr(model.standardizer, field, edit(getattr(model.standardizer, field)))
    # the header's d is the mean's length, so a long mean rejects the std
    with pytest.raises(DataError, match=r"corrupt: standardizer (mean|std): float64 of shape "
                                        r"\(.*\), not float64 of shape \(\d+,\)"):
        deserialize_model(serialize_model(model))


def test_standardizer_dtype_checked():
    _, model = _train("nht", "adaptive", n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[_first_array_offset(blob)] = 1  # the mean's bytes read as int64
    with pytest.raises(DataError, match=r"corrupt: standardizer mean: int64 of shape \(3,\), "
                                        r"not float64 of shape \(3,\)"):
        deserialize_model(_seal(bytes(blob)))


def test_standardizer_target_flag_other_than_0_or_1_is_corrupt():
    # a flag of 2 loaded as 1 and saved to other bytes
    _, model = _train("nht", "adaptive", n=120, standardize_target=True)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    flag_at = _first_array_offset(blob) + 2 * (1 + 1 + 8 + 8 * 3)
    assert blob[flag_at] == 1
    blob[flag_at] = 2
    with pytest.raises(DataError, match="corrupt: standardizer target flag 2 is not 0 or 1"):
        deserialize_model(_seal(bytes(blob)))


def test_standardizer_std_of_zero_is_corrupt():
    _, model = _train("nht", "adaptive", n=120)
    model.standardizer.std = np.zeros_like(model.standardizer.std)
    with pytest.raises(DataError, match="corrupt: standardizer std is not positive"):
        deserialize_model(serialize_model(model))


@pytest.mark.parametrize("target_mean,target_std,problem", [
    (np.nan, 1.0, "standardizer target statistics not finite"),
    (0.0, 0.0, "standardizer target std is not positive"),
])
def test_standardizer_target_statistics_checked(target_mean, target_std, problem):
    _, model = _train("nht", "grid", n=120, standardize_target=True)
    model.standardizer.target_mean, model.standardizer.target_std = target_mean, target_std
    with pytest.raises(DataError, match=f"corrupt: {problem}"):
        deserialize_model(serialize_model(model))


def _deep_header_file() -> bytes:
    """A checksum-valid file whose header nests JSON arrays 100,000 deep."""
    header = b"[" * 100_000
    return _seal(b"HTEN" + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header)


def test_header_nested_too_deep_is_corrupt(tmp_path):
    with pytest.raises(DataError, match="corrupt: header is not JSON"):
        deserialize_model(_deep_header_file())
    path = tmp_path / "deep.hte"
    path.write_bytes(_deep_header_file())
    with pytest.raises(DataError, match="corrupt: header is not JSON"):
        read_metadata(path)


def test_array_rank_above_two_is_corrupt():
    # rank 221 would reach numpy's 64-dimension limit as a ValueError
    _, model = _train("nht", "grid", n=120)
    blob = bytearray(serialize_model(model)[:-_TRAILER_BYTES])
    blob[_first_array_offset(blob) + 1] = 221
    with pytest.raises(DataError, match="corrupt: array of rank 221 above 2"):
        deserialize_model(_seal(bytes(blob)))


def _read_header(blob: bytes) -> dict:
    size = struct.unpack_from("<Q", blob, 8)[0]
    return json.loads(blob[16:16 + size])


def _with_header(blob: bytes, edit) -> bytes:
    """A resealed copy of a model file whose header is ``edit(header)``."""
    payload = blob[:-_TRAILER_BYTES]
    size = struct.unpack_from("<Q", payload, 8)[0]
    header = edit(json.loads(payload[16:16 + size]))
    header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return _seal(payload[:8] + struct.pack("<Q", len(header)) + header + payload[16 + size:])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=25, deadline=None)
@given(mode=st.sampled_from(["nht", "kht"]),
       partition=st.sampled_from(["grid", "adaptive", "best-scored"]),
       n_transforms=st.integers(1, 3), seed=st.integers(0, 2**16),
       data_info=st.dictionaries(st.text(), _JSON_VALUES, max_size=4),
       field=st.sampled_from(["d", "n_transforms", "total_cells"]),
       delta=st.integers(-3, 3).filter(bool))
def test_load_then_save_keeps_the_bytes(mode, partition, n_transforms, seed, data_info,
                                        field, delta):
    cfg = TrainConfig(mode=mode, partition="adaptive" if partition == "adaptive" else "grid",
                      n_candidates=3 if partition == "best-scored" else 1,
                      n_transforms=n_transforms, min_samples_split=30, master_seed=seed)
    model = train_ensemble(gen_counter3d(120, seed=seed), cfg)
    model.data_info = data_info
    blob = serialize_model(model)
    loaded = deserialize_model(blob)
    assert serialize_model(loaded) == blob
    _assert_narrowest(blob)
    assert loaded.data_info == data_info
    assert serialize_model(deserialize_model(_with_header(blob, dict))) == blob
    # the header's counts are checked against what the file holds
    with pytest.raises(DataError):
        deserialize_model(_with_header(blob, lambda h: {**h, field: h[field] + delta}))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["grid", "adaptive", "best-scored"]), d=st.integers(1, 3),
       n=st.integers(10, 80), k_min=st.one_of(st.integers(1, 8), st.just(200)),
       n_transforms=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_kht_load_then_save_keeps_the_bytes_and_the_predictions(kind, d, n, k_min,
                                                                n_transforms, seed):
    # k_min above n leaves no kernel cell: the shared block is (0, d)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.sin(X.sum(axis=1)) + rng.normal(size=n) * 0.1
    cfg = TrainConfig(mode="kht", partition="adaptive" if kind == "adaptive" else "grid",
                      n_candidates=3 if kind == "best-scored" else 1, n_transforms=n_transforms,
                      min_samples_split=10, k_min=k_min, master_seed=seed)
    model = train_ensemble(Dataset(X, y), cfg, n_threads=1)
    blob = serialize_model(model)
    again = deserialize_model(blob)
    assert serialize_model(again) == blob
    _assert_narrowest(blob)
    rows = again.members[0].model.rows
    assert rows.shape[1] == d and (k_min <= n or len(rows) == 0)
    queries = np.vstack([X, rng.normal(size=(20, d)) * 3.0])
    assert predict(again, queries).tobytes() == predict(model, queries).tobytes()


# spans that straddle each width's limit, up to keys at -2**62 and 2**62
_SPANS = [0, 1, 254, 255, 256, 65_534, 65_535, 65_536, 2**32 - 1, 2**32, 2**62, 2**63]


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), n_cells=st.integers(1, 10), seed=st.integers(0, 2**16),
       data=st.data())
def test_drawn_grid_key_tables_keep_their_bytes_on_the_narrowest_width(d, n_cells, seed,
                                                                        data):
    spans = [data.draw(st.sampled_from(_SPANS)) for _ in range(d)]
    lo = [data.draw(st.integers(-2**62, 2**62 - span)) for span in spans]
    rows = [lo, [a + span for a, span in zip(lo, spans)]]  # each axis's minimum and maximum
    rows += [[a + data.draw(st.integers(0, span)) for a, span in zip(lo, spans)]
             for _ in range(n_cells)]
    keys = np.array(rows, dtype=np.int64)
    keys = keys[np.sort(np.unique(keys, axis=0, return_index=True)[1])]
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, d))
    cfg = TrainConfig(mode="nht", n_transforms=1, master_seed=seed)
    model = train_ensemble(Dataset(X, X.sum(axis=1)), cfg, n_threads=1)
    member = model.members[0]
    member.partition = GridPartition(member.partition.transform, keys)
    member.model = KernelCellModel(
        offsets=np.zeros(len(keys) + 1, dtype=np.int64), rows=np.empty((0, d)),
        ids=np.empty(0, dtype=np.intp), alpha=np.empty(0), means=rng.normal(size=len(keys)),
        gamma=cfg.gamma, clip_bound=model.clip_bound, fallback=0.25)
    blob = serialize_model(model)
    _assert_narrowest(blob)
    offsets = _record_values(_integer_records(blob)["grid key offsets"])
    assert offsets.dtype == np.min_scalar_type(max(spans))
    again = deserialize_model(blob)
    assert again.members[0].partition.keys.tobytes() == keys.tobytes()
    assert serialize_model(again) == blob
    queries = np.vstack([X, rng.normal(size=(20, d)) * 1e3])
    assert predict(again, queries).tobytes() == predict(model, queries).tobytes()


@settings(max_examples=20, deadline=None)
@given(mode=st.sampled_from(["nht", "kht"]), partition=st.sampled_from(["grid", "adaptive"]),
       seed=st.integers(0, 2**16))
def test_one_leaf_trees_and_empty_row_ids_keep_their_bytes(mode, partition, seed):
    # min_samples_split above n grows one-leaf trees (an empty threshold
    # record), and k_min above n leaves no kernel cell (empty row ids)
    ds = gen_counter3d(60, seed=seed)
    cfg = TrainConfig(mode=mode, partition=partition, n_transforms=2, min_samples_split=100,
                      k_min=100, master_seed=seed)
    model = train_ensemble(ds, cfg, n_threads=1)
    if partition == "adaptive":
        assert all(m.partition.n_cells == 1 for m in model.members)
    blob = serialize_model(model)
    _assert_narrowest(blob)
    again = deserialize_model(blob)
    assert serialize_model(again) == blob
    assert all(len(m.model.ids) == 0 for m in again.members)
    queries = gen_counter3d(30, seed=seed + 1).X
    assert predict(again, queries).tobytes() == predict(model, queries).tobytes()


@functools.lru_cache(maxsize=None)
def _small_model_file(mode: str, partition: str, seed: int) -> bytes:
    cfg = TrainConfig(mode=mode, partition=partition, n_transforms=1 + seed % 2,
                      min_samples_split=30, k_min=3, master_seed=seed)
    return serialize_model(train_ensemble(gen_counter3d(150, seed=seed), cfg, n_threads=1))


def _array_spans(blob: bytes) -> list[tuple[int, int, str | None]]:
    """(start, end, name) of every array record of a valid model file, in
    file order; ``name`` is an unsigned record's, None for the others."""
    spans = []

    def logged(read, unsigned):
        def wrapper(reader, what, *args, **kwargs):
            start = reader.pos
            out = read(reader, what, *args, **kwargs)
            spans.append((start, reader.pos, what if unsigned else None))
            return out
        return wrapper

    with mock.patch.object(_Reader, "array", logged(_Reader.array, False)), \
            mock.patch.object(_Reader, "unsigned", logged(_Reader.unsigned, True)):
        deserialize_model(blob)
    return spans


def _record_values(record: bytes) -> np.ndarray:
    return _Reader(memoryview(record), 0)._record()


def _assert_narrowest(blob: bytes) -> None:
    """Every unsigned record of a model file is on numpy's narrowest
    unsigned dtype for its largest value."""
    for start, end, what in _array_spans(blob):
        if what is not None:
            values = _record_values(blob[start:end])
            assert values.dtype == np.min_scalar_type(int(values.max(initial=0))), what


def _crafted_integer_record(blob: bytes, partition: str, data) -> bytes:
    """A resealed copy of a model file with one integer record, or a tree's
    thresholds, rewritten: on a wider width or as float64, a grid key base
    that is not the keys' minimum, an offset that wraps past 2**63, or a
    threshold count other than the number of internal nodes."""
    payload = blob[:-_TRAILER_BYTES]
    spans = _array_spans(blob)
    kinds = ["widen", "float"] + (["base", "wrap"] if partition == "grid" else ["thresholds"])
    kind = data.draw(st.sampled_from(kinds))
    named = [i for i, (*_, what) in enumerate(spans) if what is not None]
    if kind in ("base", "wrap"):
        named = [i for i in named if spans[i][2] == "grid key offsets"]
    elif kind == "thresholds":
        named = [i for i in named if spans[i][2] == "tree split dimensions"]
    at = data.draw(st.sampled_from(named))
    if kind == "thresholds":  # the record after the split dimensions
        start, end, _ = spans[at + 1]
        cuts = _record_values(payload[start:end])
        count = data.draw(st.integers(0, len(cuts) + 3).filter(lambda c: c != len(cuts)))
        new = _record(np.resize(np.r_[cuts, 0.5], count))
        return _seal(payload[:start] + new + payload[end:])
    start, end, _ = spans[at]
    values = _record_values(payload[start:end])
    if kind == "widen":
        wider = np.int64 if values.itemsize == 8 else np.dtype(f"u{2 * values.itemsize}")
        new = _record(values.astype(wider))
    elif kind == "float":
        new = _record(values.astype(np.float64))
    else:  # the grid key base is the record before the offsets
        start = spans[at - 1][0]
        lo = _record_values(payload[start:spans[at - 1][1]])
        offsets = values.astype(np.uint64)
        j = data.draw(st.integers(0, offsets.shape[1] - 1))
        if kind == "base":  # the same keys from a lower base
            delta = data.draw(st.integers(1, 2**20))
            offsets[:, j] += np.uint64(delta)
            lo[j] -= delta
        else:  # lo + offset past 2**63 - 1 wraps to a key below the base
            i = data.draw(st.integers(0, len(offsets) - 1))
            key = data.draw(st.integers(-2**63, int(lo[j]) - 1))
            offsets[i, j] = np.uint64((key - int(lo[j])) % 2**64)
        new = _record(lo) + _unsigned_record(offsets)
    return _seal(payload[:start] + new + payload[end:])


def _crafted_float_records(blob: bytes):
    """Resealed copies of a model file, each with one non-empty float64
    record rewritten: its values cast to int64 or to uint8, or one row or
    column fewer."""
    payload = blob[:-_TRAILER_BYTES]
    for start, end, _ in _array_spans(blob):
        values = _record_values(payload[start:end])
        if values.dtype != np.float64 or not values.size:
            continue
        cast = values.astype(np.int64)
        edits = [cast, cast.astype(np.uint8), values[:-1]]
        if values.ndim == 2:
            edits.append(values[:, :-1])
        for new in edits:
            yield _seal(payload[:start] + _record(new) + payload[end:])


_QUERIES = np.vstack([gen_counter3d(60, seed=99).X, np.full((1, 3), 1e6)])


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(["nht", "kht"]), partition=st.sampled_from(["grid", "adaptive"]),
       seed=st.integers(0, 3),
       mutation=st.sampled_from(["bytes", "record", "ids", "integer", "float", "header"]),
       truncate=st.booleans(), data=st.data())
def test_a_corrupted_file_raises_a_data_error_or_predicts_clipped(mode, partition, seed,
                                                                  mutation, truncate, data):
    blob = _small_model_file(mode, partition, seed)
    payload = blob[:-_TRAILER_BYTES]

    def replace_bytes(start, end):  # 1-3 bytes in [start, end) set to drawn values
        edited = bytearray(payload)
        for _ in range(data.draw(st.integers(1, 3))):
            edited[data.draw(st.integers(start, end - 1))] = data.draw(st.integers(0, 255))
        return _seal(bytes(edited))

    if mutation == "bytes":  # anywhere after the version field
        corrupt = replace_bytes(8, len(payload))
    elif mutation in ("record", "ids"):  # one array record: any, or a kht member's row ids
        spans = _array_spans(blob)
        if mutation == "ids":
            spans = [span for span in spans if span[2] == "kernel row ids"] or spans
        start, end, _ = data.draw(st.sampled_from(spans))
        if truncate:  # drop the record's tail
            cut = data.draw(st.integers(1, end - start))
            corrupt = _seal(payload[:end - cut] + payload[end:])
        else:
            corrupt = replace_bytes(start, end)
    elif mutation == "integer":
        corrupt = _crafted_integer_record(blob, partition, data)
    elif mutation == "float":  # the writer never gives such a record: none may load
        for corrupt in _crafted_float_records(blob):
            with pytest.raises(DataError):
                deserialize_model(corrupt)
        return
    else:  # set one header or config field to a drawn JSON value
        header = _read_header(blob)
        keys = [("header", k) for k in header] + [("config", k) for k in header["config"]]
        where, key = data.draw(st.sampled_from(keys))
        value = data.draw(_JSON_VALUES)

        def edit(h):
            if where == "header":
                return {**h, key: value}
            return {**h, "config": {**h["config"], key: value}}

        corrupt = _with_header(blob, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a failure, not a rejection
        try:
            model = deserialize_model(corrupt)
            predictions = predict(model, _QUERIES)
        except DataError:
            return
    # the drawn files do not scale the target, and T <= 2 averages exactly
    assert not model.standardizer.scales_target
    assert np.isfinite(predictions).all()
    assert np.abs(predictions).max() <= model.clip_bound
