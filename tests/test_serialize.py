import hashlib
import struct

import numpy as np
import pytest

from hte.data import gen_counter3d, gen_sin16
from hte.ensemble import TrainConfig, predict, train_ensemble
from hte.errors import DataError
from hte.local_models import ConstantModel, KernelCellModel
from hte.partition import AdaptiveTree, GridPartition
from hte.serialize import (
    FORMAT_VERSION,
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


@pytest.mark.parametrize("mode,partition", [
    ("nht", "grid"), ("nht", "adaptive"), ("kht", "grid"), ("kht", "adaptive"),
])
def test_round_trip_is_lossless(mode, partition):
    ds, model = _train(mode, partition)
    again = deserialize_model(serialize_model(model))

    assert again.config == model.config
    assert again.clip_bound == model.clip_bound
    np.testing.assert_array_equal(again.standardizer.mean, model.standardizer.mean)
    np.testing.assert_array_equal(again.standardizer.std, model.standardizer.std)

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
        if isinstance(a.model, ConstantModel):
            assert a.model.values.tobytes() == b.model.values.tobytes()
            assert a.model.fallback == b.model.fallback
        else:
            assert isinstance(b.model, KernelCellModel)
            assert (a.model.gamma, a.model.clip_bound, a.model.fallback) == \
                   (b.model.gamma, b.model.clip_bound, b.model.fallback)
            for field in ("offsets", "support", "alpha", "means"):
                fa, fb = getattr(a.model, field), getattr(b.model, field)
                assert (fa.dtype, fa.shape) == (fb.dtype, fb.shape)
                assert fa.tobytes() == fb.tobytes()

    queries = gen_counter3d(100, seed=7).X
    np.testing.assert_array_equal(predict(model, queries), predict(again, queries))


def test_reserialization_is_byte_stable():
    _, model = _train("kht", "grid")
    blob = serialize_model(model)
    assert serialize_model(deserialize_model(blob)) == blob


def test_file_round_trip(tmp_path):
    ds, model = _train("nht", "grid")
    path = tmp_path / "model.hte"
    save_model(model, path, {"target": "y", "has_header": True})
    loaded = load_model(path)
    np.testing.assert_array_equal(predict(loaded, ds.X), predict(model, ds.X))

    metadata = read_metadata(path)
    assert metadata["format_version"] == FORMAT_VERSION
    assert metadata["mode"] == "nht"
    assert metadata["n_transforms"] == 3
    assert metadata["d"] == 3
    assert metadata["rng"] == "philox4x64"
    assert metadata["normal_method"] == "inverse_cdf"
    assert metadata["data"] == {"target": "y", "has_header": True}
    assert metadata["config"]["master_seed"] == 42


def test_checksum_detects_corruption(tmp_path):
    _, model = _train("nht", "grid", n=120)
    path = tmp_path / "model.hte"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="checksum"):
        load_model(path)


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


def _reseal(payload: bytes) -> bytes:
    """Append a valid checksum, so only the check under test can fire."""
    return payload + hashlib.sha256(payload).digest()


def _first_array_offset(blob: bytes) -> int:
    """Offset of the standardizer mean, the first array after the header."""
    return 4 + 4 + 8 + struct.unpack_from("<Q", blob, 8)[0]


def test_version_1_file_rejected_by_name():
    _, model = _train("nht", "grid", n=120)
    blob = bytearray(serialize_model(model)[:-32])
    blob[4:8] = struct.pack("<I", 1)
    with pytest.raises(DataError, match="unsupported model format version 1"):
        deserialize_model(_reseal(bytes(blob)))


def test_unknown_dtype_tag_rejected():
    _, model = _train("nht", "grid", n=120)
    blob = bytearray(serialize_model(model)[:-32])
    blob[_first_array_offset(blob)] = 7
    with pytest.raises(DataError, match="dtype tag 7"):
        deserialize_model(_reseal(bytes(blob)))


def test_trailing_bytes_rejected():
    _, model = _train("nht", "grid", n=120)
    payload = serialize_model(model)[:-32] + b"\x00" * 3
    with pytest.raises(DataError, match="3 trailing bytes"):
        deserialize_model(_reseal(payload))


def _kernel_grid_member():
    _, model = _train("kht", "grid")
    member = model.members[0]
    assert member.model.offsets[-1] > 0  # at least one kernel cell
    return model, member


def test_grid_key_table_width_checked():
    model, member = _kernel_grid_member()
    member.partition.keys = member.partition.keys[:, :2]
    with pytest.raises(DataError, match=r"key table .* not \(n_cells, 3\)"):
        deserialize_model(serialize_model(model))


def test_grid_repeated_key_is_corrupt():
    model, member = _kernel_grid_member()
    keys = member.partition.keys.copy()
    keys[1] = keys[0]  # cell 1's bin would become a miss
    member.partition.keys = keys
    with pytest.raises(DataError, match="corrupt: grid key table repeats a key"):
        deserialize_model(serialize_model(model))


def test_kernel_means_length_checked():
    model, member = _kernel_grid_member()
    member.model.means = member.model.means[:-1]
    with pytest.raises(DataError, match="kernel means"):
        deserialize_model(serialize_model(model))


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
    model, member = _kernel_grid_member()
    member.model.alpha = member.model.alpha[:-1]
    with pytest.raises(DataError, match="offsets"):
        deserialize_model(serialize_model(model))


def test_kernel_support_width_checked():
    model, member = _kernel_grid_member()
    member.model.support = member.model.support[:, :2]
    with pytest.raises(DataError, match=r"support .* not \(\d+, 3\)"):
        deserialize_model(serialize_model(model))


def test_version_2_file_rejected_by_name():
    _, model = _train("nht", "adaptive", n=120)
    blob = bytearray(serialize_model(model)[:-32])
    blob[4:8] = struct.pack("<I", 2)
    with pytest.raises(DataError, match=r"unsupported model format version 2 "
                                        r"\(this build reads version 3\)"):
        deserialize_model(_reseal(bytes(blob)))


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
        deserialize_model(serialize_model(model))


def test_tree_node_before_its_children_checked():
    model, member = _tree_member()
    split_dim = member.partition.split_dim.copy()
    split_dim[0], split_dim[-1] = -1, 0  # same node count, last node now internal
    member.partition.split_dim = split_dim
    with pytest.raises(DataError, match="corrupt: a tree node is at or after its first child"):
        deserialize_model(serialize_model(model))


def test_tree_threshold_length_checked():
    model, member = _tree_member()
    member.partition.threshold = member.partition.threshold[:-1]
    with pytest.raises(DataError,
                       match=r"corrupt: tree thresholds of shape \(\d+,\) for \d+ nodes"):
        deserialize_model(serialize_model(model))


def test_tree_rotation_shape_checked():
    model, member = _tree_member()
    member.partition.rotation = member.partition.rotation[:, :2]
    with pytest.raises(DataError, match=r"corrupt: tree rotation .* not \(3, 3\)"):
        deserialize_model(serialize_model(model))


def test_grid_scales_outside_window_are_corrupt():
    model, member = _kernel_grid_member()
    t = member.partition.transform
    object.__setattr__(t, "scales", t.scales * 100.0)
    with pytest.raises(DataError, match="corrupt: bin widths escape"):
        deserialize_model(serialize_model(model))


def test_tree_split_dim_dtype_checked():
    model, member = _tree_member()
    member.partition.split_dim = member.partition.split_dim.astype(np.float64)
    with pytest.raises(DataError, match="corrupt: tree split_dim must be an int64 vector"):
        deserialize_model(serialize_model(model))
