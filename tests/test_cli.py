import csv
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hte.cli
from hte.cli import main
from hte.data import gen_counter3d, gen_sin16, load_csv
from hte.ensemble import predict as lib_predict
from hte.ensemble import TrainConfig, train_ensemble
from hte.errors import ConfigError, DataError
from hte.evaluation import StudySetup, mse, run_study, write_study_csv
from hte.rng import philox_generator
from hte.serialize import (
    _TRAILER_BYTES,
    FORMAT_VERSION,
    _seal,
    load_model,
    read_metadata,
    save_model,
    serialize_model,
)


def _write_sin_csv(path, n=300, seed=4):
    ds = gen_sin16(n, seed=seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for xi, yi in zip(ds.X[:, 0], ds.y):
            writer.writerow([repr(float(xi)), repr(float(yi))])
    return ds


def _dump(header: dict) -> bytes:
    return json.dumps(header).encode()


def _write_config(path, **kv):
    path.write_text(json.dumps(kv))
    return str(path)


@pytest.fixture()
def sin_csv(tmp_path):
    path = tmp_path / "sin.csv"
    _write_sin_csv(path)
    return str(path)


class TestTrain:
    def test_valid_training_run(self, tmp_path, sin_csv, capsys):
        cfg = _write_config(tmp_path / "cfg.json", mode="nht", n_transforms=4,
                            master_seed=3, target="y")
        out = tmp_path / "model.hte"
        assert main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "T=4" in printed and "mode=nht" in printed
        model = load_model(out)
        assert model.n_transforms == 4

    def test_json_summary(self, tmp_path, sin_csv, capsys):
        cfg = _write_config(tmp_path / "cfg.json", n_transforms=2, target="y")
        out = tmp_path / "model.hte"
        assert main(["train", "--config", cfg, "--data", sin_csv, "--out", str(out),
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_transforms"] == 2
        assert summary["total_cells"] > 0
        assert summary["train_seconds"] >= 0

    def test_zero_transforms_is_a_config_error(self, tmp_path, sin_csv, capsys):
        cfg = _write_config(tmp_path / "cfg.json", n_transforms=0, target="y")
        code = main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(tmp_path / "m.hte")])
        assert code == 1
        assert "n_transforms" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, sin_csv, capsys):
        cfg = _write_config(tmp_path / "cfg.json", target="y", typo_key=1)
        code = main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(tmp_path / "m.hte")])
        assert code == 1
        assert "typo_key" in capsys.readouterr().err

    def test_missing_target_is_a_config_error(self, tmp_path, sin_csv, capsys):
        code = main(["train", "--data", sin_csv, "--out", str(tmp_path / "m.hte")])
        assert code == 1
        assert "target" in capsys.readouterr().err

    def test_bad_data_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n3,oops\n")
        code = main(["train", "--data", str(bad), "--target", "y",
                     "--out", str(tmp_path / "m.hte")])
        assert code == 2
        assert "oops" in capsys.readouterr().err

    def test_training_failure_exits_3(self, tmp_path, capsys):
        # 2 rows cannot feed a best-scored validation split
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("x,y\n0.1,1\n0.9,2\n")
        cfg = _write_config(tmp_path / "cfg.json", n_candidates=5, target="y")
        code = main(["train", "--config", cfg, "--data", str(tiny),
                     "--out", str(tmp_path / "m.hte")])
        assert code == 3
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("name, config", [
        # trained a model predicting NaN, which the loader then called corrupt
        ("clip_bound", {"clip_bound": float("nan")}),
        # trained and saved a file that could not be loaded
        ("gamma", {"mode": "kht", "gamma": float("inf")}),
        # finite, but the ridge n * lambda2 is inf, so every kernel system was not finite
        ("lambda2", {"mode": "kht", "lambda2": 1e308}),
        # finite, but a kernel divides by gamma**2: 1e200 raised OverflowError,
        # and 1e-200 made every kernel system NaN
        ("gamma", {"mode": "kht", "gamma": 1e200}),
        ("gamma", {"mode": "kht", "gamma": 1e-200}),
    ], ids=["clip_bound", "gamma", "lambda2", "gamma_square_overflows", "gamma_square_underflows"])
    def test_value_that_is_not_finite_exits_1_naming_it(self, tmp_path, capsys, name,
                                                        config):
        # warnings are errors here, so this also checks that none is raised
        ds = gen_counter3d(500, seed=3)
        data = tmp_path / "c3.csv"
        np.savetxt(data, np.column_stack([ds.X, ds.y]), delimiter=",",
                   header="x1,x2,x3,y", comments="")
        cfg = _write_config(tmp_path / "cfg.json", target="y", **config)
        out = tmp_path / "m.hte"
        code = main(["train", "--config", cfg, "--data", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        assert not out.exists()

    def test_gamma_with_a_subnormal_square_trains_without_a_warning(self, tmp_path):
        # 1e-160**2 is 1e-320: every kernel entry off the diagonal is exp(-inf) = 0
        ds = gen_counter3d(300, seed=3)
        data = tmp_path / "c3.csv"
        np.savetxt(data, np.column_stack([ds.X, ds.y]), delimiter=",",
                   header="x1,x2,x3,y", comments="")
        cfg = _write_config(tmp_path / "cfg.json", target="y", mode="kht", n_transforms=2,
                            gamma=1e-160)
        out = tmp_path / "m.hte"
        assert main(["train", "--config", cfg, "--data", str(data), "--out", str(out)]) == 0
        assert main(["predict", "--model", str(out), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert load_model(out).config.gamma == 1e-160

    def test_same_seed_gives_byte_identical_model_files(self, tmp_path, sin_csv):
        cfg = _write_config(tmp_path / "cfg.json", n_transforms=3, master_seed=11,
                            target="y")
        out_a, out_b = tmp_path / "a.hte", tmp_path / "b.hte"
        assert main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(out_a)]) == 0
        assert main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, sin_csv):
        cfg = _write_config(tmp_path / "cfg.json", n_transforms=2, master_seed=1,
                            target="y")
        out = tmp_path / "m.hte"
        assert main(["train", "--config", cfg, "--data", sin_csv, "--out", str(out),
                     "--seed", "99"]) == 0
        assert read_metadata(out)["config"]["master_seed"] == 99

    @pytest.mark.parametrize("mode", ["nht", "kht"])
    @pytest.mark.parametrize("partition", ["grid", "adaptive"])
    def test_model_file_loads_and_saves_to_the_same_bytes(self, tmp_path, sin_csv, mode,
                                                          partition):
        cfg = _write_config(tmp_path / "cfg.json", mode=mode, partition=partition,
                            n_transforms=2, min_samples_split=50, target="y")
        out = tmp_path / "m.hte"
        assert main(["train", "--config", cfg, "--data", sin_csv, "--out", str(out)]) == 0
        assert serialize_model(load_model(out)) == out.read_bytes()

    @pytest.mark.parametrize("header, target, column, recorded", [
        ("3,2,1,0", "0", 3, "0"),  # a header name, though it reads as an index
        ("10,20,30,40", "40", 3, "40"),
        ("0,1,2,3", "2", 2, 2),  # the name sits at its own index: recorded as it
        ("x1,x2,x3,y", "3", 3, 3),  # no column of that name: an index
    ])
    def test_digit_target_names_a_header_column_first(self, tmp_path, capsys, header, target,
                                                      column, recorded):
        values = philox_generator(5).normal(size=(200, 4))
        data = tmp_path / "d.csv"
        np.savetxt(data, values, delimiter=",", header=header, comments="")
        out = tmp_path / "m.hte"
        assert main(["train", "--data", str(data), "--target", target, "--out", str(out)]) == 0
        assert read_metadata(out)["data"]["target"] == recorded
        capsys.readouterr()  # discard the train summary
        # predict finds the target column again from the recorded key
        assert main(["predict", "--model", str(out), "--data", str(data), "--out",
                     str(tmp_path / "p.csv"), "--json"]) == 0
        expected = lib_predict(load_model(out), np.delete(values, column, axis=1))
        assert json.loads(capsys.readouterr().out)["mse"] == mse(expected, values[:, column])

    def test_embedded_config_reproduces_model(self, tmp_path, sin_csv):
        cfg = _write_config(tmp_path / "cfg.json", mode="nht", n_transforms=3,
                            master_seed=8, target="y")
        out_a = tmp_path / "a.hte"
        assert main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(out_a)]) == 0
        metadata = read_metadata(out_a)
        redo = dict(metadata["config"])
        redo.update(metadata["data"])
        cfg_b = _write_config(tmp_path / "cfg_b.json", **redo)
        out_b = tmp_path / "b.hte"
        assert main(["train", "--config", cfg_b, "--data", sin_csv,
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class _Trained(Exception):
    """Raised in place of training, carrying the dataset ``hte train`` read."""


def _capture_dataset(dataset, config, n_threads=None):
    raise _Trained(dataset)


_EXIT_CODES = {ConfigError: 1, DataError: 2}


@settings(max_examples=80, deadline=None)
@given(names=st.lists(st.one_of(st.integers(0, 5).map(str),
                                st.sampled_from(["x", "y", "07", "-1"])),
                      min_size=2, max_size=5, unique=True),
       data=st.data())
def test_train_reads_the_target_column_load_csv_reads(names, data):
    target = data.draw(st.one_of(st.sampled_from(names), st.integers(0, len(names)),
                                 st.integers(0, len(names)).map(str)))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(hte.cli, "train_ensemble", _capture_dataset):
        path = Path(tmp) / "d.csv"
        values = np.arange(3.0 * len(names)).reshape(3, len(names))
        np.savetxt(path, values, delimiter=",", header=",".join(names), comments="")
        try:
            expected = load_csv(path, target)
        except (ConfigError, DataError) as exc:
            expected = exc
        # an int target comes from the config file, a string from the flag
        config = _write_config(Path(tmp) / "cfg.json", target=target)
        argv = ["train", "--config", config, "--data", str(path), "--out", str(Path(tmp) / "m")]
        if isinstance(target, str):
            argv += ["--target", target]
        try:
            code = main(argv)
        except _Trained as trained:
            [dataset] = trained.args
            assert not isinstance(expected, Exception)
            assert dataset.X.tobytes() == expected.X.tobytes()
            assert dataset.y.tobytes() == expected.y.tobytes()
            assert dataset.target_column == expected.target_column
        else:
            assert isinstance(expected, Exception) and code == _EXIT_CODES[type(expected)]


class TestPredict:
    def _trained(self, tmp_path, sin_csv):
        out = tmp_path / "model.hte"
        cfg = _write_config(tmp_path / "cfg.json", n_transforms=3, master_seed=5,
                            target="y")
        assert main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(out)]) == 0
        return out

    def test_headerless_model_saved_again_predicts_every_row(self, tmp_path, capsys):
        # a library save used to drop the stored has_header, so predict read
        # the first row of a headerless file as its header
        ds = gen_counter3d(500, seed=11)
        train_csv, features_csv = tmp_path / "train.csv", tmp_path / "features.csv"
        np.savetxt(train_csv, np.column_stack([ds.X, ds.y]), delimiter=",")
        np.savetxt(features_csv, ds.X, delimiter=",")
        cfg = _write_config(tmp_path / "cfg.json", has_header=False, target=3)
        trained, saved = tmp_path / "trained.hte", tmp_path / "saved.hte"
        assert main(["train", "--config", cfg, "--data", str(train_csv),
                     "--out", str(trained)]) == 0
        save_model(load_model(trained), saved)
        assert saved.read_bytes() == trained.read_bytes()
        for model in (trained, saved):
            out = tmp_path / f"{model.stem}.csv"
            assert main(["predict", "--model", str(model), "--data", str(features_csv),
                         "--out", str(out)]) == 0
        assert (tmp_path / "saved.csv").read_bytes() == (tmp_path / "trained.csv").read_bytes()
        assert np.loadtxt(tmp_path / "saved.csv", skiprows=1).shape == (500,)
        capsys.readouterr()  # discard the train summary
        # the file that also holds the target: its MSE, not a dimension mismatch
        assert main(["predict", "--model", str(saved), "--data", str(train_csv),
                     "--out", str(tmp_path / "with_target.csv"), "--json"]) == 0
        expected = lib_predict(load_model(saved), ds.X)
        assert json.loads(capsys.readouterr().out)["mse"] == mse(expected, ds.y)

    def test_model_file_is_read_once(self, tmp_path, sin_csv, monkeypatch):
        model_path = self._trained(tmp_path, sin_csv)
        out = tmp_path / "preds.csv"
        args = ["predict", "--model", str(model_path), "--data", sin_csv, "--out", str(out)]
        assert main(args) == 0
        expected = out.read_bytes()

        def header_read(path):
            raise AssertionError("predict read the model header on its own")

        monkeypatch.setattr(hte.cli, "read_metadata", header_read)
        assert main(args) == 0
        assert out.read_bytes() == expected

    def test_training_file_mse_matches_library(self, tmp_path, sin_csv, capsys):
        model_path = self._trained(tmp_path, sin_csv)
        preds_path = tmp_path / "preds.csv"
        capsys.readouterr()  # discard the train summary
        assert main(["predict", "--model", str(model_path), "--data", sin_csv,
                     "--out", str(preds_path), "--json"]) == 0
        reported = json.loads(capsys.readouterr().out)["mse"]

        ds = load_csv(sin_csv, target="y")
        model = load_model(model_path)
        expected = mse(lib_predict(model, ds.X), ds.y)
        assert abs(reported - expected) <= 1e-12

        with open(preds_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["prediction"]
        written = np.array([float(r[0]) for r in rows[1:]])
        np.testing.assert_array_equal(written, lib_predict(model, ds.X))

    def test_adaptive_predictions_equal_the_library_on_c_ordered_features(self, tmp_path):
        # the feature columns of a file with a target are read F-ordered
        ds = gen_counter3d(4000, seed=3)
        data = tmp_path / "counter.csv"
        np.savetxt(data, np.column_stack([ds.X[:2000], ds.y[:2000]]), delimiter=",",
                   header="x1,x2,x3,y", comments="")
        cfg = _write_config(tmp_path / "cfg.json", partition="adaptive", min_samples_split=50,
                            n_transforms=10, target="y")
        model_path, preds_path = tmp_path / "model.hte", tmp_path / "preds.csv"
        assert main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(model_path)]) == 0
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(preds_path)]) == 0

        X = np.ascontiguousarray(load_csv(data, target="y").X)
        np.testing.assert_array_equal(np.loadtxt(preds_path, skiprows=1),
                                      lib_predict(load_model(model_path), X))

    def test_dimension_mismatch_exits_2(self, tmp_path, sin_csv, capsys):
        model_path = self._trained(tmp_path, sin_csv)
        wide = tmp_path / "wide.csv"
        wide.write_text("a,b,c\n1,2,3\n4,5,6\n")
        code = main(["predict", "--model", str(model_path), "--data", str(wide)])
        assert code == 2
        err = capsys.readouterr().err
        assert "d=1" in err and "d=3" in err

    @pytest.mark.parametrize("cell,named", [("oops", "'oops' at row 3, column 1"),
                                            ("NaN", "'NaN' at row 3, column 1")])
    def test_bad_cell_exits_2_and_names_its_place(self, tmp_path, sin_csv, capsys,
                                                  cell, named):
        model_path = self._trained(tmp_path, sin_csv)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x\n0.25\n{cell}\n0.5\n")
        code = main(["predict", "--model", str(model_path), "--data", str(bad)])
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("partition", ["grid", "adaptive"])
    def test_corrupt_payload_exits_2(self, tmp_path, sin_csv, capsys, partition):
        out = tmp_path / "model.hte"
        cfg = _write_config(tmp_path / "cfg.json", partition=partition, n_transforms=2,
                            min_samples_split=40, target="y")
        assert main(["train", "--config", cfg, "--data", sin_csv, "--out", str(out)]) == 0
        model = load_model(out)
        part = model.members[0].partition
        if partition == "grid":  # bin widths outside the stored window
            object.__setattr__(part.transform, "scales", part.transform.scales * 100.0)
        else:  # a node whose first child slot is not after it, with a finite cut
            part.split_dim = part.split_dim.copy()
            part.split_dim[0], part.split_dim[-1] = -1, 0
            part.threshold = part.threshold.copy()
            part.threshold[-1] = 0.5
        save_model(model, out)  # with a valid checksum
        code = main(["predict", "--model", str(out), "--data", sin_csv])
        assert code == 2
        assert "model file corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize("gap", ["uint8-translation", "2-d-member"])
    def test_grid_record_the_writer_never_gives_exits_2(self, tmp_path, capsys, gap):
        # each loaded: the first predicted, the second exited 1 with
        # "expected points of dimension 2"
        def record(tag, arr):  # dtype tag, rank, dimensions, values
            return struct.pack(f"<BB{arr.ndim}Q", tag, arr.ndim, *arr.shape) + arr.tobytes()

        ds = gen_counter3d(300, seed=5)
        data, path = tmp_path / "counter.csv", tmp_path / "model.hte"
        np.savetxt(data, ds.X, delimiter=",", header="x1,x2,x3", comments="")
        model = train_ensemble(ds, TrainConfig(n_transforms=2, master_seed=5))
        t = model.members[0].partition.transform
        if gap == "2-d-member":  # a 2-d transform over the 3-column key table
            old = b"".join(record(0, a) for a in (t.rotation, t.scales, t.translation))
            new = b"".join(record(0, a) for a in (np.eye(2), t.scales[:2], t.translation[:2]))
        else:  # uint8 zeros
            old, new = record(0, t.translation), record(2, np.zeros(3, np.uint8))
        payload = serialize_model(model)[:-_TRAILER_BYTES]
        assert payload.count(old) == 1
        payload = payload.replace(old, new)
        path.write_bytes(_seal(payload))
        assert main(["predict", "--model", str(path), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model file corrupt: ") and "Traceback" not in err

    @pytest.mark.parametrize("edit,named", [
        pytest.param(lambda h: b"{not json", "header is not JSON", id="not-json"),
        pytest.param(lambda h: b"\xff\xfe", "header is not JSON", id="not-utf8"),
        pytest.param(lambda h: b"[1, 2]", "header is not a JSON object", id="list"),
        *[pytest.param(lambda h, k=key: _dump({f: v for f, v in h.items() if f != k}),
                       f"header field '{key}' is missing", id=f"no-{key}")
          for key in ("d", "n_transforms", "total_cells", "config", "clip_bound", "data")],
        *[pytest.param(lambda h, k=key, v=value: _dump({**h, k: v}),
                       f"header field '{key}'", id=f"{key}={value!r}")
          for key, value in (("d", "1"), ("d", True), ("n_transforms", 2.0),
                             ("total_cells", 1.5), ("config", []), ("clip_bound", "big"),
                             ("data", [1, 2]))],
        # an integer past the float range used to pass and end in an OverflowError
        pytest.param(lambda h: _dump({**h, "clip_bound": 10**400}), "header field 'clip_bound'",
                     id="clip_bound=10**400"),
        # one with too many digits to convert ended in a ValueError traceback
        pytest.param(lambda h: _dump({**h, "clip_bound": 0}).replace(
                         b'"clip_bound": 0', b'"clip_bound": 1' + b"0" * 5000),
                     "header is not JSON", id="clip_bound=10**5000"),
        pytest.param(lambda h: _dump({**h, "rng": "mt19937"}),
                     "header field 'rng' is not 'philox4x64'", id="rng=mt19937"),
        pytest.param(lambda h: _dump({**h, "n_transforms": 0}),
                     "header d and n_transforms must be >= 1", id="n_transforms=0"),
        # a config value of the wrong type used to end in a TypeError traceback
        pytest.param(lambda h: _dump({**h, "config": {**h["config"], "min_samples_split": "5"}}),
                     "min_samples_split must be an integer", id="config-field-type"),
    ])
    def test_bad_header_exits_2(self, tmp_path, sin_csv, capsys, edit, named):
        path = self._trained(tmp_path, sin_csv)
        blob = path.read_bytes()[:-_TRAILER_BYTES]
        size = struct.unpack_from("<Q", blob, 8)[0]
        header = edit(json.loads(blob[16:16 + size]))
        payload = blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + size:]
        path.write_bytes(_seal(payload))
        capsys.readouterr()  # discard the train summary
        code = main(["predict", "--model", str(path), "--data", sin_csv])
        assert code == 2
        assert f"model file corrupt: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("to_file", [True, False])
    def test_output_bytes_equal_csv_writer(self, tmp_path, sin_csv, capsysbinary,
                                          monkeypatch, to_file):
        model_path = self._trained(tmp_path, sin_csv)
        values = [-1.5, 5e-324, -2.225e-310, 0.1 + 0.2, -123456.78901234567, 1e300, 0.0]
        bare = tmp_path / "bare.csv"
        bare.write_text("x\n" + "0.5\n" * len(values))
        monkeypatch.setattr(hte.cli, "predict", lambda model, X: np.array(values))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["prediction"])
        for value in values:
            writer.writerow([repr(float(value))])
        expected = expected.getvalue().encode()
        assert b"\r\n5e-324\r\n" in expected and b"0.30000000000000004" in expected
        capsysbinary.readouterr()  # discard the train summary
        out = tmp_path / "preds.csv"
        args = ["predict", "--model", str(model_path), "--data", str(bare)]
        assert main(args + (["--out", str(out)] if to_file else [])) == 0
        written = out.read_bytes() if to_file else capsysbinary.readouterr().out
        assert written == expected

    def test_quoted_crlf_file_predicts_like_the_plain_file(self, tmp_path, sin_csv):
        model_path = self._trained(tmp_path, sin_csv)
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        plain.write_text("x\n0.25\n10\n0.5\n")
        odd.write_bytes(b'"x"\r\n"0.25"\r\n1_0\r\n 0.5\r\n')
        for path in (plain, odd):
            assert main(["predict", "--model", str(model_path), "--data", str(path),
                         "--out", str(path) + ".out"]) == 0
        assert (tmp_path / "odd.csv.out").read_bytes() == (tmp_path / "plain.csv.out").read_bytes()

    def test_query_overflowing_when_standardized_exits_2(self, tmp_path, sin_csv, capsys):
        model_path = self._trained(tmp_path, sin_csv)
        huge = tmp_path / "huge.csv"
        huge.write_text("x\n0.5\n1e308\n")
        capsys.readouterr()  # discard the train summary
        assert main(["predict", "--model", str(model_path), "--data", str(huge)]) == 2
        assert capsys.readouterr().err == "error: query row 1 overflows when standardized\n"

    def test_model_with_a_zero_feature_std_exits_2(self, tmp_path, sin_csv, capsys):
        # it used to load and then report an overflow, with a RuntimeWarning
        model_path = self._trained(tmp_path, sin_csv)
        model = load_model(model_path)
        model.standardizer.std = np.zeros_like(model.standardizer.std)
        save_model(model, model_path)
        capsys.readouterr()  # discard the train summary
        assert main(["predict", "--model", str(model_path), "--data", sin_csv]) == 2
        assert capsys.readouterr().err == \
            "error: model file corrupt: standardizer std is not positive\n"

    def test_features_only_file_predicts_without_mse(self, tmp_path, sin_csv, capsys):
        model_path = self._trained(tmp_path, sin_csv)
        bare = tmp_path / "bare.csv"
        bare.write_text("x\n0.25\n0.5\n")
        capsys.readouterr()  # discard the train summary
        assert main(["predict", "--model", str(model_path), "--data", str(bare)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("prediction") and "mse" not in out


class TestUnreadableCsv:
    @pytest.fixture()
    def model_path(self, tmp_path, sin_csv):
        out = tmp_path / "model.hte"
        assert main(["train", "--data", sin_csv, "--target", "y", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("body,named", [
        (b"x,y\n0.5,1\n\xff,2\n", "not UTF-8 text"),
        (b"x,y\n0." + b"0" * 131_072 + b"1,2\n", "line 2: field larger than field limit"),
    ], ids=["undecodable", "over-long"])
    def test_exits_2_with_an_error_line(self, tmp_path, model_path, capsys, command,
                                       body, named):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        capsys.readouterr()  # discard the train summary
        if command == "train":
            args = ["train", "--data", str(bad), "--target", "y",
                    "--out", str(tmp_path / "m2.hte")]
        else:
            args = ["predict", "--model", str(model_path), "--data", str(bad)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and named in err


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this hte; return its stdout."""
    src = str(Path(hte.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# OpenSSL's digests: a model file's CRC-32 trailer needs only zlib
_HASHLIB_LOADED = "'_hashlib' in sys.modules"


class TestColdStart:
    def test_import_loads_no_scipy(self):
        assert _fresh_python(f"import sys, hte.cli; print({_SCIPY_LOADED})") == "[]\n"

    def test_import_loads_no_hashlib(self):
        assert _fresh_python(f"import sys, hte.cli; print({_HASHLIB_LOADED})") == "False\n"

    def test_nht_predict_loads_no_scipy(self, tmp_path, sin_csv):
        model = tmp_path / "model.hte"
        assert main(["train", "--data", sin_csv, "--target", "y", "--out", str(model)]) == 0
        out = tmp_path / "preds.csv"
        args = ["predict", "--model", str(model), "--data", sin_csv, "--out", str(out)]
        printed = _fresh_python(
            f"import sys; from hte.cli import main; code = main({args!r}); "
            f"print(code, {_SCIPY_LOADED}, {_HASHLIB_LOADED})"
        )
        assert printed.splitlines()[-1] == "0 [] False"
        assert out.read_bytes().startswith(b"prediction\r\n")

    def test_kht_train_loads_scipy_on_first_use(self, tmp_path, sin_csv):
        cfg = _write_config(tmp_path / "cfg.json", mode="kht", n_transforms=2, target="y")
        model = tmp_path / "model.hte"
        args = ["train", "--config", cfg, "--data", sin_csv, "--out", str(model)]
        printed = _fresh_python(
            f"import sys; from hte.cli import main; code = main({args!r}); "
            f"print(code, 'scipy.linalg' in sys.modules)"
        )
        assert printed.splitlines()[-1] == "0 True"
        assert load_model(model).members[0].model.alpha.size > 0


_NHT_GRID = TrainConfig(mode="nht", partition="grid", s_min=0.0, s_max=1.0)

# each bench preset as an explicit study, with its default repetitions
_EXPLICIT_PRESETS = {
    "sin16": StudySetup(
        "sin16", {"n_train": [2000, 3000, 4000, 5000], "n_transforms": [1, 5, 10, 20]},
        n_train=2000, n_test=2000, repetitions=300, config=_NHT_GRID),
    "t-study": StudySetup("sin16", {"n_transforms": [1, 5, 10, 20]},
                          n_train=2000, n_test=2000, repetitions=300, config=_NHT_GRID),
    "scale-study": StudySetup(
        "sin16", {"pair": [[-1.0, 1.0], [0.0, 2.0], [1.0, 3.0], [2.0, 4.0], [3.0, 5.0]]},
        n_train=500, n_test=1000, repetitions=100, config=_NHT_GRID),
    "counter3d": StudySetup(
        "counter3d", {"n_train": [1000, 2000, 4000, 8000], "n_transforms": [1, 2, 5, 10, 30]},
        n_train=1000, n_test=1000, repetitions=30, config=_NHT_GRID),
}


class TestBenchAndStudy:
    def test_unknown_preset_lists_options(self, capsys):
        assert main(["bench", "warp-speed"]) == 1
        err = capsys.readouterr().err
        for name in ("sin16", "counter3d", "scale-study", "t-study"):
            assert name in err

    def test_scale_study_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["bench", "scale-study", "--reps", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert [r["param.pair"] for r in rows] == [
            "(-1.0, 1.0)", "(0.0, 2.0)", "(1.0, 3.0)", "(2.0, 4.0)", "(3.0, 5.0)"
        ]
        assert all(float(r["mse_mean"]) > 0 for r in rows)

    def test_t_study_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["bench", "t-study", "--reps", "1", "--seed", "1",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["param.n_transforms"] for r in rows] == ["1", "5", "10", "20"]

    def test_sin16_preset_covers_size_by_member_grid(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["bench", "sin16", "--reps", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16  # 4 training sizes x 4 member counts
        assert {r["param.n_train"] for r in rows} == {"2000", "3000", "4000", "5000"}

    def test_custom_study_config(self, tmp_path, capsys):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({
            "generator": "sin16",
            "grid": {"n_transforms": [1, 2]},
            "n_train": 80,
            "n_test": 40,
            "repetitions": 2,
            "seed": 5,
            "train": {"mode": "nht"},
        }))
        json_out = tmp_path / "table.json"
        assert main(["study", "--config", str(study),
                     "--out", str(tmp_path / "t.csv"),
                     "--json-out", str(json_out)]) == 0
        rows = json.loads(json_out.read_text())
        assert len(rows) == 2 and rows[0]["reps"] == 2

    @pytest.mark.parametrize("preset", sorted(_EXPLICIT_PRESETS))
    def test_preset_table_equals_its_explicit_study(self, tmp_path, preset):
        setup = _EXPLICIT_PRESETS[preset]
        assert StudySetup.from_dict(hte.cli.PRESETS[preset]) == setup
        out = tmp_path / "table.csv"
        assert main(["bench", preset, "--reps", "1", "--seed", "3", "--out", str(out)]) == 0
        expected = io.StringIO(newline="")
        write_study_csv(run_study(replace(setup, repetitions=1, seed=3)), expected)

        def untimed(text):
            return [{k: v for k, v in row.items() if k not in ("art_mean_s", "predict_time_s")}
                    for row in csv.DictReader(io.StringIO(text))]

        assert untimed(out.read_text()) == untimed(expected.getvalue())

    @pytest.mark.parametrize("argv", [
        ["bench", "scale-study", "--reps", "1", "--out", "{no}/t.csv"],
        ["bench", "scale-study", "--reps", "1", "--json-out", "{no}/t.json"],
        ["study", "--config", "{study}", "--out", "{no}/t.csv"],
        ["study", "--config", "{study}", "--json-out", "{no}/t.json"],
    ])
    def test_unwritable_output_fails_before_the_study_runs(self, tmp_path, monkeypatch, capsys,
                                                           argv):
        def entered(*args, **kwargs):
            raise AssertionError("run_study was entered")

        monkeypatch.setattr(hte.cli, "run_study", entered)
        study = _write_config(tmp_path / "study.json", generator="sin16",
                              grid={"n_transforms": [1]}, n_train=60, n_test=20)
        args = [a.format(no=tmp_path / "no", study=study) for a in argv]
        assert main(args) == 2
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("config, named", [
        ({"generator": "sin17", "grid": {}}, "unknown generator"),
        ({"generator": "sin16", "grid": {}, "repetitions": 0}, "repetitions must be >= 1"),
    ])
    def test_study_config_error_leaves_no_output_file(self, tmp_path, capsys, config, named):
        out = tmp_path / "t.csv"
        study = _write_config(tmp_path / "study.json", **config)
        assert main(["study", "--config", study, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_study_rejects_unknown_keys(self, tmp_path, capsys):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({"generator": "sin16", "grid": {}, "oops": 1}))
        assert main(["study", "--config", str(study)]) == 1
        assert "oops" in capsys.readouterr().err


class TestSchedule:
    def test_smooth_class_constant_width(self, capsys):
        assert main(["schedule", "--n", "5000", "--d", "3", "--smoothness", "cka",
                     "--alpha", "1.0", "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["h_upper"] == 1.0

    def test_differentiable_member_count(self, capsys):
        assert main(["schedule", "--n", "100000", "--d", "2", "--smoothness", "c1a",
                     "--alpha", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["n_transforms"] - 10.0) < 1e-10

    def test_missing_alpha_exits_1(self, capsys):
        assert main(["schedule", "--n", "100", "--d", "1",
                     "--smoothness", "c0a"]) == 1
        assert "alpha" in capsys.readouterr().err


class TestInspect:
    def test_dumps_metadata(self, tmp_path, sin_csv, capsys):
        cfg = _write_config(tmp_path / "cfg.json", n_transforms=2, master_seed=6,
                            target="y")
        out = tmp_path / "model.hte"
        assert main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n_transforms"] == 2
        assert payload["data"]["target"] == "y"

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.hte")]) == 2


class TestThreadsEnv:
    def test_env_fallback_must_be_integer(self, tmp_path, sin_csv, monkeypatch,
                                          capsys):
        monkeypatch.setenv("HTE_THREADS", "many")
        code = main(["train", "--data", sin_csv, "--target", "y",
                     "--out", str(tmp_path / "m.hte")])
        assert code == 1
        assert "HTE_THREADS" in capsys.readouterr().err

    def test_env_fallback_used(self, tmp_path, sin_csv, monkeypatch):
        monkeypatch.setenv("HTE_THREADS", "2")
        assert main(["train", "--data", sin_csv, "--target", "y",
                     "--out", str(tmp_path / "m.hte")]) == 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A training CSV and the default model trained on it."""
    tmp = tmp_path_factory.mktemp("trained")
    data, model = tmp / "sin.csv", tmp / "model.hte"
    _write_sin_csv(data)
    assert main(["train", "--data", str(data), "--target", "y", "--out", str(model)]) == 0
    return str(data), str(model)


def _text(path, body: str) -> str:
    path.write_text(body)
    return str(path)


def _bytes(path, body: bytes) -> str:
    path.write_bytes(body)
    return str(path)


def _deep_header_file() -> bytes:
    """A checksum-valid model file whose header nests JSON arrays 100,000 deep."""
    header = b"[" * 100_000
    payload = b"HTEN" + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header
    return _seal(payload)


def _train(t, data, **config):
    cfg = _write_config(t / "cfg.json", **{"target": "y", **config})
    return ["train", "--config", cfg, "--data", data, "--out", str(t / "m.hte")]


def _stored(t, m, **data_info):
    """The model m re-saved with the given stored ``data``."""
    model = load_model(m)
    model.data_info = data_info
    save_model(model, t / "stored.hte")
    return str(t / "stored.hte")


def _study(t, **config):
    base = {"generator": "sin16", "grid": {"n_transforms": [1]}, "n_train": 60, "n_test": 20}
    return ["study", "--config", _write_config(t / "study.json", **{**base, **config})]


_ABSENT = "No such file or directory"

# (id, exit code, text the error line holds, argv from (tmp_path, training CSV, model))
_EXIT_CASES = [
    ("train-mistyped-key", 1, "n_transfroms", lambda t, d, m: _train(t, d, n_transfroms=2)),
    ("train-int-as-text", 1, "min_samples_split",
     lambda t, d, m: _train(t, d, min_samples_split="5")),
    ("train-bool-as-text", 1, "standardize_features",
     lambda t, d, m: _train(t, d, standardize_features="no")),
    ("train-has_header-as-text", 1, "has_header",
     lambda t, d, m: _train(t, d, has_header="false")),
    ("train-threads-as-text", 1, "threads", lambda t, d, m: _train(t, d, threads="2")),
    ("train-target-bool", 1, "target", lambda t, d, m: _train(t, d, target=True)),
    # bin widths past the float range: exp(710) overflows, exp(-745) is subnormal
    ("train-s_min-width-overflows", 1, "s_min -710", lambda t, d, m: _train(t, d, s_min=-710)),
    ("train-candidate-width-subnormal", 1, "candidate_pairs[1][1] 745",
     lambda t, d, m: _train(t, d, n_candidates=2, candidate_pairs=[[-700, 0], [30, 745]])),
    ("train-missing-data", 2, _ABSENT,
     lambda t, d, m: ["train", "--data", str(t / "none.csv"), "--target", "y",
                      "--out", str(t / "m.hte")]),
    ("train-bad-cell", 2, "oops",
     lambda t, d, m: _train(t, _text(t / "bad.csv", "x,y\n3,oops\n"))),
    ("train-unwritable-out", 2, _ABSENT,
     lambda t, d, m: ["train", "--data", d, "--target", "y", "--out", str(t / "no" / "m.hte")]),
    ("train-header-wider-than-rows", 2, "header width 3 != row width 2",
     lambda t, d, m: _train(t, _text(t / "wide.csv", "x,z,y\n1,2\n3,4\n"))),
    ("train-fails", 3, "empty",
     lambda t, d, m: _train(t, _text(t / "tiny.csv", "x,y\n0.1,1\n0.9,2\n"), n_candidates=5)),
    ("predict-missing-model", 2, _ABSENT,
     lambda t, d, m: ["predict", "--model", str(t / "none.hte"), "--data", d]),
    ("predict-not-a-model", 2, "not a model file",
     lambda t, d, m: ["predict", "--model", d, "--data", d]),
    ("predict-dimension", 2, "feature dimension mismatch",
     lambda t, d, m: ["predict", "--model", m, "--data", _text(t / "w.csv", "a,b,c\n1,2,3\n")]),
    ("predict-target-unknown", 2, "target column 'nope' not found",
     lambda t, d, m: ["predict", "--model", m, "--data", _text(t / "x.csv", "x\n0.5\n"),
                      "--target", "nope"]),
    # the stored target's column in place of a feature is not read as one
    ("predict-target-in-place-of-a-feature", 2, "feature dimension mismatch",
     lambda t, d, m: ["predict", "--model", m, "--data", _text(t / "y.csv", "y\n0.5\n")]),
    # a header of another width than the rows would let the columns be misread
    ("predict-header-wider-than-rows", 2, "header width 2 != row width 1",
     lambda t, d, m: ["predict", "--model", m, "--data", _text(t / "h.csv", "a,b\n0.5\n")]),
    ("predict-header-narrower-than-rows", 2, "header width 1 != row width 2",
     lambda t, d, m: ["predict", "--model", m, "--data", _text(t / "h.csv", "y\n0.5,0.2\n")]),
    # a stored data key of another JSON type than a config gives it
    ("predict-stored-target-list", 2, "target",
     lambda t, d, m: ["predict", "--model", _stored(t, m, target=[1]), "--data", d]),
    ("predict-stored-target-float", 2, "target",
     lambda t, d, m: ["predict", "--model", _stored(t, m, target=1.5), "--data", d]),
    ("predict-stored-has_header-as-text", 2, "has_header",
     lambda t, d, m: ["predict", "--model", _stored(t, m, has_header="false"), "--data", d]),
    ("predict-unwritable-out", 2, _ABSENT,
     lambda t, d, m: ["predict", "--model", m, "--data", d, "--out", str(t / "no" / "p.csv")]),
    ("bench-unknown-preset", 1, "warp-speed", lambda t, d, m: ["bench", "warp-speed"]),
    ("bench-unwritable-out", 2, _ABSENT,
     lambda t, d, m: ["bench", "scale-study", "--reps", "1", "--out", str(t / "no" / "t.csv")]),
    ("study-missing-config", 1, "config file not found",
     lambda t, d, m: ["study", "--config", str(t / "none.json")]),
    ("study-not-json", 1, "not valid JSON",
     lambda t, d, m: ["study", "--config", _text(t / "s.json", "{oops")]),
    ("study-nested-too-deep", 1, "not valid JSON",
     lambda t, d, m: ["study", "--config", _text(t / "s.json", "[" * 100_000)]),
    ("study-mistyped-key", 1, "n_trian", lambda t, d, m: _study(t, n_trian=80)),
    ("study-int-as-text", 1, "n_train", lambda t, d, m: _study(t, n_train="80")),
    ("study-bool-as-text", 1, "standardize_target",
     lambda t, d, m: _study(t, train={"standardize_target": "no"})),
    ("study-train-not-object", 1, "train", lambda t, d, m: _study(t, train=[])),
    ("study-train-field-type", 1, "min_samples_split",
     lambda t, d, m: _study(t, train={"min_samples_split": "5"})),
    ("study-grid-key-unknown", 1, "unknown grid keys: n_transfroms",
     lambda t, d, m: _study(t, grid={"n_transfroms": [1]})),
    ("study-grid-value-not-list", 1, "n_transforms",
     lambda t, d, m: _study(t, grid={"n_transforms": 2})),
    ("study-grid-size-not-int", 1, "grid value of 'n_train'",
     lambda t, d, m: _study(t, grid={"n_train": [60, 50.9]})),
    ("study-unwritable-out", 2, _ABSENT,
     lambda t, d, m: _study(t) + ["--out", str(t / "no" / "t.csv")]),
    ("study-unwritable-json-out", 2, _ABSENT,
     lambda t, d, m: _study(t) + ["--json-out", str(t / "no" / "t.json")]),
    ("schedule-no-alpha", 1, "alpha",
     lambda t, d, m: ["schedule", "--n", "100", "--d", "1", "--smoothness", "c0a"]),
    ("inspect-missing", 2, _ABSENT, lambda t, d, m: ["inspect", str(t / "none.hte")]),
    ("inspect-not-a-model", 2, "not a model file", lambda t, d, m: ["inspect", d]),
    ("inspect-header-too-deep", 2, "header is not JSON",
     lambda t, d, m: ["inspect", _bytes(t / "deep.hte", _deep_header_file())]),
]


@pytest.mark.parametrize("code, named, argv", [case[1:] for case in _EXIT_CASES],
                         ids=[case[0] for case in _EXIT_CASES])
def test_error_exits_with_its_code_and_one_error_line(tmp_path, trained, capsys, code, named,
                                                      argv):
    args = argv(tmp_path, *trained)
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert "Traceback" not in err


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["predict", "inspect"])
    def test_reader_closing_stdout_early_exits_quietly(self, tmp_path, sin_csv, command):
        model = tmp_path / "model.hte"
        assert main(["train", "--data", sin_csv, "--target", "y", "--out", str(model)]) == 0
        if command == "predict":
            args = ["predict", "--model", str(model), "--data", sin_csv]
        else:
            args = ["inspect", str(model)]
        src = str(Path(hte.__file__).resolve().parents[1])
        # buffered standard output, so that the pipe error can wait for a flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen([sys.executable, "-m", "hte.cli", *args],
                                env={**env, "PYTHONPATH": src},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the first write
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == hte.cli.EXIT_BROKEN_PIPE == 141
