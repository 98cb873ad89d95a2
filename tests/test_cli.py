import csv
import hashlib
import json
import struct

import numpy as np
import pytest

from hte.cli import main
from hte.data import gen_sin16, load_csv
from hte.ensemble import predict as lib_predict
from hte.evaluation import mse
from hte.serialize import load_model, read_metadata, save_model


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
        assert read_metadata(out)["seed"] == 99

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


class TestPredict:
    def _trained(self, tmp_path, sin_csv):
        out = tmp_path / "model.hte"
        cfg = _write_config(tmp_path / "cfg.json", n_transforms=3, master_seed=5,
                            target="y")
        assert main(["train", "--config", cfg, "--data", sin_csv,
                     "--out", str(out)]) == 0
        return out

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
        else:  # a node whose first child slot is not after it
            part.split_dim = part.split_dim.copy()
            part.split_dim[0], part.split_dim[-1] = -1, 0
        save_model(model, out)  # with a valid checksum
        code = main(["predict", "--model", str(out), "--data", sin_csv])
        assert code == 2
        assert "model file corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,named", [
        pytest.param(lambda h: b"{not json", "header is not JSON", id="not-json"),
        pytest.param(lambda h: b"\xff\xfe", "header is not JSON", id="not-utf8"),
        pytest.param(lambda h: b"[1, 2]", "header is not a JSON object", id="list"),
        *[pytest.param(lambda h, k=key: _dump({f: v for f, v in h.items() if f != k}),
                       f"header field '{key}' is missing", id=f"no-{key}")
          for key in ("d", "n_transforms", "config", "clip_bound")],
        *[pytest.param(lambda h, k=key, v=value: _dump({**h, k: v}),
                       f"header field '{key}'", id=f"{key}={value!r}")
          for key, value in (("d", "1"), ("d", True), ("n_transforms", 2.0),
                             ("config", []), ("clip_bound", "big"))],
        pytest.param(lambda h: _dump({**h, "n_transforms": 0}),
                     "header d and n_transforms must be >= 1", id="n_transforms=0"),
    ])
    def test_bad_header_exits_2(self, tmp_path, sin_csv, capsys, edit, named):
        path = self._trained(tmp_path, sin_csv)
        blob = path.read_bytes()[:-32]
        size = struct.unpack_from("<Q", blob, 8)[0]
        header = edit(json.loads(blob[16:16 + size]))
        payload = blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + size:]
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        capsys.readouterr()  # discard the train summary
        code = main(["predict", "--model", str(path), "--data", sin_csv])
        assert code == 2
        assert f"model file corrupt: {named}" in capsys.readouterr().err

    def test_features_only_file_predicts_without_mse(self, tmp_path, sin_csv, capsys):
        model_path = self._trained(tmp_path, sin_csv)
        bare = tmp_path / "bare.csv"
        bare.write_text("x\n0.25\n0.5\n")
        capsys.readouterr()  # discard the train summary
        assert main(["predict", "--model", str(model_path), "--data", str(bare)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("prediction") and "mse" not in out


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
