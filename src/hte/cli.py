"""Command-line interface: train, predict, bench, study, schedule, inspect.

Diagnostics go to standard error; data and tables go to files or standard
output.  Exit codes: 1 configuration error, 2 data error, 3 training error,
141 standard output closed early by its reader (``hte predict ... | head``;
nothing is printed on standard error).  Flag values override config-file
keys, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .data import load_csv, read_matrix
from .ensemble import (
    DEFAULT_CANDIDATE_PAIRS,
    TrainConfig,
    predict,
    theoretical_schedule,
    train_ensemble,
)
from .errors import ConfigError, DataError, HteError
from .evaluation import StudySetup, mse, run_study, write_study_csv, write_study_json
from .serialize import load_model, read_metadata, save_model

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_TRAINING = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a tool killed by it

# config keys that address the CLI rather than TrainConfig
_CLI_KEYS = {"target", "has_header", "threads"}


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _threads(args) -> int | None:
    if getattr(args, "threads", None) is not None:
        return args.threads
    env = os.environ.get("HTE_THREADS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"HTE_THREADS must be an integer, got {env!r}") from exc
    return None


def _load_cli_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return raw


def _split_config(raw: dict) -> tuple[TrainConfig, dict]:
    cli_part = {k: raw.pop(k) for k in list(raw) if k in _CLI_KEYS}
    config = TrainConfig.from_dict(raw)  # rejects unknown keys
    return config, cli_part


def _coerce_target(target):
    if isinstance(target, str) and target.lstrip("-").isdigit():
        return int(target)
    return target


def _cmd_train(args) -> int:
    try:
        raw = _load_cli_config(args.config) if args.config else {}
        if args.seed is not None:
            raw["master_seed"] = args.seed
        config, cli_part = _split_config(raw)
        target = args.target if args.target is not None else cli_part.get("target")
        if target is None:
            raise ConfigError("no target column: set 'target' in the config or --target")
        target = _coerce_target(target)
        has_header = bool(cli_part.get("has_header", True))
        n_threads = _threads(args)
        if n_threads is None:
            n_threads = cli_part.get("threads")
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))

    try:
        dataset = load_csv(args.data, target, has_header=has_header)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (DataError, OSError) as exc:
        return _fail(EXIT_DATA, str(exc))

    try:
        t0 = time.perf_counter()
        model = train_ensemble(dataset, config, n_threads=n_threads)
        seconds = time.perf_counter() - t0
        save_model(model, args.out, {"target": target, "has_header": has_header})
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except (DataError, OSError) as exc:
        return _fail(EXIT_DATA, str(exc))
    except HteError as exc:
        return _fail(EXIT_TRAINING, str(exc))

    summary = {
        "mode": config.mode,
        "partition": config.partition,
        "n_transforms": model.n_transforms,
        "total_cells": model.total_cells,
        "train_seconds": round(seconds, 6),
        "model": str(args.out),
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"trained mode={config.mode} partition={config.partition} "
            f"T={model.n_transforms} cells={model.total_cells} "
            f"seconds={seconds:.3f} -> {args.out}"
        )
    return EXIT_OK


def _extract_target(values, header, metadata) -> tuple[np.ndarray, np.ndarray | None]:
    """Split a prediction matrix into features and (optionally) targets."""
    d = metadata["d"]
    target = metadata.get("target")
    width = values.shape[1]
    if isinstance(target, str) and header and target in header:
        idx = header.index(target)
        keep = [c for c in range(width) if c != idx]
        return values[:, keep], values[:, idx]
    if isinstance(target, int) and width == d + 1 and 0 <= target < width:
        keep = [c for c in range(width) if c != target]
        return values[:, keep], values[:, target]
    return values, None


def _cmd_predict(args) -> int:
    try:
        metadata = read_metadata(args.model)
        model = load_model(args.model)
    except (DataError, OSError) as exc:
        return _fail(EXIT_DATA, str(exc))
    data_info = metadata.get("data", {})
    has_header = False if args.no_header else bool(data_info.get("has_header", True))
    try:
        values, header = read_matrix(args.data, has_header=has_header)
    except (DataError, OSError) as exc:
        return _fail(EXIT_DATA, str(exc))

    if args.target is not None:
        metadata["target"] = _coerce_target(args.target)
    else:
        metadata["target"] = data_info.get("target")
    X, y = _extract_target(values, header, metadata)
    if X.shape[1] != model.d:
        return _fail(
            EXIT_DATA,
            f"feature dimension mismatch: model expects d={model.d}, data has d={X.shape[1]}",
        )

    try:
        preds = predict(model, X)
    except DataError as exc:  # a query row that overflows when standardized or transformed
        return _fail(EXIT_DATA, str(exc))
    # what csv.writer writes: CRLF line ends, and a float repr never needs quoting
    text = "\r\n".join(["prediction", *map(repr, preds.tolist())]) + "\r\n"
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if y is not None:
        score = mse(preds, y)
        print(json.dumps({"mse": score}) if args.json else f"mse={score!r}")
    return EXIT_OK


def _preset(name: str, reps_override: int | None):
    nht_grid = TrainConfig(mode="nht", partition="grid", s_min=0.0, s_max=1.0)
    presets = {
        "sin16": (
            {"n_train": [2000, 3000, 4000, 5000], "n_transforms": [1, 5, 10, 20]},
            StudySetup("sin16", n_train=2000, n_test=2000, config=nht_grid),
            300,
        ),
        "t-study": (
            {"n_transforms": [1, 5, 10, 20]},
            StudySetup("sin16", n_train=2000, n_test=2000, config=nht_grid),
            300,
        ),
        "scale-study": (
            {"pair": [list(p) for p in DEFAULT_CANDIDATE_PAIRS]},
            StudySetup("sin16", n_train=500, n_test=1000, config=nht_grid),
            100,
        ),
        "counter3d": (
            {"n_train": [1000, 2000, 4000, 8000], "n_transforms": [1, 2, 5, 10, 30]},
            StudySetup("counter3d", n_train=1000, n_test=1000, config=nht_grid),
            30,
        ),
    }
    if name not in presets:
        raise ConfigError(
            f"unknown preset {name!r}; available presets: {', '.join(sorted(presets))}"
        )
    grid, setup, default_reps = presets[name]
    return grid, setup, reps_override if reps_override is not None else default_reps


def _emit_study(results, out_path, json_path) -> None:
    if out_path:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            write_study_csv(results, fh)
    else:
        write_study_csv(results, sys.stdout)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            write_study_json(results, fh)


def _cmd_bench(args) -> int:
    try:
        grid, setup, reps = _preset(args.preset, args.reps)
        results = run_study(
            grid, setup, repetitions=reps, seed=args.seed, n_threads=_threads(args)
        )
        _emit_study(results, args.out, args.json_out)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except HteError as exc:
        return _fail(EXIT_TRAINING, str(exc))
    return EXIT_OK


def _cmd_study(args) -> int:
    try:
        raw = _load_cli_config(args.config)
        unknown = set(raw) - {
            "grid", "generator", "n_train", "n_test", "repetitions", "seed", "train",
            "measure_art",
        }
        if unknown:
            raise ConfigError(f"unknown study keys: {', '.join(sorted(unknown))}")
        if "grid" not in raw or "generator" not in raw:
            raise ConfigError("study config needs 'grid' and 'generator'")
        config = TrainConfig.from_dict(raw.get("train", {}))
        setup = StudySetup(
            generator=raw["generator"],
            n_train=int(raw.get("n_train", 1000)),
            n_test=int(raw.get("n_test", 1000)),
            config=config,
            measure_art=bool(raw.get("measure_art", True)),
        )
        seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
        reps = args.reps if args.reps is not None else int(raw.get("repetitions", 1))
        results = run_study(
            raw["grid"], setup, repetitions=reps, seed=seed, n_threads=_threads(args)
        )
        _emit_study(results, args.out, args.json_out)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except HteError as exc:
        return _fail(EXIT_TRAINING, str(exc))
    return EXIT_OK


def _cmd_schedule(args) -> int:
    try:
        if args.alpha is None:
            raise ConfigError("--alpha is required")
        schedule = theoretical_schedule(
            args.n, args.d, args.smoothness, alpha=args.alpha, k=args.k, delta=args.delta
        )
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    print(json.dumps(schedule.to_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_inspect(args) -> int:
    try:
        metadata = read_metadata(args.model)
    except (DataError, OSError) as exc:
        return _fail(EXIT_DATA, str(exc))
    print(json.dumps(metadata, indent=2, sort_keys=True))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hte",
        description="Histogram transform ensemble regression: train, predict, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train an ensemble and write a model file")
    p_train.add_argument("--config", help="JSON config file (TrainConfig keys)")
    p_train.add_argument("--data", required=True, help="training CSV")
    p_train.add_argument("--out", required=True, help="output model path")
    p_train.add_argument("--target", help="target column name or index")
    p_train.add_argument("--seed", type=int, help="override master seed")
    p_train.add_argument("--threads", type=int, help="worker thread cap")
    p_train.add_argument("--json", action="store_true", help="machine-readable summary")
    p_train.set_defaults(func=_cmd_train)

    p_pred = sub.add_parser("predict", help="predict with a trained model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", help="predictions CSV (default: stdout)")
    p_pred.add_argument("--target", help="target column in the data, for MSE")
    p_pred.add_argument("--no-header", action="store_true")
    p_pred.add_argument("--json", action="store_true")
    p_pred.set_defaults(func=_cmd_predict)

    p_bench = sub.add_parser("bench", help="run a named benchmark preset")
    p_bench.add_argument("preset", help="sin16 | counter3d | scale-study | t-study")
    p_bench.add_argument("--reps", type=int, help="repetitions per grid point")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="CSV table path (default: stdout)")
    p_bench.add_argument("--json-out", help="also write a JSON table")
    p_bench.add_argument("--threads", type=int)
    p_bench.set_defaults(func=_cmd_bench)

    p_study = sub.add_parser("study", help="run a custom parameter study")
    p_study.add_argument("--config", required=True, help="study JSON")
    p_study.add_argument("--reps", type=int)
    p_study.add_argument("--seed", type=int)
    p_study.add_argument("--out", help="CSV table path (default: stdout)")
    p_study.add_argument("--json-out")
    p_study.add_argument("--threads", type=int)
    p_study.set_defaults(func=_cmd_study)

    p_sched = sub.add_parser("schedule", help="evaluate a theoretical parameter schedule")
    p_sched.add_argument("--n", type=int, required=True)
    p_sched.add_argument("--d", type=int, required=True)
    p_sched.add_argument("--smoothness", required=True, help="c0a | c1a | cka")
    p_sched.add_argument("--alpha", type=float)
    p_sched.add_argument("--k", type=int)
    p_sched.add_argument("--delta", type=float, default=0.0)
    p_sched.set_defaults(func=_cmd_schedule)

    p_inspect = sub.add_parser("inspect", help="dump model metadata as JSON")
    p_inspect.add_argument("model")
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed standard output early (`hte predict ... | head`);
        # point it at devnull so that the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
