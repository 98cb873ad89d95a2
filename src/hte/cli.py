"""Command-line interface: train, predict, bench, study, schedule, inspect.

Each command does its work and raises; ``main`` alone turns an error into
an exit code and one ``error: ...`` line on standard error.  Exit codes: 1
configuration error, 2 data error (an input that cannot be read or an
output that cannot be written included), 3 training error, 141 standard
output closed early by its reader (``hte predict ... | head``; nothing is
printed on standard error).  Data and tables go to files or standard output.  Flag
values override config-file keys, which override built-in defaults, and
every config value must have its field's JSON type.  ``bench`` runs a
preset study config (``PRESETS``) through the code that runs ``study``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from .data import load_csv, read_matrix, target_column
from .ensemble import (
    DEFAULT_CANDIDATE_PAIRS,
    TrainConfig,
    check_type,
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

# config keys that address the CLI rather than TrainConfig, with their JSON types
_CLI_KEYS = {"target": ("str", "int"), "has_header": ("bool",), "threads": ("int",)}

# each `hte bench` preset is a study config, as `hte study --config` reads it;
# the empty train block is the default TrainConfig: nht on grids, s in [0, 1]
PRESETS = {
    "sin16": {
        "generator": "sin16", "n_train": 2000, "n_test": 2000, "repetitions": 300,
        "grid": {"n_train": [2000, 3000, 4000, 5000], "n_transforms": [1, 5, 10, 20]},
        "train": {},
    },
    "t-study": {
        "generator": "sin16", "n_train": 2000, "n_test": 2000, "repetitions": 300,
        "grid": {"n_transforms": [1, 5, 10, 20]},
        "train": {},
    },
    "scale-study": {
        "generator": "sin16", "n_train": 500, "n_test": 1000, "repetitions": 100,
        "grid": {"pair": [list(p) for p in DEFAULT_CANDIDATE_PAIRS]},
        "train": {},
    },
    "counter3d": {
        "generator": "counter3d", "n_train": 1000, "n_test": 1000, "repetitions": 30,
        "grid": {"n_train": [1000, 2000, 4000, 8000], "n_transforms": [1, 2, 5, 10, 30]},
        "train": {},
    },
}


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
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return raw


def _cmd_train(args) -> None:
    raw = _load_cli_config(args.config) if args.config else {}
    if args.seed is not None:
        raw["master_seed"] = args.seed
    cli_part = {k: check_type(k, raw.pop(k), *_CLI_KEYS[k]) for k in list(raw) if k in _CLI_KEYS}
    config = TrainConfig.from_dict(raw)  # rejects unknown keys
    target = args.target if args.target is not None else cli_part.get("target")
    if target is None:
        raise ConfigError("no target column: set 'target' in the config or --target")
    has_header = cli_part.get("has_header", True)
    n_threads = _threads(args)
    if n_threads is None:
        n_threads = cli_part.get("threads")

    dataset = load_csv(args.data, target, has_header=has_header)
    t0 = time.perf_counter()
    model = train_ensemble(dataset, config, n_threads=n_threads)
    seconds = time.perf_counter() - t0
    model.data_info = {"target": dataset.target_column, "has_header": has_header}
    save_model(model, args.out)

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


def _cmd_predict(args) -> None:
    model = load_model(args.model)
    try:  # what `hte train` stored, with the types a config gives these keys
        stored = {k: check_type(k, v, *_CLI_KEYS[k])
                  for k, v in model.data_info.items() if k in _CLI_KEYS}
    except ConfigError as exc:
        raise DataError(f"model file corrupt: stored data: {exc}") from None
    has_header = False if args.no_header else stored.get("has_header", True)
    X, header = read_matrix(args.data, has_header=has_header)
    # the target column, for the MSE: the one --target names, else the stored
    # target in a file whose header holds its name or that has one column
    # more than the model's features
    target = args.target if args.target is not None else stored.get("target")
    named = args.target is not None or header is not None and target in header
    y = None
    if named or target is not None and X.shape[1] == model.d + 1:
        index, _ = target_column(args.data, header, X.shape[1], target)
        X, y = np.delete(X, index, axis=1), X[:, index]

    preds = predict(model, X)
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


def _run_study_config(raw: dict, args) -> None:
    """Run the study a study config describes; ``--reps`` and ``--seed``
    override its ``repetitions`` and ``seed``.  The output files are opened
    first, so an unwritable one fails before any grid point trains."""
    flags = {"repetitions": args.reps, "seed": args.seed}
    setup = StudySetup.from_dict({**raw, **{k: v for k, v in flags.items() if v is not None}})
    n_threads = _threads(args)
    with contextlib.ExitStack() as files:
        table = sys.stdout
        if args.out:
            table = files.enter_context(open(args.out, "w", newline="", encoding="utf-8"))
        if args.json_out:
            json_table = files.enter_context(open(args.json_out, "w", encoding="utf-8"))
        results = run_study(setup, n_threads)
        write_study_csv(results, table)
        if args.json_out:
            write_study_json(results, json_table)


def _cmd_bench(args) -> None:
    if args.preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {args.preset!r}; available presets: {', '.join(sorted(PRESETS))}"
        )
    _run_study_config(PRESETS[args.preset], args)


def _cmd_study(args) -> None:
    _run_study_config(_load_cli_config(args.config), args)


def _cmd_schedule(args) -> None:
    if args.alpha is None:
        raise ConfigError("--alpha is required")
    schedule = theoretical_schedule(
        args.n, args.d, args.smoothness, alpha=args.alpha, k=args.k, delta=args.delta
    )
    print(json.dumps(schedule.to_dict(), sort_keys=True))


def _cmd_inspect(args) -> None:
    print(json.dumps(read_metadata(args.model), indent=2, sort_keys=True))


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
    p_bench.add_argument("--seed", type=int)
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


def _fail(code: int, exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:  # an OSError, so it is caught first
        # the reader closed standard output early (`hte predict ... | head`);
        # point it at devnull so that the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, exc)
    except (DataError, OSError) as exc:  # unreadable input, unwritable output
        return _fail(EXIT_DATA, exc)
    except HteError as exc:
        return _fail(EXIT_TRAINING, exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
