"""Performance benchmark for hte: end-to-end timings, checked outputs, layer traces.

One run measures one workload for about ``--seconds`` seconds in a closed
loop (one client, each call starts when the previous one returned) and
prints, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics with no wrapper installed;
``--trace 1`` is a separate run that wraps the library's public functions
where their callers import them and reports per-layer self times and
counts (see ``tracing.py``).  The inputs come only from ``--seed`` through
``hte.gen_counter3d`` (d=3); the training seed of the model is fixed.

    python3 benchmarks/perf.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 benchmarks/perf.py --smoke              # every workload and check, tiny sizes
    python3 benchmarks/perf.py --smoke --record-golden   # rewrite golden.json

Times are medians over the run, in reference seconds: wall seconds scaled
by the speed the machine showed on a fixed reference operation timed
around each call (see ``Ledger``), because a shared machine can drift by
up to 2x within a minute.  The wall times are printed on a ``samples``
line before the result.

End-to-end metrics: ``train_s`` and ``train_threads2_s`` (training with 1
and 2 threads), ``predict_rows_per_s`` (after a warm-up call),
``save_s``/``load_s``, ``model_bytes``, ``peak_rss_mb`` (counting the
largest child process), ``test_mse`` on the held-out rows, and ``setup_s``
(the median over SETUP_REPEATS of a cold ``import hte`` in a new
interpreter, data generation, CSV writing and a warm-up of every library
path).  Every workload reports every metric: on ``cli`` the train and
predict metrics time the ``hte train``/``hte predict`` commands through
``hte.cli.main``, CSV I/O and model files included, and save/load time the
library on the model file the command wrote.

Checks that count as failed operations: predictions on the golden inputs
must match ``golden.json`` (prediction digests never change), the model
trained with 2 threads must serialize byte-identically to the 1-thread
model, a saved and reloaded model must predict bit-identically, and on the
``cli`` workload the ``hte predict`` CSV must equal the library predictions
of the same model file.  The model-bytes digest is reported, not checked,
because the file format may change on purpose.

The harness measures only its own processes and their children.  It pins
BLAS/OpenMP to one thread, so no run uses more than two threads; it drops
no caches and changes no cgroup or system setting.
"""

import os

# Pinned before numpy loads, and passed on to the Python subprocesses, so that
# a 2-thread training run uses two threads and no hidden BLAS pool.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"

MASTER_SEED = 2019  # model seed; the workload seed only drives the data
GOLDEN_SEED = 0  # data seed of the golden inputs, which use the smoke sizes
SETUP_REPEATS = 3
# The reference operation (see Ledger) and its nominal time, about its
# median wall time on the machine that recorded the baseline.
REF_SEED = 12345
REF_SORT_SIZE = 1_000_000
REF_LOOP_SIZE = 300_000
REF_NOMINAL_S = {1: 0.035, 2: 0.050}  # by the number of threads it runs on
SUBPROCESS_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    partition: str
    n_train: int
    n_query: int
    n_transforms: int
    min_samples_split: int = 1200
    cli: bool = False

    def config(self):
        return hte.TrainConfig(
            mode=self.mode,
            partition=self.partition,
            n_transforms=self.n_transforms,
            min_samples_split=self.min_samples_split,
            master_seed=MASTER_SEED,
        )


# Each workload loads a different layer; the "why" says which, so that a
# change to one layer has a workload that exercises it and one that does not.
# Sizes keep each timed call near a second, so that one run holds several
# rounds of every call.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "grid",
            "nht grid, n=100k, T=4: build_grid and grid assign_many do almost all the work, "
            "so packed grid keys show here",
            "nht", "grid", n_train=100_000, n_query=50_000, n_transforms=4,
        ),
        Workload(
            "adaptive",
            "nht adaptive tree, n=50k, T=4: the per-node Python loop of build_adaptive "
            "dominates; no grid or kernel work, so grid changes should not move it",
            "nht", "adaptive", n_train=50_000, n_query=50_000, n_transforms=4,
            min_samples_split=50,
        ),
        Workload(
            "kernel",
            "kht grid, n=10k, T=4: thousands of small Gram builds and Cholesky solves plus "
            "per-cell save/load records; flat kernel cells show here",
            "kht", "grid", n_train=10_000, n_query=10_000, n_transforms=4,
        ),
        Workload(
            "cli",
            "hte train/predict commands on 50k-row CSVs: CSV parsing and writing, argument "
            "handling and a cold model load block the result",
            "nht", "grid", n_train=50_000, n_query=50_000, n_transforms=2, cli=True,
        ),
    ]
}

# Smoke sizes: every code path and check in a few seconds.  The golden
# inputs are these sizes at GOLDEN_SEED.
SMOKE_SIZES = {
    "grid": dict(n_train=4000, n_query=2000, n_transforms=3),
    "adaptive": dict(n_train=4000, n_query=2000, n_transforms=3),
    "kernel": dict(n_train=2000, n_query=1000, n_transforms=2),
    "cli": dict(n_train=2000, n_query=1000, n_transforms=2),
}


def smoke(w: Workload) -> Workload:
    return replace(w, **SMOKE_SIZES[w.name])


class Ledger:
    """Counts operations attempted and failed, and times calls in reference seconds.

    The CPU speed of a shared machine drifts by up to 2x over tens of
    seconds, alike for numpy and interpreter work, so the wall times of one
    run depend on when it ran.  Each timed call is therefore bracketed by a
    fixed reference operation (an in-place numpy sort and a Python loop, the
    two kinds of work hte does, neither allocating), run on as many threads
    as the call keeps busy, and its wall time is scaled by
    REF_NOMINAL_S[threads] / (mean of the two reference times): the time the
    call takes on a machine that runs the reference in its nominal time.
    Wall times and reference times are printed alongside.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = defaultdict(list)  # key -> reference seconds
        self.wall = defaultdict(list)  # key -> wall seconds
        self.refs: list[float] = []
        self._array = np.random.default_rng(REF_SEED).random(REF_SORT_SIZE)
        self._buffers = [np.empty_like(self._array) for _ in REF_NOMINAL_S]
        for threads in REF_NOMINAL_S:  # the first calls pay for page faults
            self.reference(threads)
        self.refs.clear()

    def _reference_once(self, buffer) -> None:
        buffer[:] = self._array
        buffer.sort()
        total = 0
        for i in range(REF_LOOP_SIZE):
            total += i

    def reference(self, threads: int = 1) -> float:
        """Wall time of the reference operation run on ``threads`` threads at once."""
        workers = [threading.Thread(target=self._reference_once, args=(b,))
                   for b in self._buffers[1:threads]]
        t0 = perf_counter()
        for worker in workers:
            worker.start()
        self._reference_once(self._buffers[0])
        for worker in workers:
            worker.join()
        took = perf_counter() - t0
        if threads == 1:
            self.refs.append(took)
        return took

    def op(self, key: str | None, fn, *args, threads: int = 1, **kwargs):
        """Call fn; with a key, time the call and record it under the key.

        ``threads`` is how many threads the call keeps busy, and so how many
        the reference operation runs on.
        """
        self.attempted += 1
        if key is None:
            return fn(*args, **kwargs)
        gc.collect()  # garbage of earlier calls is not billed to this one
        before = self.reference(threads)
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
        after = self.reference(threads)
        self.wall[key].append(wall)
        self.samples[key].append(wall * 2.0 * REF_NOMINAL_S[threads] / (before + after))
        return result

    def median(self, key: str) -> float:
        return median(self.samples[key])

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def for_budget(budget_s: float):
    """Yield until the next iteration, at the median pace so far, would overrun the budget.

    Always yields at least once.
    """
    start = perf_counter()
    took: list[float] = []
    while True:
        t0 = perf_counter()
        yield
        took.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(took) > budget_s:
            return


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype="<f8"), np.asarray(b, dtype="<f8")
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def digest(array) -> str:
    return hashlib.sha256(np.asarray(array, dtype="<f8").tobytes()).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------- set-up


@dataclass
class Inputs:
    train: object  # hte.Dataset
    X_query: object
    y_query: object
    train_csv: Path | None = None
    query_csv: Path | None = None
    cli_config: Path | None = None


def write_csv(path: Path, X, y) -> None:
    # 17 significant digits round-trip every float64 exactly, so the CLI
    # parses the same values the library is given.
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
               header="x1,x2,x3,y", comments="")


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    full = hte.gen_counter3d(w.n_train + w.n_query, seed)
    train = hte.Dataset(full.X[: w.n_train], full.y[: w.n_train], full.feature_names)
    inputs = Inputs(train, full.X[w.n_train :], full.y[w.n_train :])
    if w.cli:
        inputs.train_csv = work / "train.csv"
        inputs.query_csv = work / "query.csv"
        inputs.cli_config = work / "config.json"
        write_csv(inputs.train_csv, train.X, train.y)
        write_csv(inputs.query_csv, inputs.X_query, inputs.y_query)
        cfg = w.config().to_dict()
        cfg["target"] = "y"
        inputs.cli_config.write_text(json.dumps(cfg))
    return inputs


def warm_up(w: Workload, work: Path) -> None:
    """Run every library path once on small data, so first-call costs stay out of timings."""
    small = smoke(w)
    data = make_inputs(replace(small, cli=False), GOLDEN_SEED + 1, work)
    model = hte.train_ensemble(data.train, small.config(), n_threads=2)
    hte.predict(model, data.X_query)
    hte.save_model(model, work / "warm.hte")
    hte.predict(hte.load_model(work / "warm.hte"), data.X_query)


def set_up(w: Workload, seed: int, work: Path, ledger: Ledger, repeats: int) -> Inputs:
    """Make the inputs and warm up, ``repeats`` times, timed under "setup_s"."""
    for _ in range(repeats):
        inputs = ledger.op("setup_s", prepare, w, seed, work)
    return inputs


def prepare(w: Workload, seed: int, work: Path) -> Inputs:
    run_python(["-c", "import hte"])  # what starting a process pays for imports
    inputs = make_inputs(w, seed, work)
    warm_up(w, work)
    return inputs


# ---------------------------------------------------------------- checks


def golden_digests(w: Workload, work: Path) -> dict:
    """Digests of the predictions and model bytes on the golden inputs."""
    small = smoke(w)
    data = make_inputs(replace(small, cli=False), GOLDEN_SEED, work)
    model = hte.train_ensemble(data.train, small.config(), n_threads=1)
    return {
        "predict_sha256": digest(hte.predict(model, data.X_query)),
        "model_sha256": hashlib.sha256(hte.serialize_model(model)).hexdigest(),
    }


def golden_check(w: Workload, ledger: Ledger, work: Path) -> dict:
    """The prediction digest on the golden inputs must match golden.json."""
    found = golden_digests(w, work)
    expected = json.loads(GOLDEN.read_text())[w.name]["predict_sha256"]
    ledger.check(found["predict_sha256"] == expected,
                 f"{w.name}: golden prediction digest {found['predict_sha256']} != {expected}")
    return found


# ---------------------------------------------------------------- end to end


# Each round runs every timed operation once or a few times, so every metric
# samples the whole run rather than one stretch of it.
REPEATS_PER_ROUND = 2  # predict and save/load calls per round


def timed_metrics(ledger: Ledger, n_query: int) -> dict:
    """Medians of the timed samples, which are printed too, with their wall times."""
    print(json.dumps({"samples": ledger.samples, "wall": ledger.wall,
                      "reference_s": ledger.refs}))
    return {
        "train_s": ledger.median("train_s"),
        "train_threads2_s": ledger.median("train_threads2_s"),
        "predict_rows_per_s": n_query / ledger.median("predict_s"),
        "save_s": ledger.median("save_s"),
        "load_s": ledger.median("load_s"),
    }


def run_library(w: Workload, inputs: Inputs, budget: float, ledger: Ledger, work: Path) -> dict:
    cfg = w.config()
    path = work / "model.hte"
    model = model_bytes = preds = None
    for _ in for_budget(budget):
        trained = ledger.op("train_s", hte.train_ensemble, inputs.train, cfg, n_threads=1)
        if model is None:
            model, model_bytes = trained, hte.serialize_model(trained)
            preds = ledger.op(None, hte.predict, model, inputs.X_query)  # warm-up: lazy indexes
        else:
            ledger.check(hte.serialize_model(trained) == model_bytes,
                         f"{w.name}: retrained model bytes differ")
        del trained
        trained = ledger.op("train_threads2_s", hte.train_ensemble, inputs.train, cfg,
                            n_threads=2, threads=2)
        ledger.check(hte.serialize_model(trained) == model_bytes,
                     f"{w.name}: 2-thread model bytes differ from the 1-thread model")
        del trained
        for _ in range(REPEATS_PER_ROUND):
            again = ledger.op("predict_s", hte.predict, model, inputs.X_query)
            ledger.check(same_bits(again, preds), f"{w.name}: repeated predict differs")
        for _ in range(REPEATS_PER_ROUND):
            ledger.op("save_s", hte.save_model, model, path)
            loaded = ledger.op("load_s", hte.load_model, path)
    ledger.check(same_bits(hte.predict(loaded, inputs.X_query), preds),
                 f"{w.name}: reloaded model predicts differently")

    return timed_metrics(ledger, len(inputs.X_query)) | {
        "model_bytes": path.stat().st_size,
        "test_mse": hte.mse(preds, inputs.y_query),
    }


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HTE_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_ENV)
    return env


def run_python(args: list) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, *map(str, args)],
        env=cli_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{args} exited {done.returncode}: {done.stderr.strip()}")
    return done


def hte_cli(*args) -> None:
    """``hte.cli.main`` in this process with its printout captured; raises on failure.

    In-process, so the timing holds the command's own work (argument and
    CSV handling, training or prediction, model file I/O) and not the
    interpreter start-up, which varies with the page cache rather than with
    the program; start-up is timed in setup_s and cli.import_s instead.
    """
    import hte.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = hte.cli.main([str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"hte {args[0]} exited {code}")


def read_predictions(path: Path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1)


def run_cli(w: Workload, inputs: Inputs, budget: float, ledger: Ledger, work: Path) -> dict:
    m1, m2, m3 = work / "m1.hte", work / "m2.hte", work / "m3.hte"
    out = work / "predictions.csv"
    train = ["train", "--config", inputs.cli_config, "--data", inputs.train_csv]
    predict = ["predict", "--model", m1, "--data", inputs.query_csv, "--out", out]
    model_bytes = csv_bytes = None
    for _ in for_budget(budget):
        ledger.op("train_s", hte_cli, *train, "--out", m1, "--threads", "1")
        model_bytes = model_bytes or m1.read_bytes()
        ledger.check(m1.read_bytes() == model_bytes, "cli: retrained model file differs")
        ledger.op("train_threads2_s", hte_cli, *train, "--out", m2, "--threads", "2", threads=2)
        ledger.check(m2.read_bytes() == model_bytes,
                     "cli: 2-thread model file differs from the 1-thread file")
        for _ in range(REPEATS_PER_ROUND):
            ledger.op("predict_s", hte_cli, *predict)
            csv_bytes = csv_bytes or out.read_bytes()
            ledger.check(out.read_bytes() == csv_bytes, "cli: repeated hte predict output differs")
        for _ in range(REPEATS_PER_ROUND):
            loaded = ledger.op("load_s", hte.load_model, m1)
            ledger.op("save_s", hte.save_model, loaded, m3)

    cli_preds = read_predictions(out)
    lib_preds = hte.predict(loaded, inputs.X_query)
    ledger.check(same_bits(cli_preds, lib_preds),
                 "cli: hte predict output differs from library predictions")
    ledger.check(same_bits(hte.predict(hte.load_model(m3), inputs.X_query), lib_preds),
                 "cli: reloaded model predicts differently")

    return timed_metrics(ledger, len(inputs.X_query)) | {
        "model_bytes": m1.stat().st_size,
        "test_mse": hte.mse(cli_preds, inputs.y_query),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


# ---------------------------------------------------------------- traced run

# (module, attribute, span name, counter): each public function is wrapped
# where its caller looks it up, so calls from inside hte are seen.
def wrap_sites():
    import hte.cli
    import hte.data
    import hte.ensemble
    import hte.local_models
    import hte.partition
    import hte.serialize

    def rows(args, kwargs, result):
        return {"rows": len(np.atleast_2d(args[1]))}

    def misses(args, kwargs, result):
        if type(args[0]).__name__ != "GridPartition":
            return {"queries": len(result), "misses": 0}
        return {"queries": len(result), "misses": int((np.asarray(result) < 0).sum())}

    def solve(args, kwargs, result):
        return {"m": len(args[0]), "escalations": int(getattr(result, "escalations", 0))}

    return [
        (hte.cli, "load_csv", "data.load_csv", None),
        (hte.cli, "train_ensemble", "ensemble.train_ensemble", None),
        (hte.cli, "predict", "ensemble.predict", None),
        (hte.cli, "save_model", "serialize.save_model", None),
        (hte.cli, "load_model", "serialize.load_model", None),
        (hte.cli, "read_metadata", "serialize.read_metadata", None),
        (hte.ensemble, "fit_standardizer", "data.standardize", None),
        (hte.data.Standardizer, "transform", "data.standardize", None),
        (hte.ensemble, "default_scale", "data.default_scale", None),
        (hte.partition, "bin_key", "transform.bin_key", rows),
        (hte.ensemble, "build_grid", "partition.build_grid", None),
        (hte.ensemble, "build_adaptive", "partition.build_adaptive", None),
        (hte.ensemble, "assign_many", "partition.assign_many", misses),
        (hte.ensemble, "train_member", "ensemble.train_member", None),
        (hte.ensemble, "fit_constant", "local_models.fit_constant", None),
        (hte.ensemble, "fit_kernel_cell", "local_models.fit_kernel_cell", None),
        (getattr(hte.local_models, "ConstantModel", None), "predict", "local_models.predict", None),
        (getattr(hte.local_models, "KernelCellModel", None), "predict", "local_models.predict", None),
        (hte.local_models, "gaussian_gram", "linalg.gaussian_gram", None),
        (hte.local_models, "gaussian_cross", "linalg.gaussian_cross", None),
        (hte.local_models, "solve_spd", "linalg.solve_spd", solve),
        (hte.serialize, "serialize_model", "serialize.serialize", None),
        (hte.serialize, "deserialize_model", "serialize.deserialize", None),
    ]


# per-layer metric -> span whose self time it sums
SELF_TIME_LAYERS = {
    "data.load_csv_s": "data.load_csv",
    "data.standardize_s": "data.standardize",
    "data.default_scale_s": "data.default_scale",
    "transform.bin_key_s": "transform.bin_key",
    "partition.build_grid_s": "partition.build_grid",
    "partition.build_adaptive_s": "partition.build_adaptive",
    "local_models.fit_constant_s": "local_models.fit_constant",
    "local_models.fit_kernel_cell_s": "local_models.fit_kernel_cell",
    "local_models.predict_s": "local_models.predict",
    "linalg.gaussian_gram_s": "linalg.gaussian_gram",
    "linalg.solve_spd_s": "linalg.solve_spd",
    "linalg.gaussian_cross_s": "linalg.gaussian_cross",
    "ensemble.predict_self_s": "ensemble.predict",
    "serialize.serialize_s": "serialize.serialize",
    "serialize.deserialize_s": "serialize.deserialize",
    "cli.train_self_s": "cli.train",
    "cli.predict_self_s": "cli.predict",
}

# span names the harness opens itself around its calls into hte
HARNESS_SPANS = {"ensemble.train_ensemble", "ensemble.predict", "serialize.save_model",
                 "serialize.load_model", "cli.train", "cli.predict"}


class Wrapped:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.present = set(HARNESS_SPANS)

    def __enter__(self):
        for owner, attr, name, count in wrap_sites():
            if owner is None:
                self.tracer.absent.append(f"{name} ({attr})")
            elif self.tracer.wrap(owner, attr, name, count):
                self.present.add(name)
        return self

    def __exit__(self, *exc):
        self.tracer.restore()


def layer_metrics(tracer: Tracer, first: int, last: int, present: set) -> dict:
    """Per-layer numbers of one traced iteration, from spans[first:last]."""
    spans = tracer.spans[first:last]
    own = tracer.self_seconds(first, last)
    out = {}
    for metric, name in SELF_TIME_LAYERS.items():
        if name in present:
            out[metric] = sum(s for span, s in zip(spans, own) if span.name == name)

    def named(name):
        return [(i, span) for i, span in enumerate(spans, start=first) if span.name == name]

    if "transform.bin_key" in present:
        out["transform.bin_key_rows"] = sum(s.counts["rows"] for _, s in named("transform.bin_key"))
    if "partition.build_grid" in present:
        out["partition.build_grid_calls"] = len(named("partition.build_grid"))
    if "partition.assign_many" in present:
        assigns = named("partition.assign_many")
        in_train = [tracer.root_name(i) == "ensemble.train_ensemble" for i, _ in assigns]
        for key, want in (("train", True), ("predict", False)):
            out[f"partition.assign_many_{key}_s"] = sum(
                own[i - first] for (i, _), t in zip(assigns, in_train) if t == want
            )
        queries = sum(s.counts["queries"] for (_, s), t in zip(assigns, in_train) if not t)
        missed = sum(s.counts["misses"] for (_, s), t in zip(assigns, in_train) if not t)
        out["partition.grid_miss_share"] = missed / queries if queries else 0.0
    if "local_models.fit_kernel_cell" in present:
        out["local_models.kernel_cells"] = len(named("local_models.fit_kernel_cell"))
    if "linalg.solve_spd" in present:
        solves = [s for _, s in named("linalg.solve_spd")]
        out["linalg.solve_calls"] = len(solves)
        out["linalg.jitter_escalations"] = sum(s.counts["escalations"] for s in solves)
        out["linalg.cholesky_flops_computed"] = sum(s.counts["m"] ** 3 / 3.0 for s in solves)
    if "ensemble.train_member" in present:
        members = [s.seconds for _, s in named("ensemble.train_member")]
        if members:
            out["ensemble.train_member_s_median"] = median(members)
            out["ensemble.train_member_s_max"] = max(members)
    return out


def trace_run(w: Workload, inputs: Inputs, budget: float, ledger: Ledger, work: Path,
              tracer: Tracer) -> dict:
    """Per-layer metrics: medians over traced iterations of the workload's calls.

    Span times of an iteration are scaled to reference seconds like the
    ledger's timings, by the reference operation run around the iteration.
    """
    cfg = w.config()
    iterations, traced_train = [], []
    for _ in for_budget(budget):
        ledger.op("untraced_train_s", hte.train_ensemble, inputs.train, cfg, n_threads=1)
        ledger.op("untraced_train2_s", hte.train_ensemble, inputs.train, cfg, n_threads=2,
                  threads=2)
        ledger.op("import_s", run_python, ["-c", "import hte.cli"])
        gc.collect()
        before = ledger.reference()
        first = len(tracer.spans)
        if w.cli:
            model_path, out = work / "traced.hte", work / "traced.csv"
            with Wrapped(tracer) as wrapped:
                traced(tracer, "cli.train", ledger, hte_cli, "train", "--config",
                       inputs.cli_config, "--data", inputs.train_csv, "--out", model_path,
                       "--threads", "1")
                traced(tracer, "cli.predict", ledger, hte_cli, "predict", "--model", model_path,
                       "--data", inputs.query_csv, "--out", out)
            model = hte.load_model(model_path)
        else:
            with Wrapped(tracer) as wrapped:
                model = traced(tracer, "ensemble.train_ensemble", ledger,
                               hte.train_ensemble, inputs.train, cfg, n_threads=1)
            hte.predict(model, inputs.X_query)  # untraced warm-up: lazy indexes
            path = work / "traced.hte"
            with Wrapped(tracer) as wrapped:
                traced(tracer, "ensemble.predict", ledger, hte.predict, model, inputs.X_query)
                traced(tracer, "serialize.save_model", ledger, hte.save_model, model, path)
                traced(tracer, "serialize.load_model", ledger, hte.load_model, path)
        last = len(tracer.spans)
        scale = 2.0 * REF_NOMINAL_S[1] / (before + ledger.reference())
        layers = layer_metrics(tracer, first, last, wrapped.present)
        layers = {k: v * scale if layer_unit(k) == "s" else v for k, v in layers.items()}
        train_span = next(s for s in tracer.spans[first:last] if s.name == "ensemble.train_ensemble")
        traced_train.append(train_span.seconds * scale)
        layers["partition.cells"] = model.total_cells
        if "local_models.kernel_cells" in layers:
            layers["local_models.mean_cells"] = model.total_cells - layers["local_models.kernel_cells"]
        iterations.append(layers)

    out = {key: median([it[key] for it in iterations]) for key in iterations[0]}
    out["ensemble.thread_speedup"] = ledger.median("untraced_train_s") / ledger.median(
        "untraced_train2_s")
    out["trace.overhead_s"] = median(traced_train) - ledger.median("untraced_train_s")
    out["cli.import_s"] = ledger.median("import_s")
    return out


def traced(tracer: Tracer, name: str, ledger: Ledger, fn, *args, **kwargs):
    ledger.attempted += 1
    with tracer.span(name):
        return fn(*args, **kwargs)


# ---------------------------------------------------------------- command line

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "train_threads2_s": "s", "predict_rows_per_s": "1/s",
    "save_s": "s", "load_s": "s", "model_bytes": "bytes", "peak_rss_mb": "MB",
    "test_mse": "mse",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("_s_median") or name.endswith("_s_max"):
        return "s"
    if name.endswith("_share") or name.endswith("_speedup"):
        return "ratio"
    if name.endswith("_flops_computed"):
        return "flop"
    return "count"


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
        "train_threads": [1, 2],
        "scope": "times only its own processes and their children; drops no caches, "
                 "changes no cgroup or system setting",
    }


def run(w: Workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    ledger = Ledger()
    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    metrics, info = {}, {"workload": w.name, "seed": seed, "why": w.why}
    try:
        inputs = set_up(w, seed, work, ledger, setup_repeats)
        if trace:
            tracer = Tracer()
            try:
                metrics = trace_run(w, inputs, seconds, ledger, work, tracer)
            finally:
                spans = WORK / f"spans-{w.name}-seed{seed}.json"
                tracer.write(spans)
                info["spans"] = str(spans.relative_to(ROOT))
                info["absent"] = tracer.absent
            units = {k: layer_unit(k) for k in metrics}
        else:
            body = run_cli if w.cli else run_library
            metrics = body(w, inputs, seconds, ledger, work)
            metrics["setup_s"] = ledger.median("setup_s")
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END_UNITS
        info["golden"] = golden_check(w, ledger, work)
    except Exception:  # any failure of the program under test is reported, not raised
        traceback.print_exc()
        ledger.attempted += 1
        ledger.failed += 1
        units = {**END_TO_END_UNITS, **{k: layer_unit(k) for k in metrics}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def record_golden() -> None:
    """Rewrite golden.json from the digests this commit produces."""
    work = WORK / f"golden-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        digests = {name: golden_digests(w, work) for name, w in WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(
        {"seed": GOLDEN_SEED, "sizes": SMOKE_SIZES, **digests}, indent=2, sort_keys=True
    ) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; every workload (or --workload) in both trace modes")
    parser.add_argument("--record-golden", action="store_true",
                        help="with --smoke: rewrite golden.json from this commit's digests")
    args = parser.parse_args(argv)
    if not args.smoke and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required unless --smoke is given")
    if not (SRC / "hte" / "__init__.py").is_file():
        print(f"error: no hte sources under {SRC}", file=sys.stderr)
        return 2

    global hte, np, scipy
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import hte
    print(json.dumps({"machine": machine_record()}))

    if not args.smoke:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    if args.record_golden:
        record_golden()
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = 0.5 if args.seconds is None else args.seconds
    ok = True
    for name in names:
        for trace in (False, True):
            result = run(smoke(WORKLOADS[name]), args.seed, seconds, trace, setup_repeats=1)
            print(json.dumps({"smoke": name, "trace": int(trace), **result}))
            ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
