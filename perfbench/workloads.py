"""The three benchmark workloads and the harness that times them.

Every workload drives ``cooptile`` through its public calls only. A run
sets the workload up ``SETUP_REPEATS`` times, then repeats *rounds* of a
fixed list of units until the requested seconds have passed. Inputs come
from the seed alone, so every round does exactly the same work, and a
unit's reported time is its median over the rounds; ``wall_s`` and
``cpu_s`` are the sums of those medians, i.e. one noise-filtered round.
Outputs are checked against ``oracle`` after the timed phase.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
import spans

from cooptile import bench, datasets
from cooptile.agents import EngineConfig
from cooptile.engine import Engine
from cooptile.linear import LinearModelConfig, ModelKind

SETUP_REPEATS = 5

#: (metric, unit, better) for every end-to-end metric an untraced run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("accuracy", "fraction", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

#: Engine settings of the README quickstart, used by ``online`` and ``serve``.
QUICKSTART = dict(
    init_radius=0.2, overlap_threshold=0.5, exclude_points=True, resize_factor=0.1, penalty_weight=1.0
)

#: Data and engine seeds of the README quickstart.
QUICKSTART_DATA_SEED = 8
QUICKSTART_ENGINE_SEED = 5

#: Accuracy lead over the least-squares line that counts as a clear win on circles.
CIRCLES_MARGIN = 0.15


def derive_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _rusage_cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def cpu_seconds() -> float:
    """CPU time of this process plus every child already reaped."""
    return _rusage_cpu(resource.RUSAGE_SELF) + _rusage_cpu(resource.RUSAGE_CHILDREN)


def children_cpu_seconds() -> float:
    return _rusage_cpu(resource.RUSAGE_CHILDREN)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class UnitRun:
    """One execution of one unit: its clocks, its operations and its outputs."""

    wall: float
    cpu: float
    attempted: int
    failed: int
    output: object
    extra: dict = field(default_factory=dict)


class Ops:
    """Counts the operations a unit attempts and the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as err:  # a failed operation is counted, the run goes on
            self.failed += 1
            print(f"perfbench: operation {getattr(fn, '__qualname__', fn)} failed: {err!r}", file=sys.stderr)
            return None


# -- protocol ------------------------------------------------------------------

#: Step-1 cells, by index into ``bench.default_linear_grid(kind)``.
PROTOCOL_LINEAR_CELLS = {
    ModelKind.LOGIT: (4,),  # alpha 0.001, l2
    ModelKind.LINEAR_SVM: (4,),
    ModelKind.PA_I: (1,),  # C = 1.0
    ModelKind.PA_II: (1,),
}
#: Step-2 cells, by index into the 108-cell ``bench.default_engine_grid()``:
#: every radius, both overlap thresholds, point exclusion on and off.
#: Eight cells make two chunks of the pool's chunk size of 4.
PROTOCOL_ENGINE_CELLS = (0, 60, 75, 16, 32, 40, 107, 67)
PROTOCOL_DATASETS = ("circles",)


class Protocol:
    """The paper's two-step stratified-CV protocol on the 100-point datasets."""

    name = "protocol"
    ops_unit = "grid-search call"

    def __init__(self, seed: int):
        # the datasets are the paper's (the ``reproduce`` data seed); the
        # seed draws the folds and the shuffles of every fit
        self.config = bench.experiment_config(
            {
                "cv_seed": derive_seed(seed, 2) % 2**31,
                "fit_seed": derive_seed(seed, 3) % 2**31,
                "jobs": os.cpu_count() or 1,
            }
        )
        engine_grid = bench.default_engine_grid()
        self.engine_cells = [engine_grid[i] for i in PROTOCOL_ENGINE_CELLS]
        self.linear_cells = {
            kind: [bench.default_linear_grid(kind)[i] for i in idx] for kind, idx in PROTOCOL_LINEAR_CELLS.items()
        }
        self.jobs = self.config["jobs"]

    def setup(self):
        data = bench.build_datasets(self.config)
        # warm-up: one engine on circles, as one fold of step 2 would train it
        ds = data["circles"]
        engine = Engine(EngineConfig(**self.engine_cells[0], exploration_passes=2), LinearModelConfig(ModelKind.PA_I), 2)
        engine.train(ds.X, ds.Y).predict_batch(ds.X)
        return data

    def units(self, data):
        return [(f"{name}/{kind.value}", self._pair(data[name], name, kind)) for name in PROTOCOL_DATASETS for kind in bench.KINDS]

    def _pair(self, ds, name, kind):
        cfg = self.config

        def unit(ops: Ops, jobs: int):
            alone = ops.call(
                bench.grid_search_linear, ds, kind, self.linear_cells[kind], cfg["folds"], cfg["cv_seed"],
                cfg["fit_seed"], cfg["epochs"], name,
            )
            if alone is None:
                return None, {}
            t0, c0 = time.perf_counter(), children_cpu_seconds()
            mas = ops.call(
                bench.grid_search_mas, ds, kind, alone.best_params, self.engine_cells, cfg["folds"],
                cfg["cv_seed"], cfg["fit_seed"], cfg["exploration_passes"], jobs, name,
            )
            # pool workers are reaped when grid_search_mas returns, so their CPU shows here
            pool = {"wall": time.perf_counter() - t0, "cpu": children_cpu_seconds() - c0}
            return (alone.to_dict(), None if mas is None else mas.to_dict()), pool

        return unit

    def accuracy(self, data, outputs: dict) -> float:
        return statistics.fmean(pair[1]["mean_accuracy"] for pair in outputs.values())

    def digest(self, output) -> str:
        return json.dumps(output, sort_keys=True)

    def check(self, state, outputs: dict) -> list[str]:
        problems = []
        for label, (alone, mas) in outputs.items():
            for rec in (alone, mas):
                folds = rec["fold_accuracies"]
                if len(folds) != self.config["folds"] or not math.isclose(
                    rec["mean_accuracy"], sum(folds) / len(folds), rel_tol=1e-12, abs_tol=1e-12
                ):
                    problems.append(f"{label} {rec['stage']}: mean_accuracy is not the mean of its folds")
            if mas["best_params"]["engine"] not in self.engine_cells:
                problems.append(f"{label}: MAS winner is not a searched cell")
            if label.startswith("circles/") and not mas["mean_accuracy"] > alone["mean_accuracy"]:
                problems.append(f"{label}: MAS {mas['mean_accuracy']:.3f} does not beat ALONE {alone['mean_accuracy']:.3f}")
        return problems


# -- online ----------------------------------------------------------------------

ONLINE_CIRCLES_N = 1000
ONLINE_NOISY_N = 400
ONLINE_NOISE_DIMS = 2
ONLINE_HELDOUT_N = 500


@dataclass
class Stream:
    name: str
    X: np.ndarray
    Y: np.ndarray
    X_held: np.ndarray
    Y_held: np.ndarray


def _scaled(ds, scaler):
    mean, std = scaler
    return (ds.X - mean) / std


class Online:
    """Test-then-train streams: ``predict`` each point, then ``explore_step`` on it."""

    name = "online"
    ops_unit = "stream point"
    jobs = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.engine_cfg = EngineConfig(**QUICKSTART, seed=QUICKSTART_ENGINE_SEED, exploration_passes=1)
        self.model_cfg = LinearModelConfig(kind=ModelKind.PA_I)

    def setup(self):
        s = self.seed
        rng = np.random.default_rng(derive_seed(s, 11))
        circles = datasets.standardize(datasets.gen_circles(ONLINE_CIRCLES_N, 0.2, 0.5, derive_seed(s, 12)))
        circles_held = datasets.gen_circles(ONLINE_HELDOUT_N, 0.2, 0.5, derive_seed(s, 13))
        moons = datasets.standardize(datasets.gen_moons(ONLINE_NOISY_N, 0.3, derive_seed(s, 14)))
        moons_held_ds = datasets.gen_moons(ONLINE_HELDOUT_N, 0.3, derive_seed(s, 15))
        moons_held = _scaled(moons_held_ds, moons.scaler)
        k = ONLINE_NOISE_DIMS
        noisy = np.hstack([moons.X, rng.normal(size=(ONLINE_NOISY_N, k))])
        noisy_held = np.hstack([moons_held, rng.normal(size=(ONLINE_HELDOUT_N, k))])
        p = rng.permutation(ONLINE_CIRCLES_N)
        q = rng.permutation(ONLINE_NOISY_N)
        streams = [
            Stream("circles", circles.X[p], circles.Y[p], _scaled(circles_held, circles.scaler), circles_held.Y),
            Stream(f"moons+{k}", noisy[q], moons.Y[q], noisy_held, moons_held_ds.Y),
        ]
        # warm-up: a short stream through a throw-away engine
        self._run_stream(Ops(), Stream("warm-up", streams[0].X[:100], streams[0].Y[:100], None, None))
        return streams

    def units(self, streams):
        return [(s.name, self._unit(s)) for s in streams]

    def _unit(self, stream: Stream):
        def unit(ops: Ops, jobs: int):
            return self._run_stream(ops, stream), {}

        return unit

    def _run_stream(self, ops: Ops, stream: Stream):
        engine = Engine(self.engine_cfg, self.model_cfg, dim=stream.X.shape[1])
        predictions = np.full(stream.Y.shape[0], -1)
        for i, (x, y) in enumerate(zip(stream.X, stream.Y.tolist())):
            if engine.agents:
                p = ops.call(engine.predict, x)
                predictions[i] = -1 if p is None else p
            ops.call(engine.explore_step, x, y)
        return {"predictions": predictions, "engine": engine}

    def accuracy(self, streams, outputs: dict) -> float:
        correct = scored = 0
        for stream in streams:
            predictions = outputs[stream.name]["predictions"]
            seen = predictions >= 0
            correct += int((predictions[seen] == stream.Y[seen]).sum())
            scored += int(seen.sum())
        return correct / scored

    def digest(self, output) -> str:
        return output["predictions"].tobytes().hex() + output["engine"].to_json()

    def final_engines(self, outputs: dict) -> list[Engine]:
        return [out["engine"] for out in outputs.values()]

    def check(self, streams, outputs: dict) -> list[str]:
        problems = []
        for s in streams:
            out = outputs[s.name]
            engine = out["engine"]
            held = engine.predict_batch(s.X_held)
            ref = oracle.exploit(engine.snapshot(), s.X_held)
            if not np.array_equal(held, ref.labels):
                problems.append(f"{s.name}: predict_batch disagrees with the reference on {(held != ref.labels).sum()} held-out rows")
            if s.name == "circles":
                seen = out["predictions"] >= 0
                acc = float((out["predictions"][seen] == s.Y[seen]).mean())
                base = float((oracle.lstsq_baseline(s.X, s.Y, s.X_held) == s.Y_held).mean())
                if not acc >= base + CIRCLES_MARGIN:
                    problems.append(f"circles: test-then-train accuracy {acc:.3f} is not clearly above least squares {base:.3f}")
        return problems


# -- serve -------------------------------------------------------------------------

SERVE_TRAIN_N = 1000
SERVE_HELDOUT_N = 2000
SERVE_STREAM_N = 400
SERVE_LATTICE_STEP = 0.04


@dataclass
class Frozen:
    engine: Engine  # restored from the snapshot; the only engine the timed phase uses
    trained: Engine
    X_train: np.ndarray
    Y_train: np.ndarray
    X_extent: np.ndarray  # the lattice spans these points plus a margin
    X_held: np.ndarray
    Y_held: np.ndarray
    X_stream: np.ndarray


class Serve:
    """A frozen engine answering batch and single-point queries.

    Every seed serves the same engine, trained on the quickstart circles,
    so that serving cost does not swing with how one training run grew;
    the seed draws the queries: the held-out set, the single-point stream
    and a sub-step shift of the lattice.
    """

    name = "serve"
    ops_unit = "query"
    jobs = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        s = self.seed
        train = datasets.standardize(datasets.gen_circles(SERVE_TRAIN_N, 0.2, 0.5, QUICKSTART_DATA_SEED))
        held = datasets.gen_circles(SERVE_HELDOUT_N, 0.2, 0.5, derive_seed(s, 21))
        rng = np.random.default_rng(derive_seed(s, 22))
        cfg = EngineConfig(**QUICKSTART, seed=QUICKSTART_ENGINE_SEED, exploration_passes=2)
        trained = Engine(cfg, LinearModelConfig(kind=ModelKind.PA_I), dim=2).train(train.X, train.Y)
        engine = Engine.from_snapshot(json.loads(trained.to_json()))
        engine.predict(train.X[0])  # warm-up
        return Frozen(
            engine=engine,
            trained=trained,
            X_train=train.X,
            Y_train=train.Y,
            X_held=_scaled(held, train.scaler),
            Y_held=held.Y,
            X_extent=train.X + rng.uniform(0.0, SERVE_LATTICE_STEP, size=2),
            X_stream=rng.uniform(-3.0, 3.0, size=(SERVE_STREAM_N, 2)),
        )

    def units(self, fz: Frozen):
        engine = fz.engine

        def lattice(ops: Ops, jobs: int):
            grid = ops.call(bench.boundary_grid, engine.predict_batch, fz.X_extent, SERVE_LATTICE_STEP)
            return grid, {}

        def held_out(ops: Ops, jobs: int):
            return ops.call(engine.predict_batch, fz.X_held), {}

        def singles(ops: Ops, jobs: int):
            return np.array([ops.call(engine.predict, x) for x in fz.X_stream]), {}

        return [("lattice", lattice), ("held-out", held_out), ("single", singles)]

    def accuracy(self, fz: Frozen, outputs: dict) -> float:
        return float((outputs["held-out"] == fz.Y_held).mean())

    def digest(self, output) -> str:
        labels = output.labels if isinstance(output, bench.BoundaryGrid) else output
        return np.asarray(labels).tobytes().hex()

    def check(self, fz: Frozen, outputs: dict) -> list[str]:
        problems = []
        snap = fz.engine.snapshot()
        if snap != fz.trained.snapshot():
            problems.append("restored snapshot differs from the trained engine's")
        if not np.array_equal(fz.trained.predict_batch(fz.X_held), outputs["held-out"]):
            problems.append("restored engine predicts differently from the trained engine")
        grid = outputs["lattice"]
        xx, yy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        lattice = np.column_stack([xx.ravel(), yy.ravel()])
        for label, X, got in (
            ("lattice", lattice, grid.labels.ravel()),
            ("held-out", fz.X_held, outputs["held-out"]),
            ("single", fz.X_stream, outputs["single"]),
        ):
            ref = oracle.exploit(snap, X).labels
            if not np.array_equal(np.asarray(got, dtype=int), ref):
                problems.append(f"{label}: {(np.asarray(got) != ref).sum()} rows disagree with the reference")
        acc = self.accuracy(fz, outputs)
        base = float((oracle.lstsq_baseline(fz.X_train, fz.Y_train, fz.X_held) == fz.Y_held).mean())
        if not acc >= base + CIRCLES_MARGIN:
            problems.append(f"held-out accuracy {acc:.3f} is not clearly above least squares {base:.3f}")
        return problems


WORKLOADS = {w.name: w for w in (Protocol, Online, Serve)}


# -- harness -------------------------------------------------------------------------


def run_round(units, jobs: int) -> dict[str, UnitRun]:
    """Run every unit once, in order, timing each on its own."""
    runs = {}
    for label, unit in units:
        ops = Ops()
        t0, c0 = time.perf_counter(), cpu_seconds()
        output, extra = unit(ops, jobs)
        runs[label] = UnitRun(time.perf_counter() - t0, cpu_seconds() - c0, ops.attempted, ops.failed, output, extra)
    return runs


def timed_rounds(units, jobs: int, seconds: float) -> list[dict[str, UnitRun]]:
    """Whole rounds, at least one, until ``seconds`` have passed."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(units, jobs))
    return rounds


def median_round(rounds, clock: str) -> float:
    """Sum over units of each unit's median ``clock`` across rounds."""
    return sum(statistics.median(getattr(r[label], clock) for r in rounds) for label in rounds[0])


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir=None) -> dict:
    """One benchmark run; returns the result object the command prints."""
    wl = WORKLOADS[name](seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    units = wl.units(state)
    rounds = timed_rounds(units, wl.jobs, seconds)
    peak_rss = peak_rss_mib()  # before the checks allocate anything

    outputs = {label: run.output for label, run in rounds[0].items()}
    attempted = sum(run.attempted for r in rounds for run in r.values())
    failed = sum(run.failed for r in rounds for run in r.values())
    walls = ", ".join(f"{sum(run.wall for run in r.values()):.3f}" for r in rounds)
    print(f"perfbench: round walls (s): {walls}", file=sys.stderr)
    print(
        f"perfbench: {name} seed={seed}: {len(rounds)} rounds of {len(units)} units, "
        f"{attempted} operations attempted (one per {wl.ops_unit}), {failed} failed",
        file=sys.stderr,
    )
    problems = []
    if failed == 0:
        problems += wl.check(state, outputs)
    if trace:
        values, traced = traced_metrics(wl, rounds, name, out_dir)
        rounds = rounds + [traced]
    for i, r in enumerate(rounds[1:], start=1):
        for label, run in r.items():
            if wl.digest(run.output) != wl.digest(outputs[label]):
                problems.append(f"round {i} {label}: output differs from round 0")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": median_round(rounds, "wall"),
            "cpu_s": median_round(rounds, "cpu"),
            "accuracy": wl.accuracy(state, outputs) if failed == 0 else 0.0,
            "peak_rss_mib": peak_rss,
        }
        listed = END_TO_END
    else:
        listed = spans.LAYER_METRICS
    result["metrics"] = {m: {"value": values[m], "unit": unit} for m, unit, _ in listed}
    return result


def traced_metrics(wl, rounds, name: str, out_dir) -> tuple[dict, dict[str, UnitRun]]:
    """Per-layer metrics from one traced set-up plus one traced round.

    ``protocol`` is traced with ``jobs=1`` so every span is in this
    process; its untraced reference round also runs with ``jobs=1``.
    The pool figures come from the untraced rounds already run. Returns
    the metrics and the traced round, whose outputs must match the
    untraced ones.
    """
    pool = {}
    if any("cpu" in run.extra for run in rounds[0].values()):
        cpu = statistics.median(sum(run.extra["cpu"] for run in r.values()) for r in rounds)
        wall = statistics.median(sum(run.extra["wall"] for run in r.values()) for r in rounds)
        pool = {"cpu_s": cpu, "busy_ratio": cpu / (wall * wl.jobs)}
    jobs = 1
    if wl.jobs != 1:
        base = sum(run.wall for run in run_round(wl.units(wl.setup()), jobs).values())
    else:
        base = median_round(rounds, "wall")
    rec = spans.Recorder()
    with spans.instrument(rec, spans.HOOKS):
        state = wl.setup()
        units = wl.units(state)
        t0 = time.perf_counter()
        traced = run_round(units, jobs)
        traced_wall = time.perf_counter() - t0
    if hasattr(wl, "final_engines"):
        rec.populations += [len(e.agents) for e in wl.final_engines({k: r.output for k, r in traced.items()})]
    print(f"perfbench: traced round {traced_wall:.3f} s, untraced round {base:.3f} s", file=sys.stderr)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"trace-{name}.npz"))  # the latest traced run of each workload
    return spans.layer_metrics(rec, pool, traced_wall - base), traced
