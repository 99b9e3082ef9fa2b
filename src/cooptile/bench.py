"""Benchmark harness: stratified CV, two-step grid search, boundary export.

Step 1 tunes each bare linear classifier over its hyperparameter grid by
k-fold cross validation. Step 2 freezes the winning linear parameters,
plants that model inside the tiling engine's agents, and tunes the engine
parameters over their own grid with the same protocol. The full
experiment runs both steps for every dataset/classifier combination and
writes a machine-readable record list plus a compact accuracy table.

Both steps run one grid search, each with its cell trainer
(``train_linear``, ``train_engine``: the only code that builds a cell's
configs). Grid cells are embarrassingly parallel and aggregation is
order-independent, so results are identical for any worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import EngineConfig
from .datasets import Dataset, gen_circles, gen_linear, gen_moons, standardize
from .engine import Engine
from .linear import (Keys, LinearModelConfig, ModelKind, OnlineLinearModel, checked_value, opened, read_config,
                     write_json)

#: Classifier kinds benchmarked, in reporting order.
KINDS = (ModelKind.LOGIT, ModelKind.LINEAR_SVM, ModelKind.PA_I, ModelKind.PA_II)

#: Dataset names in reporting order.
DATASET_NAMES = ("moons", "circles", "linear")

#: Most points ``boundary_grid`` evaluates; the README's circles lattice holds 68,226.
MAX_LATTICE_POINTS = 10**7

STAGE_ALONE = "ALONE"
STAGE_MAS = "MAS"


# -- grids ---------------------------------------------------------------


def default_linear_grid(kind: ModelKind) -> list[dict]:
    """Hyperparameter grid for one bare linear classifier (step 1)."""
    kind = ModelKind(kind)
    if kind in (ModelKind.LOGIT, ModelKind.LINEAR_SVM):
        return [
            {"alpha_reg": alpha, "penalty": penalty}
            for alpha in (0.0001, 0.001, 0.01)
            for penalty in ("l1", "l2", "elasticnet")
        ]
    return [{"aggressiveness_c": c} for c in (0.5, 1.0, 2.0)]


def default_engine_grid() -> list[dict]:
    """108-cell engine parameter grid (step 2)."""
    return [
        {
            "init_radius": radius,
            "overlap_threshold": overlap,
            "exclude_points": exclude,
            "resize_factor": resize,
            "reward_weight": 1.0,
            "penalty_weight": penalty,
        }
        for radius in (0.1, 0.2, 0.5)
        for overlap in (0.2, 0.5)
        for exclude in (False, True)
        for resize in (0.0, 0.1, 0.2)
        for penalty in (0.5, 1.0, 2.0)
    ]


# -- cross validation ------------------------------------------------------


def kfold_split(labels, k: int, seed: int = 0) -> list[np.ndarray]:
    """Disjoint stratified folds covering all indices, sizes within 1.

    Each class's indices are shuffled and dealt round-robin, rotating the
    starting fold between classes so total fold sizes stay balanced.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    start = 0
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < k:
            raise ValueError(f"class {cls} has {idx.size} members, fewer than {k} folds")
        rng.shuffle(idx)
        for offset, i in enumerate(idx):
            folds[(start + offset) % k].append(int(i))
        start = (start + idx.size) % k
    return [np.sort(np.asarray(f, dtype=int)) for f in folds]


def accuracy(predictions, labels) -> float:
    """Fraction of exact label matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    return float(np.mean(predictions == labels))


def _derive_seed(*parts: int) -> int:
    """Stable 32-bit seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# -- the grid search and its records ----------------------------------------


@dataclass
class ResultRecord:
    """Winner of one grid search: dataset, classifier, stage and scores."""

    dataset: str
    kind: str
    stage: str
    best_params: dict
    fold_accuracies: list[float]
    mean_accuracy: float

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict, path: str = "record") -> "ResultRecord":
        """The record of ``to_dict`` output, its ``best_params`` checked by building the configs they describe,
        with any seed and pass count."""
        record = cls(**checked_value(d, Keys({"dataset": str, "kind": str, "stage": str, "best_params": None,
                                              "fold_accuracies": [float], "mean_accuracy": float}), path))
        params, path = record.best_params, f"{path}.best_params"
        if record.stage == STAGE_MAS:
            params = checked_value(params, Keys({"engine": None, "model": None}), path)
            read_config(EngineConfig, params["engine"], f"{path}.engine", seed=0, exploration_passes=1)
            params, path = params["model"], f"{path}.model"
        read_config(LinearModelConfig, params, path, kind=record.kind)
        return record


def _cell_scores(X: np.ndarray, Y: np.ndarray, folds, train, fit_seed: int, ci: int, cell: dict) -> list[float]:
    """Worker (parallel-safe): the per-fold CV accuracies of grid cell ``ci``, each of the model that
    ``train(cell, X, Y, seed)`` fits on every other fold, seeded by the cell and the fold."""
    scores = []
    for fold, val in enumerate(folds):
        rest = np.setdiff1d(np.arange(Y.shape[0]), val)
        model = train(cell, X[rest], Y[rest], _derive_seed(fit_seed, ci, fold))
        scores.append(accuracy(model.predict_batch(X[val]), Y[val]))
    return scores


def _grid_search(ds: Dataset, kind: ModelKind, stage: str, train, grid: list[dict], best_params,
                 n_folds: int, cv_seed: int, fit_seed: int, jobs: int, dataset_name: str | None) -> ResultRecord:
    """Stratified-CV search of ``grid`` with ``train(cell, X, Y, seed)``: the first cell of highest mean
    accuracy wins, and its record reports ``best_params(cell)``."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    score = functools.partial(_cell_scores, ds.X, ds.Y, kfold_split(ds.Y, n_folds, cv_seed), train, fit_seed)
    workers = min(jobs, len(grid))  # the pool starts every worker at once, and a cell goes to one worker
    if workers > 1:
        # imported here: the pool machinery adds about 1.6 MiB to processes that never start one
        from concurrent.futures import ProcessPoolExecutor

        # cells go out four at a time only while each worker still gets four chunks or more
        chunksize = max(1, min(4, len(grid) // (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scores = list(pool.map(score, range(len(grid)), grid, chunksize=chunksize))
    else:
        scores = list(map(score, range(len(grid)), grid))
    means = [float(np.mean(s)) for s in scores]
    ci = means.index(max(means))
    dataset = dataset_name or ds.meta.get("generator", "unknown")
    return ResultRecord(dataset, kind.value, stage, best_params(grid[ci]), [float(s) for s in scores[ci]], means[ci])


# -- step 1: bare linear classifiers ----------------------------------------


def train_linear(kind: ModelKind, params: dict, X, Y, seed: int, epochs: int) -> OnlineLinearModel:
    """A step-1 cell: the bare ``kind`` classifier with ``params``, fit on ``(X, Y)``."""
    return LinearModelConfig(kind=kind, **params).build(X.shape[1]).fit(X, Y, epochs=epochs, seed=seed)


def grid_search_linear(
    ds: Dataset,
    kind: ModelKind,
    grid: list[dict] | None = None,
    n_folds: int = 5,
    cv_seed: int = 0,
    fit_seed: int = 0,
    epochs: int = 100,
    dataset_name: str | None = None,
) -> ResultRecord:
    """Cross-validated hyperparameter search for one bare classifier."""
    if checked_value(epochs, int, "epochs") < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")
    kind = ModelKind(kind)
    train = functools.partial(train_linear, kind, epochs=epochs)
    grid = default_linear_grid(kind) if grid is None else grid
    return _grid_search(ds, kind, STAGE_ALONE, train, grid, dict, n_folds, cv_seed, fit_seed, 1, dataset_name)


# -- step 2: the same classifiers inside tiling agents ----------------------


def train_engine(kind: ModelKind, params: dict, cell: dict, X, Y, seed: int, passes: int, trace=None) -> Engine:
    """A step-2 cell: an engine of ``cell`` trained on ``(X, Y)``, its agents holding the ``kind``
    classifier with ``params``, read by ``read_config``; ``trace`` receives ``Engine.train``'s cycle log."""
    model_cfg = read_config(LinearModelConfig, params, "params", kind=kind)
    cfg = EngineConfig(**cell, seed=seed, exploration_passes=passes)
    return Engine(cfg, model_cfg, dim=X.shape[1]).train(X, Y, trace=trace)


def grid_search_mas(
    ds: Dataset,
    kind: ModelKind,
    linear_params: dict,
    grid: list[dict] | None = None,
    n_folds: int = 5,
    cv_seed: int = 0,
    fit_seed: int = 0,
    passes: int = 2,
    jobs: int = 1,
    dataset_name: str | None = None,
) -> ResultRecord:
    """Cross-validated engine-parameter search with the linear model frozen."""
    kind = ModelKind(kind)
    train = functools.partial(train_engine, kind, linear_params, passes=passes)
    grid = default_engine_grid() if grid is None else grid
    return _grid_search(ds, kind, STAGE_MAS, train, grid,
                        lambda cell: {"engine": dict(cell), "model": dict(linear_params)},
                        n_folds, cv_seed, fit_seed, jobs, dataset_name)


# -- decision-boundary grids -------------------------------------------------


@dataclass
class BoundaryGrid:
    """Predicted labels on a regular lattice: ``labels[i, j]`` at ``(xs[i], ys[j])``."""

    xs: np.ndarray
    ys: np.ndarray
    labels: np.ndarray

    def to_csv(self, path) -> None:
        with opened(path) as f:
            f.write("x1,x2,yhat\n")
            for i, x in enumerate(self.xs):
                for j, y in enumerate(self.ys):
                    f.write(f"{x:.17g},{y:.17g},{int(self.labels[i, j])}\n")


def boundary_grid(predict_fn, X, step: float = 0.02, margin: float = 0.5) -> BoundaryGrid:
    """Evaluate a batch predictor on a lattice spanning the data + margin, of at most ``MAX_LATTICE_POINTS``."""
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    X = np.asarray(X, dtype=float)
    start, stop = X.min(axis=0) - margin, X.max(axis=0) + margin + step / 2
    with np.errstate(over="ignore"):  # np.arange's lengths, counted before it allocates; inf for a tiny step
        count = float(np.prod(np.ceil((stop - start) / step)))
    if count > MAX_LATTICE_POINTS:
        raise ValueError(f"a step of {step} gives a lattice of {count:.3g} points, more than {MAX_LATTICE_POINTS:,}")
    xs = np.arange(start[0], stop[0], step)
    ys = np.arange(start[1], stop[1], step)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([xx.ravel(), yy.ravel()])
    labels = np.asarray(predict_fn(points), dtype=int).reshape(len(xs), len(ys))
    return BoundaryGrid(xs=xs, ys=ys, labels=labels)


# -- full experiment ---------------------------------------------------------

_CONFIG_DEFAULTS = {
    "n": 100,
    "folds": 5,
    "epochs": 100,
    "exploration_passes": 2,
    "data_seed": 7,
    "cv_seed": 11,
    "fit_seed": 13,
    "noise_moons": 0.3,
    "noise_circles": 0.2,
    "circles_factor": 0.5,
    "jobs": 1,
}

def experiment_config(overrides: dict | None = None) -> dict:
    """Merge overrides into the default experiment config, validating early: each override has its default's type."""
    schema = Keys({}, {key: type(value) for key, value in _CONFIG_DEFAULTS.items()})
    config = {**_CONFIG_DEFAULTS, **checked_value({} if overrides is None else overrides, schema, "config")}
    if config["folds"] < 2:
        raise ValueError("folds must be at least 2")
    if config["n"] < 2 * config["folds"]:
        raise ValueError("n too small for the requested fold count")
    if config["epochs"] < 1:
        raise ValueError("epochs must be at least 1")
    if config["exploration_passes"] < 1 or config["jobs"] < 1:
        raise ValueError("exploration_passes and jobs must be at least 1")
    if not (config["noise_moons"] >= 0 and config["noise_circles"] >= 0):
        raise ValueError("noise_moons and noise_circles must be non-negative and finite")
    if not 0.0 < config["circles_factor"] < 1.0:
        raise ValueError("circles_factor must lie strictly between 0 and 1")
    return config


def build_datasets(config: dict) -> dict[str, Dataset]:
    """The three standardized benchmark datasets for one experiment config."""
    seed = config["data_seed"]
    return {
        "moons": standardize(gen_moons(config["n"], config["noise_moons"], seed)),
        "circles": standardize(
            gen_circles(config["n"], config["noise_circles"], config["circles_factor"], seed + 1)
        ),
        "linear": standardize(gen_linear(config["n"], seed + 2)),
    }


def run_experiment(
    config: dict | None = None,
    out_dir=None,
    linear_grids: dict | None = None,
    engine_grid: list[dict] | None = None,
) -> list[ResultRecord]:
    """Both grid-search steps for every dataset and classifier kind.

    Returns the 24 result records (3 datasets x 4 kinds x 2 stages) in
    reporting order and, when ``out_dir`` is given, writes
    ``results.json`` and ``accuracy_table.csv`` there. Deterministic:
    identical configs produce byte-identical outputs.
    """
    config = experiment_config(config)
    datasets = build_datasets(config)
    records: list[ResultRecord] = []
    for name in DATASET_NAMES:
        ds = datasets[name]
        for kind in KINDS:
            alone = grid_search_linear(
                ds,
                kind,
                grid=None if linear_grids is None else linear_grids[kind],
                n_folds=config["folds"],
                cv_seed=config["cv_seed"],
                fit_seed=config["fit_seed"],
                epochs=config["epochs"],
                dataset_name=name,
            )
            mas = grid_search_mas(
                ds,
                kind,
                linear_params=alone.best_params,
                grid=engine_grid,
                n_folds=config["folds"],
                cv_seed=config["cv_seed"],
                fit_seed=config["fit_seed"],
                passes=config["exploration_passes"],
                jobs=config["jobs"],
                dataset_name=name,
            )
            records.extend([alone, mas])
    if out_dir is not None:
        write_results(records, out_dir)
    return records


def write_results(records: list[ResultRecord], out_dir) -> None:
    """Write ``results.json`` plus the wide ``accuracy_table.csv``."""
    out_dir = Path(out_dir)
    write_json(out_dir / "results.json", [r.to_dict() for r in records])
    cells = {(r.dataset, r.kind, r.stage): f"{r.mean_accuracy:.2f}" for r in records}
    columns = [(name, stage) for name in DATASET_NAMES for stage in (STAGE_ALONE, STAGE_MAS)]
    rows = [["kind", *(f"{name}_{stage.lower()}" for name, stage in columns)]]
    rows += [[kind.value, *(cells.get((name, kind.value, stage), "") for name, stage in columns)] for kind in KINDS]
    with opened(out_dir / "accuracy_table.csv") as f:
        f.writelines(",".join(row) + "\n" for row in rows)
