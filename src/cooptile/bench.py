"""Benchmark harness: stratified CV, two-step grid search, boundary export.

Step 1 tunes each bare linear classifier over its hyperparameter grid by
k-fold cross validation. Step 2 freezes the winning linear parameters,
plants that model inside the tiling engine's agents, and tunes the engine
parameters over their own grid with the same protocol. The full
experiment runs both steps for every dataset/classifier combination and
writes a machine-readable record list plus a compact accuracy table.

Grid cells and folds are embarrassingly parallel; aggregation is
order-independent, so results are identical for any worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import EngineConfig
from .datasets import Dataset, gen_circles, gen_linear, gen_moons, standardize
from .engine import Engine
from .linear import LinearModelConfig, ModelKind

#: Classifier kinds benchmarked, in reporting order.
KINDS = (ModelKind.LOGIT, ModelKind.LINEAR_SVM, ModelKind.PA_I, ModelKind.PA_II)

#: Dataset names in reporting order.
DATASET_NAMES = ("moons", "circles", "linear")

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


def cross_validate(X, Y, folds, fit_predict) -> list[float]:
    """Per-fold accuracies of ``fit_predict(Xtr, Ytr, Xval, fold_idx)``.

    Training indices are everything outside the validation fold.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y)
    all_idx = np.arange(Y.shape[0])
    scores = []
    for i, val in enumerate(folds):
        train = np.setdiff1d(all_idx, val)
        preds = fit_predict(X[train], Y[train], X[val], i)
        scores.append(accuracy(preds, Y[val]))
    return scores


def _derive_seed(*parts: int) -> int:
    """Stable 32-bit seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# -- result records ---------------------------------------------------------


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
        return {
            "dataset": self.dataset,
            "kind": self.kind,
            "stage": self.stage,
            "best_params": self.best_params,
            "fold_accuracies": [float(s) for s in self.fold_accuracies],
            "mean_accuracy": float(self.mean_accuracy),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        return cls(
            dataset=d["dataset"],
            kind=d["kind"],
            stage=d["stage"],
            best_params=d["best_params"],
            fold_accuracies=[float(s) for s in d["fold_accuracies"]],
            mean_accuracy=float(d["mean_accuracy"]),
        )


def _pick_best(per_cell_scores: list[list[float]]) -> tuple[int, list[float], float]:
    """First cell with the highest mean accuracy (grid-order tie-break)."""
    best_ci, best_scores, best_mean = 0, per_cell_scores[0], float(np.mean(per_cell_scores[0]))
    for ci, scores in enumerate(per_cell_scores[1:], start=1):
        mean = float(np.mean(scores))
        if mean > best_mean:
            best_ci, best_scores, best_mean = ci, scores, mean
    return best_ci, best_scores, best_mean


# -- step 1: bare linear classifiers ----------------------------------------


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
    kind = ModelKind(kind)
    if grid is None:
        grid = default_linear_grid(kind)
    folds = kfold_split(ds.Y, n_folds, cv_seed)
    per_cell = []
    for ci, cell in enumerate(grid):

        def fit_predict(Xtr, Ytr, Xval, fold, _cell=cell, _ci=ci):
            model = LinearModelConfig(kind=kind, **_cell).build(Xtr.shape[1])
            model.fit(Xtr, Ytr, epochs=epochs, seed=_derive_seed(fit_seed, _ci, fold))
            return model.predict_batch(Xval)

        per_cell.append(cross_validate(ds.X, ds.Y, folds, fit_predict))
    ci, scores, mean = _pick_best(per_cell)
    return ResultRecord(
        dataset=dataset_name or ds.meta.get("generator", "unknown"),
        kind=kind.value,
        stage=STAGE_ALONE,
        best_params=dict(grid[ci]),
        fold_accuracies=[float(s) for s in scores],
        mean_accuracy=mean,
    )


# -- step 2: the same classifiers inside tiling agents ----------------------


def _mas_cell_scores(payload: tuple) -> tuple[int, list[float]]:
    """Worker: CV scores of one engine grid cell (parallel-safe)."""
    X, Y, folds, model_params, cell, fit_seed, ci, passes = payload
    model_cfg = LinearModelConfig.from_dict(model_params)

    def fit_predict(Xtr, Ytr, Xval, fold):
        cfg = EngineConfig(
            **cell,
            seed=_derive_seed(fit_seed, ci, fold),
            exploration_passes=passes,
        )
        engine = Engine(cfg, model_cfg, dim=Xtr.shape[1])
        engine.train(Xtr, Ytr)
        return engine.predict_batch(Xval)

    return ci, cross_validate(X, Y, folds, fit_predict)


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
    if grid is None:
        grid = default_engine_grid()
    folds = kfold_split(ds.Y, n_folds, cv_seed)
    model_params = {"kind": kind.value, **linear_params}
    payloads = [
        (ds.X, ds.Y, folds, model_params, cell, fit_seed, ci, passes)
        for ci, cell in enumerate(grid)
    ]
    if jobs > 1:
        # imported here: the pool machinery adds about 1.6 MiB to processes that never start one
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, min(4, math.ceil(len(grid) / jobs)))  # a small grid still reaches every worker
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_mas_cell_scores, payloads, chunksize=chunksize))
    else:
        results = [_mas_cell_scores(p) for p in payloads]
    per_cell = [scores for _, scores in sorted(results, key=lambda r: r[0])]
    ci, scores, mean = _pick_best(per_cell)
    return ResultRecord(
        dataset=dataset_name or ds.meta.get("generator", "unknown"),
        kind=kind.value,
        stage=STAGE_MAS,
        best_params={"engine": dict(grid[ci]), "model": dict(linear_params)},
        fold_accuracies=[float(s) for s in scores],
        mean_accuracy=mean,
    )


# -- decision-boundary grids -------------------------------------------------


@dataclass
class BoundaryGrid:
    """Predicted labels on a regular lattice: ``labels[i, j]`` at ``(xs[i], ys[j])``."""

    xs: np.ndarray
    ys: np.ndarray
    labels: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("x1,x2,yhat\n")
            for i, x in enumerate(self.xs):
                for j, y in enumerate(self.ys):
                    f.write(f"{x:.17g},{y:.17g},{int(self.labels[i, j])}\n")


def boundary_grid(predict_fn, X, step: float = 0.02, margin: float = 0.5) -> BoundaryGrid:
    """Evaluate a batch predictor on a lattice spanning the data + margin."""
    if step <= 0:
        raise ValueError("step must be positive")
    X = np.asarray(X, dtype=float)
    xs = np.arange(X[:, 0].min() - margin, X[:, 0].max() + margin + step / 2, step)
    ys = np.arange(X[:, 1].min() - margin, X[:, 1].max() + margin + step / 2, step)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([xx.ravel(), yy.ravel()])
    labels = np.asarray(predict_fn(points), dtype=int).reshape(len(xs), len(ys))
    return BoundaryGrid(xs=xs, ys=ys, labels=labels)


def frontier_midpoints(grid: BoundaryGrid) -> np.ndarray:
    """Midpoints between lattice neighbours with differing labels."""
    points = []
    xs, ys, labels = grid.xs, grid.ys, grid.labels
    diff_x = labels[:-1, :] != labels[1:, :]
    for i, j in zip(*np.nonzero(diff_x)):
        points.append(((xs[i] + xs[i + 1]) / 2.0, ys[j]))
    diff_y = labels[:, :-1] != labels[:, 1:]
    for i, j in zip(*np.nonzero(diff_y)):
        points.append((xs[i], (ys[j] + ys[j + 1]) / 2.0))
    return np.asarray(points, dtype=float).reshape(-1, 2)


def max_line_residual(points: np.ndarray) -> float:
    """Largest orthogonal distance from the total-least-squares line.

    Two or fewer points are always collinear (residual 0); a straight
    frontier keeps this below the lattice step.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if points.shape[0] <= 2:
        return 0.0
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return float(np.abs(centered @ vt[-1]).max())


def encloses_origin(grid: BoundaryGrid) -> bool:
    """True when the origin's label component never reaches the lattice edge.

    Flood-fills same-label cells starting at the cell nearest (0, 0); a
    closed frontier around the origin keeps the fill interior.
    """
    i0 = int(np.abs(grid.xs).argmin())
    j0 = int(np.abs(grid.ys).argmin())
    labels = grid.labels
    target = labels[i0, j0]
    ni, nj = labels.shape
    seen = np.zeros_like(labels, dtype=bool)
    stack = [(i0, j0)]
    seen[i0, j0] = True
    while stack:
        i, j = stack.pop()
        if i == 0 or j == 0 or i == ni - 1 or j == nj - 1:
            return False
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if not seen[a, b] and labels[a, b] == target:
                seen[a, b] = True
                stack.append((a, b))
    return True


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

_CONFIG_INT_KEYS = ("n", "folds", "epochs", "exploration_passes", "data_seed", "cv_seed", "fit_seed", "jobs")


def experiment_config(overrides: dict | None = None) -> dict:
    """Merge overrides into the default experiment config, validating early."""
    config = dict(_CONFIG_DEFAULTS)
    overrides = overrides or {}
    unknown = set(overrides) - set(config)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}; valid keys: {sorted(config)}")
    config.update(overrides)
    for key in _CONFIG_INT_KEYS:
        if not isinstance(config[key], int) or isinstance(config[key], bool):
            raise ValueError(f"config key {key!r} must be an integer, got {config[key]!r}")
    if config["folds"] < 2:
        raise ValueError("folds must be at least 2")
    if config["n"] < 2 * config["folds"]:
        raise ValueError("n too small for the requested fold count")
    if config["epochs"] < 0 or config["exploration_passes"] < 1 or config["jobs"] < 1:
        raise ValueError("epochs must be >= 0, exploration_passes and jobs >= 1")
    for key in ("noise_moons", "noise_circles", "circles_factor"):
        if not isinstance(config[key], (int, float)) or isinstance(config[key], bool):
            raise ValueError(f"config key {key!r} must be a number, got {config[key]!r}")
    if not (0 <= config["noise_moons"] < math.inf and 0 <= config["noise_circles"] < math.inf):
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
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.json", "w") as f:
        json.dump([r.to_dict() for r in records], f, indent=2, sort_keys=True)
        f.write("\n")
    by_key = {(r.dataset, r.kind, r.stage): r for r in records}
    with open(out_dir / "accuracy_table.csv", "w") as f:
        header = ["kind"]
        for name in DATASET_NAMES:
            header += [f"{name}_alone", f"{name}_mas"]
        f.write(",".join(header) + "\n")
        for kind in KINDS:
            row = [kind.value]
            for name in DATASET_NAMES:
                for stage in (STAGE_ALONE, STAGE_MAS):
                    rec = by_key.get((name, kind.value, stage))
                    row.append("" if rec is None else f"{rec.mean_accuracy:.2f}")
            f.write(",".join(row) + "\n")
