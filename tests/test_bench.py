"""Cross-validation protocol, grid search, and boundary-grid checks."""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import cooptile.bench as bench
from cooptile.bench import (
    BoundaryGrid,
    ResultRecord,
    accuracy,
    _cell_scores,
    _derive_seed,
    boundary_grid,
    default_engine_grid,
    default_linear_grid,
    encloses_origin,
    experiment_config,
    frontier_midpoints,
    kfold_split,
    grid_search_linear,
    grid_search_mas,
    max_line_residual,
    run_experiment,
)
from cooptile.datasets import Dataset, gen_linear, standardize
from cooptile.linear import LinearModelConfig, ModelKind


class TestKfoldSplit:
    def test_hundred_points_five_folds(self):
        labels = np.array([0] * 50 + [1] * 50)
        folds = kfold_split(labels, 5, seed=0)
        assert len(folds) == 5
        assert all(len(f) == 20 for f in folds)

    def test_union_is_everything_and_disjoint(self):
        labels = np.array([0] * 33 + [1] * 34)
        folds = kfold_split(labels, 5, seed=3)
        merged = np.concatenate(folds)
        assert len(merged) == 67
        assert len(np.unique(merged)) == 67

    def test_stratification_within_one_sample(self):
        labels = np.array([0] * 60 + [1] * 40)
        folds = kfold_split(labels, 5, seed=1)
        for fold in folds:
            ones = int(labels[fold].sum())
            assert abs(ones - 8) <= 1  # global ratio is 8 per fold of 20

    def test_fold_sizes_within_one(self):
        labels = np.array([0] * 7 + [1] * 6)
        folds = kfold_split(labels, 5, seed=2)
        sizes = sorted(len(f) for f in folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_small_class_rejected(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(ValueError):
            kfold_split(labels, 5, seed=0)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, k):
        with pytest.raises(ValueError, match="at least 2 folds"):
            kfold_split(np.array([0, 1] * 10), k)

    def test_deterministic(self):
        labels = np.array([0, 1] * 30)
        a = kfold_split(labels, 5, seed=9)
        b = kfold_split(labels, 5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 1], [0, 0]) == 0.0

    def test_fraction(self):
        labels = np.zeros(100, dtype=int)
        preds = labels.copy()
        preds[:17] = 1
        assert accuracy(preds, labels) == 0.83

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])


class TestCrossValidate:
    """``_cell_scores``, the cross-validation loop of one grid cell, with a fake ``train``."""

    def test_validation_rows_never_seen_in_training(self):
        ds = standardize(gen_linear(60, seed=4))
        folds = kfold_split(ds.Y, 5, seed=0)
        seen, seeds = [], []

        def spy(cell, Xtr, Ytr, seed):
            seeds.append(seed)

            def predict_batch(Xval):
                seen.append((Xtr.copy(), Xval.copy()))
                return np.zeros(len(Xval), dtype=int)

            return SimpleNamespace(predict_batch=predict_batch)

        _cell_scores(ds.X, ds.Y, folds, spy, 3, 2, {})
        assert len(seen) == 5 and seeds == [_derive_seed(3, 2, fold) for fold in range(5)]
        for Xtr, Xval in seen:
            train_rows = {tuple(r) for r in Xtr}
            assert all(tuple(r) not in train_rows for r in Xval)

    def test_perfect_predictor_scores_one(self):
        ds = standardize(gen_linear(40, seed=4))
        folds = kfold_split(ds.Y, 5, seed=0)
        lookup = {tuple(x): y for x, y in zip(ds.X, ds.Y)}

        def oracle(cell, Xtr, Ytr, seed):
            return SimpleNamespace(predict_batch=lambda Xval: np.array([lookup[tuple(x)] for x in Xval]))

        assert _cell_scores(ds.X, ds.Y, folds, oracle, 0, 0, {}) == [1.0] * 5


class TestGrids:
    def test_linear_grid_sizes(self):
        assert len(default_linear_grid(ModelKind.LOGIT)) == 9
        assert len(default_linear_grid(ModelKind.LINEAR_SVM)) == 9
        assert len(default_linear_grid(ModelKind.PA_I)) == 3
        assert len(default_linear_grid(ModelKind.PA_II)) == 3

    def test_engine_grid_size(self):
        grid = default_engine_grid()
        assert len(grid) == 108
        assert len({json.dumps(c, sort_keys=True) for c in grid}) == 108


class TestGridSearch:
    @staticmethod
    def easy_dataset():
        # trivially separable: every grid cell reaches accuracy 1.0
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(-5, 0.2, (30, 2)), rng.normal(5, 0.2, (30, 2))])
        Y = np.array([0] * 30 + [1] * 30)
        return Dataset(X, Y, meta={"generator": "easy"})

    def test_single_cell_grid_wins(self):
        ds = self.easy_dataset()
        record = grid_search_linear(ds, ModelKind.PA_I, grid=[{"aggressiveness_c": 2.0}],
                                    epochs=5)
        assert record.best_params == {"aggressiveness_c": 2.0}
        assert record.stage == "ALONE"
        assert len(record.fold_accuracies) == 5

    def test_tie_break_keeps_first_grid_cell(self):
        ds = self.easy_dataset()
        record = grid_search_linear(ds, ModelKind.PA_I, epochs=5)
        assert record.mean_accuracy == 1.0
        assert record.best_params == {"aggressiveness_c": 0.5}  # first cell of the grid

    def test_mean_matches_folds(self):
        ds = self.easy_dataset()
        record = grid_search_linear(ds, ModelKind.LOGIT, epochs=5)
        assert record.mean_accuracy == pytest.approx(
            float(np.mean(record.fold_accuracies)), abs=1e-12
        )

    def test_mas_search_records_engine_and_model_params(self):
        ds = self.easy_dataset()
        record = grid_search_mas(
            ds,
            ModelKind.PA_I,
            linear_params={"aggressiveness_c": 1.0},
            grid=[default_engine_grid()[0]],
            passes=1,
        )
        assert record.stage == "MAS"
        assert record.best_params["model"] == {"aggressiveness_c": 1.0}
        assert record.best_params["engine"]["init_radius"] == 0.1
        assert record.mean_accuracy == 1.0

    def test_parallel_matches_serial(self):
        ds = self.easy_dataset()
        grid = default_engine_grid()[:6]
        serial = grid_search_mas(ds, ModelKind.PA_I, {"aggressiveness_c": 1.0},
                                 grid=grid, passes=1, jobs=1)
        parallel = grid_search_mas(ds, ModelKind.PA_I, {"aggressiveness_c": 1.0},
                                   grid=grid, passes=1, jobs=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_small_grid_parallel_matches_serial(self):
        # three cells over two workers: chunks of two and one
        ds = self.easy_dataset()
        grid = default_engine_grid()[:3]
        serial = grid_search_mas(ds, ModelKind.PA_I, {"aggressiveness_c": 1.0},
                                 grid=grid, passes=1, jobs=1)
        parallel = grid_search_mas(ds, ModelKind.PA_I, {"aggressiveness_c": 1.0},
                                   grid=grid, passes=1, jobs=2)
        assert serial.to_dict() == parallel.to_dict()


class TestBoundaryGrid:
    def test_constant_model_yields_single_class(self):
        model = LinearModelConfig(kind=ModelKind.LOGIT).build(2)
        model.bias = 1.0
        X = np.array([[-1.0, -1.0], [1.0, 1.0]])
        grid = boundary_grid(model.predict_batch, X, step=0.1)
        assert np.all(grid.labels == 1)
        assert len(frontier_midpoints(grid)) == 0
        assert max_line_residual(frontier_midpoints(grid)) == 0.0

    def test_linear_model_has_straight_frontier(self):
        model = LinearModelConfig(kind=ModelKind.LOGIT).build(2)
        model.weights = np.array([1.0, 0.35])
        model.bias = -0.1
        X = np.array([[-1.5, -1.5], [1.5, 1.5]])
        grid = boundary_grid(model.predict_batch, X, step=0.02)
        pts = frontier_midpoints(grid)
        assert len(pts) > 10
        assert max_line_residual(pts) < 0.02

    def test_lattice_covers_data_with_margin(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0]])
        grid = boundary_grid(lambda P: np.zeros(len(P), dtype=int) + 1, X, step=0.5, margin=0.5)
        assert grid.xs[0] <= -0.5 and grid.xs[-1] >= 1.5
        assert grid.ys[0] <= -0.5 and grid.ys[-1] >= 2.5

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            boundary_grid(lambda P: np.zeros(len(P)), np.zeros((2, 2)), step=0.0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_rejects_a_step_that_is_not_finite(self, step):
        # each once reached np.arange, which failed with "arange: cannot compute length"
        with pytest.raises(ValueError, match="step must be positive and finite"):
            boundary_grid(lambda P: np.zeros(len(P)), np.zeros((2, 2)), step=step)

    def test_rejects_a_lattice_over_the_cap_before_allocating(self, monkeypatch):
        # a step of 1e-7 once ended in numpy's "Unable to allocate 20.2 PiB" MemoryError
        def never(P):
            raise AssertionError("predicted on a lattice over the cap")

        message = "a step of 1e-07 gives a lattice of 1e+14 points, more than 10,000,000"
        with pytest.raises(ValueError, match=re.escape(message)):
            boundary_grid(never, np.zeros((2, 2)), step=1e-7)
        # the count is np.arange's: 3 x 3 points at step 0.5 from -0.5 to below 0.75
        monkeypatch.setattr(bench, "MAX_LATTICE_POINTS", 9)
        assert boundary_grid(lambda P: np.zeros(len(P), dtype=int), np.zeros((2, 2)), step=0.5).labels.shape == (3, 3)
        monkeypatch.setattr(bench, "MAX_LATTICE_POINTS", 8)
        with pytest.raises(ValueError, match="a lattice of 9 points, more than 8$"):
            boundary_grid(never, np.zeros((2, 2)), step=0.5)

    def test_encloses_origin_true_for_disk(self):
        xs = np.arange(-2, 2.01, 0.1)
        ys = np.arange(-2, 2.01, 0.1)
        labels = np.array([[1 if x * x + y * y < 1.0 else 0 for y in ys] for x in xs])
        assert encloses_origin(BoundaryGrid(xs, ys, labels))

    def test_encloses_origin_false_for_half_plane(self):
        xs = np.arange(-2, 2.01, 0.1)
        ys = np.arange(-2, 2.01, 0.1)
        labels = np.array([[1 if x >= 0 else 0 for y in ys] for x in xs])
        assert not encloses_origin(BoundaryGrid(xs, ys, labels))

    def test_encloses_origin_false_for_constant(self):
        xs = np.arange(-1, 1.01, 0.1)
        ys = np.arange(-1, 1.01, 0.1)
        labels = np.ones((len(xs), len(ys)), dtype=int)
        assert not encloses_origin(BoundaryGrid(xs, ys, labels))

    def test_csv_export(self, tmp_path):
        xs = np.array([0.0, 1.0])
        ys = np.array([0.0, 1.0])
        grid = BoundaryGrid(xs, ys, np.array([[0, 1], [1, 0]]))
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,yhat"
        assert len(lines) == 5


class TestExperimentConfig:
    def test_defaults(self):
        config = experiment_config()
        assert config["n"] == 100 and config["folds"] == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="config holds the unknown key 'bogus'"):
            experiment_config({"bogus": 1})

    def test_bad_types_rejected(self):
        with pytest.raises(ValueError):
            experiment_config({"n": "many"})
        with pytest.raises(ValueError):
            experiment_config({"circles_factor": 1.5})
        with pytest.raises(ValueError):
            experiment_config({"exploration_passes": 0})

    @pytest.mark.parametrize("overrides,match", [
        ({"folds": 1}, "folds"),
        ({"folds": 0}, "folds"),
        ({"folds": -2}, "config.folds must be a non-negative integer, got -2"),
        ({"noise_moons": -0.1}, "non-negative"),
        ({"noise_circles": -1}, "non-negative"),
        ({"noise_moons": math.nan}, "config.noise_moons must be a finite number, got nan"),
        ({"noise_circles": math.inf}, "config.noise_circles must be a finite number, got inf"),
    ])
    def test_out_of_range_values_rejected(self, overrides, match):
        # each used to pass validation and fail later (or, for noise, act as 0)
        with pytest.raises(ValueError, match=match):
            experiment_config(overrides)


class TestRunExperiment:
    MINI = {"n": 40, "epochs": 3, "exploration_passes": 1, "jobs": 1}
    MINI_LINEAR_GRIDS = {
        kind: [default_linear_grid(kind)[0]]
        for kind in (ModelKind.LOGIT, ModelKind.LINEAR_SVM, ModelKind.PA_I, ModelKind.PA_II)
    }
    MINI_ENGINE_GRID = [default_engine_grid()[40]]

    def run_mini(self, out_dir):
        return run_experiment(
            dict(self.MINI),
            out_dir=out_dir,
            linear_grids=self.MINI_LINEAR_GRIDS,
            engine_grid=self.MINI_ENGINE_GRID,
        )

    def test_emits_24_records_and_files(self, tmp_path):
        records = self.run_mini(tmp_path / "out")
        assert len(records) == 24
        combos = {(r.dataset, r.kind, r.stage) for r in records}
        assert len(combos) == 24
        assert (tmp_path / "out" / "results.json").exists()
        table = (tmp_path / "out" / "accuracy_table.csv").read_text().splitlines()
        assert table[0] == (
            "kind,moons_alone,moons_mas,circles_alone,circles_mas,linear_alone,linear_mas"
        )
        assert len(table) == 5

    def test_reruns_are_byte_identical(self, tmp_path):
        self.run_mini(tmp_path / "a")
        self.run_mini(tmp_path / "b")
        assert (tmp_path / "a" / "results.json").read_bytes() == (
            tmp_path / "b" / "results.json"
        ).read_bytes()
        assert (tmp_path / "a" / "accuracy_table.csv").read_bytes() == (
            tmp_path / "b" / "accuracy_table.csv"
        ).read_bytes()

    def test_record_roundtrip(self, tmp_path):
        records = self.run_mini(tmp_path / "out")
        loaded = [ResultRecord.from_dict(d) for d in json.loads((tmp_path / "out" / "results.json").read_text())]
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_record_reader_wants_exactly_the_fields(self):
        saved = ResultRecord("moons", "pa1", "ALONE", {"aggressiveness_c": 1.0}, [0.5, 1.0], 0.75).to_dict()
        assert ResultRecord.from_dict(saved).to_dict() == saved
        missing = {k: v for k, v in saved.items() if k != "kind"}
        for bad, message in ((missing, "record lacks the key 'kind'"),
                             ({**saved, "extra": 1}, "record holds the unknown key 'extra'"),
                             (saved["best_params"], "record lacks the key 'dataset'"),
                             ([saved], "record must be a JSON object, got list")):
            with pytest.raises(ValueError, match=re.escape(message)):
                ResultRecord.from_dict(bad)
        for bad in ([1], None, "pa1"):
            with pytest.raises(ValueError, match=f"record.best_params must be a JSON object, got {type(bad).__name__}"):
                ResultRecord.from_dict({**saved, "best_params": bad})
