"""End-to-end command-line workflows on small inputs."""

import json

import pytest
from click.testing import CliRunner

import cooptile.bench as bench
from cooptile.cli import main
from cooptile.datasets import load_csv


@pytest.fixture
def runner():
    return CliRunner()


def gen(runner, tmp_path, dataset="linear", n=40, seed=1, standardized=True):
    path = tmp_path / f"{dataset}.csv"
    args = ["gen-data", "--dataset", dataset, "--n", str(n), "--seed", str(seed),
            "--out", str(path)]
    if standardized:
        args.append("--standardize")
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return path


class TestGenData:
    def test_writes_loadable_csv_with_manifest(self, runner, tmp_path):
        path = gen(runner, tmp_path, dataset="moons", n=60, standardized=False)
        ds = load_csv(path)
        assert ds.n == 60
        assert ds.meta["generator"] == "moons"
        assert (tmp_path / "moons.csv.json").exists()

    def test_negative_noise_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-data", "--dataset", "moons", "--noise", "-1",
                                      "--out", str(tmp_path / "moons.csv")])
        assert result.exit_code != 0 and isinstance(result.exception, ValueError)
        assert not (tmp_path / "moons.csv").exists()

    def test_standardize_flag(self, runner, tmp_path):
        ds = load_csv(gen(runner, tmp_path, dataset="circles", n=50))
        assert abs(float(ds.X.mean())) < 1e-9


class TestFitCommands:
    def test_fit_linear_then_boundary(self, runner, tmp_path):
        data = gen(runner, tmp_path)
        out = tmp_path / "alone.json"
        model_out = tmp_path / "model.json"
        result = runner.invoke(main, [
            "fit-linear", "--data", str(data), "--kind", "pa1", "--cv", "5",
            "--seed", "3", "--epochs", "5", "--out", str(out),
            "--model-out", str(model_out),
        ])
        assert result.exit_code == 0, result.output
        record = json.loads(out.read_text())
        assert record["stage"] == "ALONE" and len(record["fold_accuracies"]) == 5
        boundary_csv = tmp_path / "boundary.csv"
        result = runner.invoke(main, [
            "boundary", "--model", str(model_out), "--data", str(data),
            "--step", "0.1", "--out", str(boundary_csv),
        ])
        assert result.exit_code == 0, result.output
        lines = boundary_csv.read_text().splitlines()
        assert lines[0] == "x1,x2,yhat"
        assert len(lines) > 100

    def test_fit_mas_with_trace_and_engine_out(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "default_engine_grid", lambda: [
            {"init_radius": 0.2, "overlap_threshold": 0.5, "exclude_points": True,
             "resize_factor": 0.1, "reward_weight": 1.0, "penalty_weight": 1.0},
        ])
        data = gen(runner, tmp_path)
        alone = tmp_path / "alone.json"
        result = runner.invoke(main, [
            "fit-linear", "--data", str(data), "--kind", "pa1", "--epochs", "5",
            "--out", str(alone),
        ])
        assert result.exit_code == 0, result.output
        mas_out = tmp_path / "mas.json"
        engine_out = tmp_path / "engine.json"
        trace = tmp_path / "trace.jsonl"
        result = runner.invoke(main, [
            "fit-mas", "--data", str(data), "--kind", "pa1",
            "--linear-params", str(alone), "--passes", "1",
            "--out", str(mas_out), "--engine-out", str(engine_out),
            "--trace", str(trace),
        ])
        assert result.exit_code == 0, result.output
        record = json.loads(mas_out.read_text())
        assert record["stage"] == "MAS"
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(lines) == 40  # one cycle per observation
        saved = json.loads(engine_out.read_text())
        assert saved["type"] == "engine" and saved["snapshot"]["agents"]
        boundary_csv = tmp_path / "mas_boundary.csv"
        result = runner.invoke(main, [
            "boundary", "--model", str(engine_out), "--data", str(data),
            "--step", "0.1", "--out", str(boundary_csv),
        ])
        assert result.exit_code == 0, result.output


class TestReproduce:
    def test_invalid_config_fails_before_compute(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        result = runner.invoke(main, [
            "reproduce", "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code != 0
        assert "unknown config" in str(result.exception or result.output)

    def test_mini_reproduce(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench, "default_linear_grid", lambda kind: [bench_default_cell(kind)]
        )
        monkeypatch.setattr(bench, "default_engine_grid", lambda: [
            {"init_radius": 0.2, "overlap_threshold": 0.5, "exclude_points": False,
             "resize_factor": 0.1, "reward_weight": 1.0, "penalty_weight": 1.0},
        ])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 40, "epochs": 3, "exploration_passes": 1}))
        result = runner.invoke(main, [
            "reproduce", "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 0, result.output
        records = json.loads((tmp_path / "out" / "results.json").read_text())
        assert len(records) == 24
        assert (tmp_path / "out" / "accuracy_table.csv").exists()


def bench_default_cell(kind):
    from cooptile.linear import ModelKind

    if kind in (ModelKind.LOGIT, ModelKind.LINEAR_SVM):
        return {"alpha_reg": 0.001, "penalty": "l2"}
    return {"aggressiveness_c": 1.0}
