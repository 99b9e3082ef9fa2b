"""End-to-end command-line workflows on small inputs."""

import json

import pytest
from click.testing import CliRunner

import cooptile.bench as bench
from cooptile.cli import main
from cooptile.datasets import load_csv
from cooptile.linear import LinearModelConfig


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


def assert_rejected(runner, tmp_path, options, message):
    """``gen-data`` with ``options`` ends in a click error naming ``message``, not a traceback, and writes nothing."""
    result = runner.invoke(main, ["gen-data", "--dataset", "moons", *options, "--out", str(tmp_path / "moons.csv")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output
    assert not (tmp_path / "moons.csv").exists()


class TestGenData:
    def test_writes_loadable_csv_with_manifest(self, runner, tmp_path):
        path = gen(runner, tmp_path, dataset="moons", n=60, standardized=False)
        ds = load_csv(path)
        assert ds.n == 60
        assert ds.meta["generator"] == "moons"
        assert (tmp_path / "moons.csv.json").exists()

    def test_negative_noise_rejected(self, runner, tmp_path):
        assert_rejected(runner, tmp_path, ["--noise", "-1"], "noise must be non-negative and finite")

    def test_single_point_rejected(self, runner, tmp_path):
        assert_rejected(runner, tmp_path, ["--n", "1"], "need at least 2 points")

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

    def test_fit_mas_rejects_a_record_of_another_kind(self, runner, tmp_path):
        data = gen(runner, tmp_path)
        alone = tmp_path / "logit.json"
        result = runner.invoke(main, ["fit-linear", "--data", str(data), "--kind", "logit", "--epochs", "2",
                                      "--out", str(alone)])
        assert result.exit_code == 0, result.output
        mas_out = tmp_path / "mas.json"
        result = runner.invoke(main, ["fit-mas", "--data", str(data), "--kind", "pa1", "--linear-params", str(alone),
                                      "--out", str(mas_out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "Error: --linear-params holds a logit ALONE record, not the pa1 ALONE record" in result.output
        assert not mas_out.exists()

    def test_boundary_rejects_a_model_file_without_its_payload(self, runner, tmp_path):
        data = gen(runner, tmp_path)
        model = tmp_path / "engine.json"
        model.write_text(json.dumps({"type": "engine"}))
        out = tmp_path / "boundary.csv"
        result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "holds no 'snapshot'" in result.output and "Error:" in result.output
        assert not out.exists()

    def test_boundary_names_the_key_a_snapshot_lacks(self, runner, tmp_path):
        data = gen(runner, tmp_path)
        model = tmp_path / "engine.json"
        model.write_text(json.dumps({"type": "engine", "snapshot": {}}))
        out = tmp_path / "boundary.csv"
        result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "Error: snapshot lacks the key 'next_agent_id'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("reshape", ["snapshot", "agent", "region"])
    def test_boundary_rejects_a_snapshot_of_the_wrong_shape(self, runner, tmp_path, reshape):
        # a list for the snapshot, a number for an agent, null for a region: each once a TypeError traceback
        data = gen(runner, tmp_path)
        agent = {"id": 0, "region": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "confidence": 0.0,
                 "model": {"weights": [0.0, 0.0], "bias": 0.0, "step_count": 0}}
        snapshot = {"config": {}, "model_config": {"kind": "pa1"}, "dim": 2, "cycle": 0, "next_agent_id": 2,
                    "agents": [agent, {**agent, "id": 1}]}
        if reshape == "snapshot":
            snapshot = []
        elif reshape == "agent":
            snapshot["agents"][1] = 1
        else:
            snapshot["agents"][1]["region"] = None
        model = tmp_path / "engine.json"
        model.write_text(json.dumps({"type": "engine", "snapshot": snapshot}))
        out = tmp_path / "boundary.csv"
        result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "Error: snapshot is not shaped as snapshot() writes one" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["engine", "linear"])
    def test_boundary_rejects_a_value_its_writer_never_writes(self, runner, tmp_path, kind):
        # a negative cycle counter, or a key a linear model does not hold: each once loaded without a word
        data = gen(runner, tmp_path)
        if kind == "engine":
            agent = {"id": 0, "region": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "confidence": 0.0,
                     "model": {"weights": [0.0, 0.0], "bias": 0.0, "step_count": 0}}
            payload = {"snapshot": {"config": {}, "model_config": {"kind": "pa1"}, "dim": 2, "cycle": -1,
                                    "next_agent_id": 1, "agents": [agent]}}
            message = "Error: cycle must be a non-negative integer, got -1"
        else:
            payload = {"model": {**LinearModelConfig(kind="pa1").build(2).to_dict(), "momentum": 0.9}}
            message = "Error: a linear model holds no key ['momentum']"
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"type": kind, **payload}))
        out = tmp_path / "boundary.csv"
        result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert message in result.output
        assert not out.exists()

    def test_fit_mas_rejects_best_params_that_are_not_an_object(self, runner, tmp_path):
        data = gen(runner, tmp_path)
        alone = tmp_path / "alone.json"
        result = runner.invoke(main, ["fit-linear", "--data", str(data), "--kind", "pa1", "--epochs", "2",
                                      "--out", str(alone)])
        assert result.exit_code == 0, result.output
        alone.write_text(json.dumps({**json.loads(alone.read_text()), "best_params": [1]}))
        mas_out = tmp_path / "mas.json"
        result = runner.invoke(main, ["fit-mas", "--data", str(data), "--kind", "pa1", "--linear-params", str(alone),
                                      "--out", str(mas_out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "Error: a result record's best_params is a JSON object, got list" in result.output
        assert not mas_out.exists()


class TestReproduce:
    def test_invalid_config_fails_before_compute(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        result = runner.invoke(main, [
            "reproduce", "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "Error: unknown config keys" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,option,message", [
        ({"folds": 1}, [], "folds must be at least 2"),
        ({}, ["--jobs", "0"], "epochs must be >= 0, exploration_passes and jobs >= 1"),
        ([1], ["--jobs", "2"], "config must be a JSON object"),
    ])
    def test_bad_values_rejected_without_traceback(self, runner, tmp_path, config, option, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["reproduce", "--config", str(path), *option, "--out", str(tmp_path / "out")])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output
        assert not (tmp_path / "out").exists()

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
