"""End-to-end command-line workflows on small inputs."""

import json

import pytest
from click.testing import CliRunner

import cooptile.bench as bench
from cooptile.agents import EngineConfig
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


def assert_rejected(runner, tmp_path, options, message, dataset="moons"):
    """``gen-data`` with ``options`` ends in a click error naming ``message``, not a traceback, and writes nothing."""
    out = tmp_path / f"{dataset}.csv"
    result = runner.invoke(main, ["gen-data", "--dataset", dataset, *options, "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output
    assert not out.exists()


def assert_boundary_rejected(runner, tmp_path, step, message):
    """``boundary --step step`` on a fitted linear model ends in a click error naming ``message`` and writes
    nothing."""
    data = gen(runner, tmp_path)
    model = tmp_path / "model.json"
    result = runner.invoke(main, ["fit-linear", "--data", str(data), "--kind", "pa1", "--epochs", "1",
                                  "--out", str(tmp_path / "alone.json"), "--model-out", str(model)])
    assert result.exit_code == 0, result.output
    out = tmp_path / "boundary.csv"
    result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--step", step,
                                  "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output
    assert not out.exists()


class TestGenData:
    def test_writes_loadable_csv_with_manifest(self, runner, tmp_path):
        path = gen(runner, tmp_path, dataset="moons", n=60, standardized=False)
        ds = load_csv(path)
        assert ds.n == 60
        assert ds.meta["generator"] == "moons"
        assert (tmp_path / "moons.csv.json").exists()

    def test_negative_noise_rejected(self, runner, tmp_path):
        assert_rejected(runner, tmp_path, ["--noise", "-1"], "noise must be non-negative and finite")

    @pytest.mark.parametrize("dataset,options,message", [
        ("linear", ["--noise", "0.1"], "--noise does not apply to the linear dataset"),
        ("moons", ["--factor", "0.3"], "--factor applies to circles only, not to the moons dataset"),
        ("linear", ["--factor", "0.5"], "--factor applies to circles only, not to the linear dataset"),
    ])
    def test_an_option_the_generator_ignores_is_rejected(self, runner, tmp_path, dataset, options, message):
        # each once wrote its file, the value reaching neither the points nor the manifest
        assert_rejected(runner, tmp_path, options, message, dataset)

    @pytest.mark.parametrize("options,factor", [([], 0.5), (["--factor", "0.3"], 0.3)])
    def test_circles_factor_reaches_the_manifest(self, runner, tmp_path, options, factor):
        path = tmp_path / "circles.csv"
        result = runner.invoke(main, ["gen-data", "--dataset", "circles", *options, "--out", str(path)])
        assert result.exit_code == 0, result.output
        assert load_csv(path).meta["factor"] == factor

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
        # once exited 2 with a usage text
        data = gen(runner, tmp_path)
        model = tmp_path / "engine.json"
        model.write_text(json.dumps({"type": "engine"}))
        out = tmp_path / "boundary.csv"
        result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"Error: {model} lacks the key 'snapshot'" in result.output and "Usage:" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("saved,message", [
        ({"type": "svm", "model": {}}, ": type must be one of ['engine', 'linear'], got 'svm'"),
        ({"type": "engine", "model": {}}, " lacks the key 'snapshot'"),
        ({"model": {}}, " lacks the key 'type'"),
        ({"type": "linear", "model": {}, "weights": []}, " holds the unknown key 'weights'"),
    ], ids=["unknown_type", "payload_of_another_type", "no_type", "unknown_key"])
    def test_boundary_rejects_a_model_file_of_no_known_type(self, runner, tmp_path, saved, message):
        # an unknown type once exited 2 with a usage text
        data = gen(runner, tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(saved))
        out = tmp_path / "boundary.csv"
        result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"Error: {model}{message}" in result.output and "Usage:" not in result.output
        assert not out.exists()

    def test_boundary_names_the_key_a_snapshot_lacks(self, runner, tmp_path):
        data = gen(runner, tmp_path)
        model = tmp_path / "engine.json"
        model.write_text(json.dumps({"type": "engine", "snapshot": {}}))
        out = tmp_path / "boundary.csv"
        result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "Error: snapshot lacks the key 'config'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("reshape", ["snapshot", "agent", "region"])
    def test_boundary_rejects_a_snapshot_of_the_wrong_shape(self, runner, tmp_path, reshape):
        # a list for the snapshot, a number for an agent, null for a region: each once a TypeError traceback
        data = gen(runner, tmp_path)
        agent = {"id": 0, "region": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "confidence": 0.0,
                 "model": {"weights": [0.0, 0.0], "bias": 0.0, "step_count": 0}}
        snapshot = {"config": EngineConfig().to_dict(), "model_config": LinearModelConfig(kind="pa1").to_dict(),
                    "dim": 2, "cycle": 0, "next_agent_id": 2, "agents": [agent, {**agent, "id": 1}]}
        if reshape == "snapshot":
            snapshot, message = [], "snapshot must be a JSON object, got list"
        elif reshape == "agent":
            snapshot["agents"][1], message = 1, "snapshot.agents[1] must be a JSON object, got int"
        else:
            snapshot["agents"][1]["region"] = None
            message = "snapshot.agents[1].region must be a JSON object, got NoneType"
        model = tmp_path / "engine.json"
        model.write_text(json.dumps({"type": "engine", "snapshot": snapshot}))
        out = tmp_path / "boundary.csv"
        result = runner.invoke(main, ["boundary", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["engine", "linear"])
    def test_boundary_rejects_a_value_its_writer_never_writes(self, runner, tmp_path, kind):
        # a negative cycle counter, or a key a linear model does not hold: each once loaded without a word
        data = gen(runner, tmp_path)
        if kind == "engine":
            agent = {"id": 0, "region": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "confidence": 0.0,
                     "model": {"weights": [0.0, 0.0], "bias": 0.0, "step_count": 0}}
            payload = {"snapshot": {"config": EngineConfig().to_dict(),
                                    "model_config": LinearModelConfig(kind="pa1").to_dict(), "dim": 2, "cycle": -1,
                                    "next_agent_id": 1, "agents": [agent]}}
            message = "Error: snapshot.cycle must be a non-negative integer, got -1"
        else:
            payload = {"model": {**LinearModelConfig(kind="pa1").build(2).to_dict(), "momentum": 0.9}}
            message = "Error: model holds the unknown key 'momentum'"
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
        assert "Error: record.best_params must be a JSON object, got list" in result.output
        assert not mas_out.exists()

    @pytest.mark.parametrize("best_params,message", [
        ({"aggressiveness_c": 1.0, "momentum": 0.9}, "record.best_params holds the unknown key 'momentum'"),
        ({"aggressiveness_c": "1.0"}, "record.best_params: aggressiveness_c must be a number, got '1.0'"),
    ], ids=["unknown_key", "string"])
    def test_fit_mas_rejects_best_params_fit_linear_never_writes(self, runner, tmp_path, best_params, message):
        # the unknown key was once dropped without a word, and the string ended in a TypeError's traceback
        data = gen(runner, tmp_path)
        alone = tmp_path / "alone.json"
        record = bench.ResultRecord("linear", "pa1", "ALONE", best_params, [1.0] * 5, 1.0)
        alone.write_text(json.dumps(record.to_dict()))
        mas_out = tmp_path / "mas.json"
        result = runner.invoke(main, ["fit-mas", "--data", str(data), "--kind", "pa1", "--linear-params", str(alone),
                                      "--out", str(mas_out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output
        assert not mas_out.exists()

    def test_fit_mas_rejects_zero_jobs(self, runner, tmp_path):
        # once ran serially without a word
        data = gen(runner, tmp_path)
        alone = tmp_path / "alone.json"
        record = bench.ResultRecord("linear", "pa1", "ALONE", {"aggressiveness_c": 1.0}, [1.0] * 5, 1.0)
        alone.write_text(json.dumps(record.to_dict()))
        mas_out = tmp_path / "mas.json"
        result = runner.invoke(main, ["fit-mas", "--data", str(data), "--kind", "pa1", "--linear-params", str(alone),
                                      "--jobs", "0", "--out", str(mas_out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "Error: jobs must be at least 1, got 0" in result.output
        assert not mas_out.exists()

    @pytest.mark.parametrize("manifest,options,message", [
        ("[]", [], "linear.csv.json must be a JSON object, got list"),
        (None, ["--epochs", "-3"], "epochs must be a non-negative integer, got -3"),
    ], ids=["list_manifest", "negative_epochs"])
    def test_fit_linear_rejects_a_value_nothing_writes(self, runner, tmp_path, manifest, options, message):
        # a list manifest once ended in an AttributeError's traceback, and -3 epochs trained nothing
        data = gen(runner, tmp_path)
        if manifest is not None:
            (tmp_path / "linear.csv.json").write_text(manifest)
        out = tmp_path / "alone.json"
        result = runner.invoke(main, ["fit-linear", "--data", str(data), "--kind", "pa1", *options, "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"Error: {tmp_path / message if manifest else message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_boundary_rejects_a_step_that_is_not_finite(self, runner, tmp_path, step):
        # once "Error: arange: cannot compute length"
        assert_boundary_rejected(runner, tmp_path, step, "step must be positive and finite")

    def test_boundary_refuses_a_lattice_over_the_cap(self, runner, tmp_path):
        # once a MemoryError traceback: "Unable to allocate 20.2 PiB"
        assert_boundary_rejected(runner, tmp_path, "1e-7", "a step of 1e-07 gives a lattice of")


class TestSavedFiles:
    """Every command reads its JSON files by ``linear.read_json`` and writes every output by ``linear.opened``."""

    @pytest.mark.parametrize("reader", ["model", "linear_params", "config", "manifest"])
    def test_a_file_that_is_not_json_is_named(self, runner, tmp_path, reader):
        # each once ended in "Error: Expecting value: line 1 column 1 (char 0)", naming no file
        data = gen(runner, tmp_path)
        broken = tmp_path / ("linear.csv.json" if reader == "manifest" else "broken.json")
        broken.write_text("not json\n")
        out = tmp_path / "out"
        args = {
            "model": ["boundary", "--model", str(broken), "--data", str(data), "--out", str(out)],
            "linear_params": ["fit-mas", "--data", str(data), "--kind", "pa1", "--linear-params", str(broken),
                              "--out", str(out)],
            "config": ["reproduce", "--config", str(broken), "--out", str(out)],
            "manifest": ["fit-linear", "--data", str(data), "--kind", "pa1", "--out", str(out)],
        }[reader]
        result = runner.invoke(main, args)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"Error: {broken}: Expecting value: line 1 column 1 (char 0)" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("content,message", [
        (b"x1,x2,y\n0.5,\xff,1\n", ": 'utf-8' codec can't decode byte 0xff"),
        (b"x1,x2,y\n0.5,nan,1\n", ": line 2: coordinates must be finite"),
    ], ids=["not_utf8", "nan"])
    def test_a_dataset_it_cannot_read_is_named(self, runner, tmp_path, content, message):
        # these once ended in errors naming neither the file nor the line
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["fit-linear", "--data", str(data), "--kind", "pa1", "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"Error: {data}{message}" in result.output
        assert not out.exists()

    def test_every_output_option_creates_missing_directories(self, runner, tmp_path, monkeypatch):
        # gen-data --out, fit-mas --trace and boundary --out each once ended in a FileNotFoundError
        monkeypatch.setattr(bench, "default_linear_grid", lambda kind: [bench_default_cell(kind)])
        monkeypatch.setattr(bench, "default_engine_grid", lambda: [
            {"init_radius": 0.2, "overlap_threshold": 0.5, "exclude_points": True,
             "resize_factor": 0.1, "reward_weight": 1.0, "penalty_weight": 1.0},
        ])
        new = {name: tmp_path / name / "deeper" / f"{name}.out" for name in (
            "data", "alone", "model", "mas", "engine", "trace", "boundary", "boundary_linear")}
        commands = [
            ["gen-data", "--dataset", "circles", "--n", "40", "--standardize", "--out", new["data"]],
            ["fit-linear", "--data", new["data"], "--kind", "pa1", "--epochs", "2", "--out", new["alone"],
             "--model-out", new["model"]],
            ["fit-mas", "--data", new["data"], "--kind", "pa1", "--linear-params", new["alone"], "--passes", "1",
             "--out", new["mas"], "--engine-out", new["engine"], "--trace", new["trace"]],
            ["boundary", "--model", new["engine"], "--data", new["data"], "--step", "0.5", "--out", new["boundary"]],
            ["boundary", "--model", new["model"], "--data", new["data"], "--step", "0.5",
             "--out", new["boundary_linear"]],
        ]
        for command in commands:
            result = runner.invoke(main, [str(arg) for arg in command])
            assert result.exit_code == 0, result.output
        assert all(path.stat().st_size > 0 for path in new.values())
        assert (tmp_path / "data" / "deeper" / "data.out.json").exists()  # the manifest beside the CSV
        assert len(new["trace"].read_text().splitlines()) == 40


class TestReproduce:
    def test_invalid_config_fails_before_compute(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        result = runner.invoke(main, [
            "reproduce", "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "Error: config holds the unknown key 'bogus_key'" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,option,message", [
        ({"folds": 1}, [], "folds must be at least 2"),
        ({}, ["--jobs", "0"], "exploration_passes and jobs must be at least 1"),
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
        out = tmp_path / "new" / "out"  # created with its parent
        result = runner.invoke(main, ["reproduce", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = json.loads((out / "results.json").read_text())
        assert len(records) == 24
        table = (out / "accuracy_table.csv").read_text()
        assert table.startswith("kind,moons_alone,moons_mas,") and len(table.splitlines()) == 5
        assert result.output.endswith(table)  # the command prints the table it writes


def bench_default_cell(kind):
    from cooptile.linear import ModelKind

    if kind in (ModelKind.LOGIT, ModelKind.LINEAR_SVM):
        return {"alpha_reg": 0.001, "penalty": "l2"}
    return {"aggressiveness_c": 1.0}
