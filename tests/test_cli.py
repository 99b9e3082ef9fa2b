"""End-to-end command-line workflows on small inputs."""

import json
from pathlib import Path

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


class TestGenData:
    def test_writes_loadable_csv_with_manifest(self, runner, tmp_path):
        path = gen(runner, tmp_path, dataset="moons", n=60, standardized=False)
        ds = load_csv(path)
        assert ds.n == 60
        assert ds.meta["generator"] == "moons"
        assert (tmp_path / "moons.csv.json").exists()

    @pytest.mark.parametrize("options,factor", [([], 0.5), (["--factor", "0.3"], 0.3)])
    def test_circles_factor_reaches_the_manifest(self, runner, tmp_path, options, factor):
        path = tmp_path / "circles.csv"
        result = runner.invoke(main, ["gen-data", "--dataset", "circles", *options, "--out", str(path)])
        assert result.exit_code == 0, result.output
        assert load_csv(path).meta["factor"] == factor

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


class TestSavedFiles:
    """Every command reads its JSON files by ``linear.read_json`` and writes every output by ``linear.opened``."""

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


# -- refused command lines ---------------------------------------------------

#: The refused command lines, one row each: its arguments, run in the directory that ``refusable`` fills, and the
#: message it ends with. A row's ``--out`` is its own path, which the command must not write.
REFUSED = [
    ("gen-data --dataset moons --noise -1 --out negative_noise.csv",
     "noise must be non-negative and finite"),
    ("gen-data --dataset linear --noise 0.1 --out linear_noise.csv",
     "--noise does not apply to the linear dataset"),
    ("gen-data --dataset moons --factor 0.3 --out moons_factor.csv",
     "--factor applies to circles only, not to the moons dataset"),
    ("gen-data --dataset linear --factor 0.5 --out linear_factor.csv",
     "--factor applies to circles only, not to the linear dataset"),
    ("gen-data --dataset moons --n 1 --out one_point.csv",
     "need at least 2 points (one per class)"),
    ("fit-linear --data listed.csv --kind pa1 --out list_manifest.json",
     "listed.csv.json must be a JSON object, got list"),
    ("fit-linear --data text.csv --kind pa1 --out text_manifest.json",
     "text.csv.json: Expecting value: line 1 column 1 (char 0)"),
    ("fit-linear --data latin1.csv --kind pa1 --out latin1.json",
     "latin1.csv: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    ("fit-linear --data nan.csv --kind pa1 --out nan.json",
     "nan.csv: line 2: coordinates must be finite, got '0.5' and 'nan'"),
    ("fit-linear --data header.csv --kind pa1 --out header.json",
     "header.csv: holds no points"),
    ("fit-linear --data oneclass.csv --kind pa1 --out oneclass.json",
     "oneclass.csv: both classes must be present"),
    ("fit-linear --data label.csv --kind pa1 --out label.json",
     "label.csv: line 2: label must be 0 or 1, got '2'"),
    ("fit-linear --data circles.csv --kind pa1 --epochs -3 --out negative_epochs.json",
     "epochs must be a non-negative integer, got -3"),
    ("fit-linear --data circles.csv --kind pa1 --epochs 0 --out zero_epochs.json",
     "epochs must be at least 1, got 0"),
    ("fit-mas --data circles.csv --kind pa1 --linear-params logit.json --out other_kind.json",
     "--linear-params holds a logit ALONE record, not the pa1 ALONE record of fit-linear"),
    ("fit-mas --data circles.csv --kind pa1 --linear-params text.json --out text_params.json",
     "text.json: Expecting value: line 1 column 1 (char 0)"),
    ("fit-mas --data circles.csv --kind pa1 --linear-params listed_params.json --out params_list.json",
     "record.best_params must be a JSON object, got list"),
    ("fit-mas --data circles.csv --kind pa1 --linear-params string_params.json --out params_string.json",
     "record.best_params: aggressiveness_c must be a number, got '1.0'"),
    ("fit-mas --data circles.csv --kind pa1 --linear-params unknown_params.json --out params_key.json",
     "record.best_params holds the unknown key 'momentum'; its keys are ['aggressiveness_c', 'alpha_reg', "
     "'l1_ratio', 'learning_rate0', 'penalty']"),
    ("fit-mas --data circles.csv --kind pa1 --linear-params pa1.json --jobs 0 --out zero_jobs.json",
     "jobs must be at least 1, got 0"),
    ("boundary --model model.json --data circles.csv --step nan --out nan_step.csv",
     "step must be positive and finite"),
    ("boundary --model model.json --data circles.csv --step inf --out inf_step.csv",
     "step must be positive and finite"),
    ("boundary --model model.json --data circles.csv --step 1e-7 --out lattice_cap.csv",
     "a step of 1e-07 gives a lattice of 2.84e+15 points, more than 10,000,000"),
    ("boundary --model text.json --data circles.csv --out text_model.csv",
     "text.json: Expecting value: line 1 column 1 (char 0)"),
    ("boundary --model svm.json --data circles.csv --out unknown_type.csv",
     "svm.json: type must be one of ['engine', 'linear'], got 'svm'"),
    ("boundary --model untyped.json --data circles.csv --out no_type.csv",
     "untyped.json lacks the key 'type'"),
    ("boundary --model bare.json --data circles.csv --out no_payload.csv",
     "bare.json lacks the key 'snapshot'"),
    ("boundary --model other_payload.json --data circles.csv --out other_payload.csv",
     "other_payload.json lacks the key 'snapshot'"),
    ("boundary --model weights.json --data circles.csv --out unknown_key.csv",
     "weights.json holds the unknown key 'weights'; its keys are ['model', 'snapshot', 'type']"),
    ("boundary --model momentum.json --data circles.csv --out momentum.csv",
     "model holds the unknown key 'momentum'; its keys are ['aggressiveness_c', 'alpha_reg', 'bias', 'kind', "
     "'l1_ratio', 'learning_rate0', 'penalty', 'step_count', 'weights']"),
    ("boundary --model listed_model.json --data circles.csv --out listed_model.csv",
     "model must be a JSON object, got list"),
    ("boundary --model null.json --data circles.csv --out null_alpha.csv",
     "model: alpha_reg must be a number, got None"),
    ("boundary --model empty.json --data circles.csv --out empty_snapshot.csv",
     "snapshot lacks the key 'config'"),
    ("boundary --model listed.json --data circles.csv --out listed_snapshot.csv",
     "snapshot must be a JSON object, got list"),
    ("boundary --model numbered.json --data circles.csv --out numbered_agent.csv",
     "snapshot.agents[0] must be a JSON object, got int"),
    ("boundary --model unbounded.json --data circles.csv --out null_region.csv",
     "snapshot.agents[0].region must be a JSON object, got NoneType"),
    ("boundary --model wide.json --data circles.csv --out wide_agent.csv",
     "snapshot.agents[0].region.lower must hold 2 numbers, got 3"),
    ("boundary --model negative.json --data circles.csv --out negative_cycle.csv",
     "snapshot.cycle must be a non-negative integer, got -1"),
    ("reproduce --config text.json --out text_config.d",
     "text.json: Expecting value: line 1 column 1 (char 0)"),
    ("reproduce --config listed_config.json --out listed_config.d",
     "config must be a JSON object, got list"),
    ("reproduce --config bogus.json --out bogus_config.d",
     "config holds the unknown key 'bogus_key'; its keys are ['circles_factor', 'cv_seed', 'data_seed', 'epochs', "
     "'exploration_passes', 'fit_seed', 'folds', 'jobs', 'n', 'noise_circles', 'noise_moons']"),
    ("reproduce --config folds.json --out one_fold.d",
     "folds must be at least 2"),
    ("reproduce --config epochs.json --out zero_epochs_config.d",
     "epochs must be at least 1"),
    ("reproduce --jobs 0 --out zero_jobs_config.d",
     "exploration_passes and jobs must be at least 1"),
]


@pytest.fixture(scope="module")
def refusable(tmp_path_factory):
    """A directory holding a dataset, two step-1 records and a model, built once by the commands, and every
    malformed input that ``REFUSED`` reads."""
    root = tmp_path_factory.mktemp("refusable")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for args in ("gen-data --dataset circles --n 40 --seed 8 --standardize --out circles.csv",
                     "fit-linear --data circles.csv --kind logit --epochs 2 --out logit.json",
                     "fit-linear --data circles.csv --kind pa1 --epochs 2 --out pa1.json --model-out model.json"):
            result = CliRunner().invoke(main, args.split())
            assert result.exit_code == 0, result.output
    circles = (root / "circles.csv").read_text()
    texts = {
        "nan.csv": "x1,x2,y\n0.5,nan,1\n",
        "header.csv": "x1,x2,y\n",
        "oneclass.csv": "x1,x2,y\n0.5,0.25,1\n1.5,0.25,1\n",
        "label.csv": "x1,x2,y\n0.5,0.25,2\n1.5,0.25,0\n",
        "listed.csv": circles, "listed.csv.json": "[]",
        "text.csv": circles, "text.csv.json": "not json\n",
        "text.json": "not json\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "latin1.csv").write_bytes(b"x1,x2,y\n0.5,\xff,1\n")
    snapshot = {"config": EngineConfig().to_dict(), "model_config": LinearModelConfig(kind="pa1").to_dict(),
                "dim": 2, "cycle": 0, "next_agent_id": 1, "agents": []}
    agent = {"id": 0, "region": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}, "confidence": 0.0,
             "model": {"weights": [0.0, 0.0], "bias": 0.0, "step_count": 0}}
    model = json.loads((root / "model.json").read_text())["model"]
    record = json.loads((root / "pa1.json").read_text())
    params = record["best_params"]
    saved = {
        "svm.json": {"type": "svm", "model": {}},
        "untyped.json": {"model": {}},
        "bare.json": {"type": "engine"},
        "other_payload.json": {"type": "engine", "model": {}},
        "weights.json": {"type": "linear", "model": {}, "weights": []},
        "momentum.json": {"type": "linear", "model": {**model, "momentum": 0.9}},
        "listed_model.json": {"type": "linear", "model": []},
        "null.json": {"type": "linear", "model": {**model, "alpha_reg": None}},
        "empty.json": {"type": "engine", "snapshot": {}},
        "listed.json": {"type": "engine", "snapshot": []},
        "numbered.json": {"type": "engine", "snapshot": {**snapshot, "agents": [1]}},
        "unbounded.json": {"type": "engine", "snapshot": {**snapshot, "agents": [{**agent, "region": None}]}},
        "wide.json": {"type": "engine", "snapshot": {
            **snapshot, "agents": [{**agent, "region": {"lower": [0.0] * 3, "upper": [1.0] * 3}}]}},
        "negative.json": {"type": "engine", "snapshot": {**snapshot, "cycle": -1}},
        "listed_params.json": {**record, "best_params": [1]},
        "string_params.json": {**record, "best_params": {**params, "aggressiveness_c": "1.0"}},
        "unknown_params.json": {**record, "best_params": {**params, "momentum": 0.9}},
        "listed_config.json": [1],
        "bogus.json": {"bogus_key": 1},
        "folds.json": {"folds": 1},
        "epochs.json": {"epochs": 0},
    }
    for name, value in saved.items():
        (root / name).write_text(json.dumps(value))
    return root


def out_of(args: str) -> str:
    """The path a command line gives ``--out``."""
    argv = args.split()
    return argv[argv.index("--out") + 1]


@pytest.mark.parametrize("args,message", REFUSED, ids=[Path(out_of(args)).stem for args, _ in REFUSED])
def test_a_refused_command_line_ends_in_its_error(refusable, monkeypatch, args, message):
    """Exit status 1 by ``SystemExit`` (so no traceback), a line starting ``Error: <message>``, no usage text,
    and nothing at the row's ``--out``."""
    monkeypatch.chdir(refusable)
    result = CliRunner().invoke(main, args.split())
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert any(line.startswith(f"Error: {message}") for line in result.output.splitlines()), result.output
    assert "Usage:" not in result.output
    assert not (refusable / out_of(args)).exists()
