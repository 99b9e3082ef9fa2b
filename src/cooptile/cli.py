"""Command-line interface: data generation, fitting, boundaries, benchmark."""

from __future__ import annotations

import time
from pathlib import Path

import click

from . import bench, datasets
from .engine import Engine
from .linear import Keys, ModelKind, OnlineLinearModel, checked_value, opened, read_json, write_json

_KIND_CHOICE = click.Choice([k.value for k in bench.KINDS])

#: A model file is ``{"type": <type>, <key>: <payload>}``: each type's payload key and the reader of its payload.
_MODEL_FILES = {"linear": ("model", OnlineLinearModel.from_dict), "engine": ("snapshot", Engine.from_snapshot)}


class _Group(click.Group):
    def invoke(self, ctx):
        """Run a command, reporting a library ``ValueError`` as ``Error: <message>``, not a traceback."""
        try:
            return super().invoke(ctx)
        except ValueError as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Group)
def main():
    """Cooperative-tiling classifier toolkit."""


@main.command("gen-data")
@click.option("--dataset", type=click.Choice(["moons", "circles", "linear"]), required=True)
@click.option("--n", default=100, show_default=True)
@click.option("--noise", default=None, type=float, help="Jitter sigma (moons: 0.3, circles: 0.2; not linear).")
@click.option("--factor", default=None, type=float, help="Inner/outer radius ratio (circles only: 0.5).")
@click.option("--seed", default=0, show_default=True)
@click.option("--standardize", "do_standardize", is_flag=True, help="Z-score the columns.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen_data(dataset, n, noise, factor, seed, do_standardize, out):
    """Generate one benchmark dataset as CSV (plus a sidecar manifest)."""
    if noise is not None and dataset == "linear":
        raise ValueError("--noise does not apply to the linear dataset")
    if factor is not None and dataset != "circles":
        raise ValueError(f"--factor applies to circles only, not to the {dataset} dataset")
    if dataset == "moons":
        ds = datasets.gen_moons(n, 0.3 if noise is None else noise, seed)
    elif dataset == "circles":
        ds = datasets.gen_circles(n, 0.2 if noise is None else noise, 0.5 if factor is None else factor, seed)
    else:
        ds = datasets.gen_linear(n, seed)
    if do_standardize:
        ds = datasets.standardize(ds)
    datasets.save_csv(ds, out)
    click.echo(f"wrote {ds.n} points to {out}")


@main.command("fit-linear")
@click.option("--data", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--kind", type=_KIND_CHOICE, required=True)
@click.option("--cv", default=5, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--epochs", default=100, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Result record JSON.")
@click.option("--model-out", type=click.Path(dir_okay=False), default=None,
              help="Also save the best model refit on the full data.")
def fit_linear(data, kind, cv, seed, epochs, out, model_out):
    """Step 1: cross-validated grid search for one bare linear classifier."""
    ds = datasets.load_csv(data)
    record = bench.grid_search_linear(ds, ModelKind(kind), n_folds=cv, cv_seed=seed,
                                      fit_seed=seed, epochs=epochs)
    write_json(out, record.to_dict())
    if model_out:
        model = bench.train_linear(ModelKind(kind), record.best_params, ds.X, ds.Y, seed, epochs)
        write_json(model_out, {"type": "linear", "model": model.to_dict()})
    click.echo(f"{kind} alone: mean accuracy {record.mean_accuracy:.4f} ({out})")


@main.command("fit-mas")
@click.option("--data", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--kind", type=_KIND_CHOICE, required=True)
@click.option("--linear-params", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Result record JSON from fit-linear of the same kind (its best_params are frozen).")
@click.option("--cv", default=5, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--passes", default=2, show_default=True, help="Exploration passes over the data.")
@click.option("--jobs", default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Result record JSON.")
@click.option("--engine-out", type=click.Path(dir_okay=False), default=None,
              help="Also save the best engine retrained on the full data.")
@click.option("--trace", type=click.Path(dir_okay=False), default=None,
              help="JSON-lines cycle log of the final full-data training.")
def fit_mas(data, kind, linear_params, cv, seed, passes, jobs, out, engine_out, trace):
    """Step 2: engine-parameter grid search with a frozen linear model."""
    ds = datasets.load_csv(data)
    alone = bench.ResultRecord.from_dict(read_json(linear_params))
    if (alone.kind, alone.stage) != (kind, bench.STAGE_ALONE):
        raise ValueError(f"--linear-params holds a {alone.kind} {alone.stage} record, "
                         f"not the {kind} {bench.STAGE_ALONE} record of fit-linear")
    params = alone.best_params
    record = bench.grid_search_mas(ds, ModelKind(kind), params, n_folds=cv, cv_seed=seed,
                                   fit_seed=seed, passes=passes, jobs=jobs)
    write_json(out, record.to_dict())
    if engine_out or trace:
        with opened(trace) as f:
            cell = record.best_params["engine"]
            engine = bench.train_engine(ModelKind(kind), params, cell, ds.X, ds.Y, seed, passes, trace=f)
        if engine_out:
            write_json(engine_out, {"type": "engine", "snapshot": engine.snapshot()})
    click.echo(f"{kind} in MAS: mean accuracy {record.mean_accuracy:.4f} ({out})")


@main.command("boundary")
@click.option("--model", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Model file from fit-linear --model-out or fit-mas --engine-out.")
@click.option("--data", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Dataset CSV fixing the lattice bounds.")
@click.option("--step", default=0.02, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def boundary(model, data, step, out):
    """Export predictions on a lattice around the data as x1,x2,yhat CSV."""
    ds = datasets.load_csv(data)
    saved = checked_value(read_json(model), Keys({"type": str}, {key: None for key, _ in _MODEL_FILES.values()}), model)
    if saved["type"] not in _MODEL_FILES:
        raise ValueError(f"{model}: type must be one of {sorted(_MODEL_FILES)}, got {saved['type']!r}")
    key, read = _MODEL_FILES[saved["type"]]
    predict = read(checked_value(saved, Keys({"type": str, key: None}), model)[key]).predict_batch
    grid = bench.boundary_grid(predict, ds.X, step=step)
    grid.to_csv(out)
    click.echo(f"wrote {grid.labels.size} lattice predictions to {out}")


@main.command("reproduce")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--jobs", default=None, type=int, help="Override config worker count.")
def reproduce(config_path, out_dir, jobs):
    """Run the full three-dataset benchmark and write the accuracy table."""
    config = bench.experiment_config(read_json(config_path)) if config_path else {}
    if jobs is not None:
        config["jobs"] = jobs
    started = time.perf_counter()
    records = bench.run_experiment(config, out_dir=out_dir)  # checks the config before any compute
    elapsed = time.perf_counter() - started
    click.echo(f"{len(records)} records in {elapsed:.1f}s -> {out_dir}/results.json")
    click.echo(Path(out_dir, "accuracy_table.csv").read_text(), nl=False)


if __name__ == "__main__":
    main()
