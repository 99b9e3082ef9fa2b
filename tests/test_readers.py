"""Every reader of a saved file, under every single mutation of a file it reads.

A mutation drops one key of one object, adds an unknown key to one
object, or replaces one value, anywhere in the file (the whole file
included), with one of ``REPLACEMENTS``. The reader must either raise
``ValueError`` or return an object whose saved form reads back to the
same saved form; any other exception fails the property.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptile.agents import EngineConfig
from cooptile.bench import KINDS, ResultRecord, default_engine_grid, default_linear_grid, experiment_config
from cooptile.engine import Engine
from cooptile.linear import LinearModelConfig, OnlineLinearModel

REPLACEMENTS = (None, "1", True, [], {}, -1, 2.5, math.nan, math.inf, [[1.0]])


def single_mutations(valid) -> list:
    """Every single mutation of ``valid``, as ``(path, change)``: ``change`` maps the value at ``path`` to its
    mutated form."""
    found = []

    def walk(value, path):
        found.extend((path, lambda _, r=r: r) for r in REPLACEMENTS)
        if isinstance(value, dict):
            found.append((path, lambda d: {**d, "unknown": 1.0}))
            found.extend((path, lambda d, k=k: {kk: v for kk, v in d.items() if kk != k}) for k in value)
            for key, item in value.items():
                walk(item, (*path, key))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, (*path, i))

    walk(valid, ())
    return found


def mutated(value, path, change):
    """``value`` with ``change`` applied at ``path``, copying only the objects and arrays along the path."""
    if not path:
        return change(value)
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = mutated(value[path[0]], path[1:], change)
    return copy


def assert_each_mutation_rejected_or_round_trips(valid, read, dump):
    """``read`` raises ``ValueError`` on each single mutation of ``valid`` or returns an object whose ``dump``, a
    JSON text, reads back to the same text."""
    for path, change in single_mutations(valid):
        try:
            value = read(mutated(valid, path, change))
        except ValueError:
            continue
        saved = dump(value)
        assert dump(read(json.loads(saved))) == saved, path


@st.composite
def snapshots(draw) -> dict:
    """The snapshot of an engine of a grid cell, trained on a few random points."""
    cell = draw(st.sampled_from(default_engine_grid()))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.uniform(-1.0, 1.0, size=(5, 2))
    engine = Engine(EngineConfig(**cell), LinearModelConfig(kind=kind), dim=2).train(X, (X[:, 0] > 0).astype(int))
    return json.loads(engine.to_json())


@st.composite
def linear_models(draw) -> dict:
    """The ``to_dict`` of a model of a step-1 grid cell, fit on a few random points."""
    kind = draw(st.sampled_from(KINDS))
    cell = draw(st.sampled_from(default_linear_grid(kind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(6, 2))
    return LinearModelConfig(kind=kind, **cell).build(2).fit(X, [0, 1, 0, 1, 0, 1], epochs=2).to_dict()


@st.composite
def records(draw) -> dict:
    """The ``to_dict`` of a step-1 or step-2 record of a grid cell."""
    kind = draw(st.sampled_from(KINDS))
    params = draw(st.sampled_from(default_linear_grid(kind)))
    if draw(st.booleans()):
        stage, params = "MAS", {"engine": draw(st.sampled_from(default_engine_grid())), "model": params}
    else:
        stage = "ALONE"
    folds = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3))
    return ResultRecord("moons", kind.value, stage, params, folds, float(np.mean(folds))).to_dict()


@settings(max_examples=6, deadline=None)
@given(snapshots())
def test_snapshot_reader(snap):
    assert_each_mutation_rejected_or_round_trips(snap, Engine.from_snapshot, Engine.to_json)


@settings(max_examples=10, deadline=None)
@given(linear_models())
def test_linear_model_reader(model):
    assert_each_mutation_rejected_or_round_trips(
        model, OnlineLinearModel.from_dict, lambda m: json.dumps(m.to_dict(), sort_keys=True))


@settings(max_examples=10, deadline=None)
@given(records())
def test_result_record_reader(record):
    assert_each_mutation_rejected_or_round_trips(
        record, ResultRecord.from_dict, lambda r: json.dumps(r.to_dict(), sort_keys=True))


@settings(max_examples=5, deadline=None)
@given(st.fixed_dictionaries({}, optional={"n": st.integers(20, 200), "noise_moons": st.floats(0.0, 1.0),
                                            "circles_factor": st.floats(0.1, 0.9), "jobs": st.integers(1, 4)}))
def test_experiment_config_reader(overrides):
    assert_each_mutation_rejected_or_round_trips(
        experiment_config(overrides), experiment_config, lambda c: json.dumps(c, sort_keys=True))
