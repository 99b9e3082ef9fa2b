"""Tests of the benchmark's own parts: reference, span recorder, protocol."""

import json
import os
from pathlib import Path

import numpy as np

import oracle
import spans
import workloads
from cooptile import bench
from cooptile.engine import Engine
from cooptile.geometry import Hypercube
from cooptile.linear import ModelKind


def _agent(i, lower, upper, confidence, weights, bias):
    return {
        "id": i,
        "region": {"lower": lower, "upper": upper},
        "confidence": confidence,
        "creation_cycle": 0,
        "model": {"kind": "pa1", "weights": weights, "bias": bias, "step_count": 1},
    }


def _hand_built_engine() -> Engine:
    """Four agents: three tie on score around (0.75, 0.5), one sits far away."""
    snap = {
        "config": {"init_radius": 0.2},
        "model_config": {"kind": "pa1"},
        "dim": 2,
        "cycle": 0,
        "next_agent_id": 4,
        "agents": [
            _agent(0, [0.0, 0.0], [1.0, 1.0], 0.0, [1.0, 0.0], -0.5),  # class 1 right of x=0.5
            _agent(1, [0.5, 0.0], [1.5, 1.0], 0.0, [0.0, 0.0], -1.0),  # always class 0
            _agent(2, [3.0, 3.0], [4.0, 4.0], 2.0, [0.0, 0.0], 1.0),  # always class 1
            _agent(3, [0.6, 0.4], [0.9, 0.6], 0.0, [1.0, 0.0], -0.5),
        ],
    }
    return Engine.from_snapshot(snap)


def test_reference_matches_engine_on_ties_and_uncovered_points():
    engine = _hand_built_engine()
    X = np.array(
        [
            [0.75, 0.5],  # agents 0, 1, 3 tie; votes 1, 0, 1 -> 1
            [0.55, 0.2],  # agents 0, 1 tie; votes 1, 0 -> smaller label 0
            [0.25, 0.5],  # agent 0 alone -> 0
            [1.0, 1.0],  # corner shared by agents 0 and 1: closed bounds, tie -> 0
            [2.9, 3.5],  # uncovered, nearest agent 2 -> 1
            [2.0, 0.5],  # uncovered, nearest agent 1 -> 0
        ]
    )
    expected = np.array([1, 0, 0, 0, 1, 0])
    ref = oracle.exploit(engine.snapshot(), X)
    np.testing.assert_array_equal(ref.labels, expected)
    np.testing.assert_array_equal(ref.covered, [True, True, True, True, False, False])
    np.testing.assert_array_equal(ref.tied, [True, True, False, True, False, False])
    np.testing.assert_array_equal(engine.predict_batch(X), expected)
    assert [engine.predict(x) for x in X] == expected.tolist()


def test_least_squares_baseline_separates_distant_blobs():
    rng = np.random.default_rng(3)
    Y = np.repeat([0, 1], 50)
    X = rng.normal(size=(100, 2)) + np.where(Y[:, None] == 1, 6.0, -6.0) * np.array([1.0, 0.0])
    assert (oracle.lstsq_baseline(X, Y, X) == Y).all()
    assert (oracle.lstsq_baseline(X, Y, -X) == 1 - Y).all()


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0, 10, 12, 30, 40, 45, 100])
    rec = spans.Recorder(clock=lambda: next(ticks))
    a, b, c = (rec.name_index(n) for n in "abc")
    rec.open(a)  # 0
    rec.open(b)  # 10
    rec.open(c)  # 12
    rec.close()  # c ends at 30: 18
    rec.close()  # b ends at 40: 30, self 12
    rec.open(c)  # 45
    rec.close()  # c ends at 100: 55
    ticks = iter([200])
    rec._clock = lambda: next(ticks)
    rec.close()  # a ends at 200: 200, self 200 - 30 - 55
    by = rec.by_name()
    assert by["a"]["duration"].tolist() == [200]
    assert by["a"]["self"].tolist() == [115]
    assert by["b"]["self"].tolist() == [12]
    assert sorted(by["c"]["self"].tolist()) == [18, 55]
    ids = dict(zip(rec.span_id, rec.parent_id))
    root = [s for s, p in ids.items() if p == -1]
    assert len(root) == 1 and sorted(ids.values()).count(root[0]) == 2


def test_paused_time_lands_in_no_span():
    ticks = iter([0, 10, 60, 70])
    rec = spans.Recorder(clock=lambda: next(ticks))
    rec.open(rec.name_index("a"))  # 0
    with rec.paused():  # 10 .. 60
        pass
    rec.close()  # 70 - 50 paused
    assert rec.by_name()["a"]["duration"].tolist() == [20]


def test_instrument_records_calls_and_restores_the_program():
    original = Hypercube.contains
    original_grid = bench.boundary_grid
    rec = spans.Recorder()
    with spans.instrument(rec):
        box = Hypercube([0.0], [1.0])
        assert box.contains([0.5]) and not box.contains([2.0])
        bench.boundary_grid(lambda P: np.zeros(len(P), dtype=int), np.zeros((2, 2)), step=0.5)
    assert Hypercube.contains is original and bench.boundary_grid is original_grid
    by = rec.by_name()
    assert by["geometry.Hypercube.contains"]["self"].size == 2
    assert by["bench.boundary_grid"]["self"].size == 1


def test_protocol_records_do_not_depend_on_worker_count():
    wl = workloads.Protocol(seed=5)
    wl.engine_cells = wl.engine_cells[:5]  # more than one chunk of 4
    data = bench.build_datasets(wl.config)
    unit = wl._pair(data["linear"], "linear", ModelKind.PA_I)
    serial, _ = unit(workloads.Ops(), 1)
    parallel, _ = unit(workloads.Ops(), max(2, os.cpu_count() or 1))
    assert serial == parallel


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(spans.LAYER_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
