"""Acceptance gate: the full benchmark protocol checked end to end.

Runs the complete two-step experiment once (module-scoped fixture), then
verifies each criterion at its stated tolerance and prints one PASS line
per criterion (visible with ``pytest -s``).
"""

import json
import math
import os
import time

import numpy as np
import pytest

from cooptile.agents import EngineConfig
from cooptile.bench import (
    KINDS,
    boundary_grid,
    build_datasets,
    experiment_config,
    grid_search_linear,
    run_experiment,
    train_engine,
    train_linear,
)
from cooptile.engine import Engine
from cooptile.geometry import contains, exclude, overlap_volume, overlap_widths, push, rescale, volume
from cooptile.linear import LinearModelConfig, ModelKind

from boundary_checks import encloses_origin, frontier_midpoints, max_line_residual

KIND_VALUES = [k.value for k in KINDS]


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("reproduce")
    config = {"jobs": min(4, os.cpu_count() or 1)}
    started = time.perf_counter()
    records = run_experiment(config, out_dir=out_dir)
    elapsed = time.perf_counter() - started
    by_key = {(r.dataset, r.kind, r.stage): r for r in records}
    return {
        "records": records,
        "by_key": by_key,
        "elapsed": elapsed,
        "out_dir": out_dir,
        "config": experiment_config(config),
    }


def test_criterion_1_circles_linear_baselines(experiment):
    """Circles ALONE accuracy in [0.40, 0.62] per kind; search < 30 s total."""
    config = experiment["config"]
    ds = build_datasets(config)["circles"]
    started = time.perf_counter()
    for kind in KINDS:
        record = grid_search_linear(
            ds, kind, n_folds=config["folds"], cv_seed=config["cv_seed"],
            fit_seed=config["fit_seed"], epochs=config["epochs"], dataset_name="circles",
        )
        assert record.to_dict() == experiment["by_key"][("circles", kind.value, "ALONE")].to_dict()
        assert 0.40 <= record.mean_accuracy <= 0.62, (
            f"{kind.value}: circles alone accuracy {record.mean_accuracy}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"circles linear baselines took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C1 circles linear baselines in [0.40, 0.62], {elapsed:.1f}s: PASS")


def test_criterion_2_circles_mas_improvement(experiment):
    """Circles MAS >= 0.75 per kind and at least +0.15 over the baseline."""
    for kind in KIND_VALUES:
        alone = experiment["by_key"][("circles", kind, "ALONE")].mean_accuracy
        mas = experiment["by_key"][("circles", kind, "MAS")].mean_accuracy
        assert mas >= 0.75, f"{kind}: circles MAS accuracy {mas}"
        assert mas - alone >= 0.15, f"{kind}: circles improvement {mas - alone:.3f}"
    print("\nACCEPTANCE C2 circles MAS >= 0.75 with gain >= +0.15: PASS")


def test_criterion_3_moons(experiment):
    """Moons ALONE in [0.74, 0.92]; MAS >= ALONE - 0.02 and >= 0.80."""
    for kind in KIND_VALUES:
        alone = experiment["by_key"][("moons", kind, "ALONE")].mean_accuracy
        mas = experiment["by_key"][("moons", kind, "MAS")].mean_accuracy
        assert 0.74 <= alone <= 0.92, f"{kind}: moons alone accuracy {alone}"
        assert mas >= alone - 0.02, f"{kind}: moons MAS dropped to {mas} vs {alone}"
        assert mas >= 0.80, f"{kind}: moons MAS accuracy {mas}"
    print("\nACCEPTANCE C3 moons windows: PASS")


def test_criterion_4_linearly_separable(experiment):
    """On the linearly separable set the two stages stay within 0.05."""
    for kind in KIND_VALUES:
        alone = experiment["by_key"][("linear", kind, "ALONE")].mean_accuracy
        mas = experiment["by_key"][("linear", kind, "MAS")].mean_accuracy
        assert abs(mas - alone) <= 0.05, f"{kind}: |{mas} - {alone}| > 0.05"
    print("\nACCEPTANCE C4 linearly separable |MAS - ALONE| <= 0.05: PASS")


def test_criterion_5_boundary_topology(experiment):
    """Circles: MAS frontier encloses the origin, baselines stay straight."""
    config = experiment["config"]
    ds = build_datasets(config)["circles"]
    started = time.perf_counter()
    for kind in KINDS:
        alone = experiment["by_key"][("circles", kind.value, "ALONE")]
        model = train_linear(kind, alone.best_params, ds.X, ds.Y, config["fit_seed"], config["epochs"])
        grid = boundary_grid(model.predict_batch, ds.X, step=0.02)
        residual = max_line_residual(frontier_midpoints(grid))
        assert residual < 0.02, f"{kind.value}: baseline frontier residual {residual:.4f}"

        mas = experiment["by_key"][("circles", kind.value, "MAS")]
        engine = train_engine(kind, alone.best_params, mas.best_params["engine"], ds.X, ds.Y, config["fit_seed"],
                              config["exploration_passes"])
        mas_grid = boundary_grid(engine.predict_batch, ds.X, step=0.02)
        assert encloses_origin(mas_grid), f"{kind.value}: MAS frontier does not enclose origin"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"boundary checks took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C5 boundary topology, {elapsed:.1f}s: PASS")


def test_criterion_6_property_suites():
    """Operator invariants re-checked in one place at their tolerances."""
    rng = np.random.default_rng(2024)

    # geometry: exact volume ratios, push separation, point exclusion
    for _ in range(200):
        lo = rng.uniform(-3, 3, size=2)
        h = lo, lo + rng.uniform(0.05, 4, size=2)
        factor = float(rng.uniform(0, 0.9))
        assert volume(*rescale(*h, factor)) == pytest.approx((1 + factor) * volume(*h), rel=1e-9)
        assert volume(*rescale(*h, -factor)) == pytest.approx((1 - factor) * volume(*h), rel=1e-9)
        other_lo = lo + rng.uniform(-1, 1, size=2)
        other = other_lo, other_lo + rng.uniform(0.05, 4, size=2)
        if overlap_volume(overlap_widths(*h, *other)) > 0:
            pushed = push(*h, *other)
            if pushed is not None:
                assert overlap_volume(overlap_widths(*h, *pushed)) == 0.0
        x = h[0] + rng.uniform(0, 1, size=2) * (h[1] - h[0])
        assert not contains(*exclude(*h, x, EngineConfig().epsilon_scale), x)

    # PA post-update margin identity at 1e-9
    for kind in (ModelKind.PA_I, ModelKind.PA_II):
        for _ in range(100):
            model = LinearModelConfig(kind=kind, aggressiveness_c=1e12).build(2)
            model.weights = rng.normal(size=2)
            model.bias = float(rng.normal())
            x = rng.normal(size=2)
            y = int(rng.integers(0, 2))
            s = 2 * y - 1
            if 1.0 - s * model.decision_value(x) > 0:
                model.partial_fit(x, y)
                assert s * model.decision_value(x) == pytest.approx(1.0, abs=1e-9)

    # LOGIT gradient against central finite differences at 1e-5
    def loss_at(w, b, x, y, cfg):
        s = 2 * y - 1
        z = -s * (float(w @ x) + b)
        value = math.log1p(math.exp(z)) if z < 30 else z
        return value + cfg.alpha_reg * 0.5 * float(w @ w)

    for _ in range(50):
        model = LinearModelConfig(kind=ModelKind.LOGIT, alpha_reg=0.01, penalty="l2").build(2)
        model.weights = rng.normal(size=2)
        model.bias = float(rng.normal())
        x = rng.normal(size=2)
        y = int(rng.integers(0, 2))
        w0, b0 = model.weights.copy(), model.bias
        model.partial_fit(x, y)
        step_w = (w0 - model.weights) / model.config.learning_rate0
        h = 1e-6
        for j in range(2):
            wp, wm = w0.copy(), w0.copy()
            wp[j] += h
            wm[j] -= h
            fd = (loss_at(wp, b0, x, y, model.config) - loss_at(wm, b0, x, y, model.config)) / (2 * h)
            assert step_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    # confidence equals the weighted running sum exactly
    cfg = EngineConfig(reward_weight=1.0, penalty_weight=0.5, resize_factor=0.0)
    pa1 = LinearModelConfig(kind=ModelKind.PA_I)
    agent = {"id": 0, "region": {"lower": [-5.0, -5.0], "upper": [5.0, 5.0]}, "confidence": 0.0,
             "creation_cycle": 0, "model": {**pa1.to_dict(), "weights": [0.0, 0.0], "bias": 0.0}}
    engine = Engine.from_snapshot({"config": cfg.to_dict(), "model_config": pa1.to_dict(), "dim": 2,
                                   "cycle": 0, "next_agent_id": 1, "agents": [agent]})
    verdicts = rng.integers(0, 2, size=500).astype(bool)
    for correct in verdicts:
        proposal = engine.predict(np.zeros(2))  # the one agent's proposal
        engine.explore_step(np.zeros(2), proposal if correct else 1 - proposal)
    good = int(verdicts.sum())
    assert engine.agents.confidence.tolist() == [1.0 * good - 0.5 * (len(verdicts) - good)]

    # engine determinism and exploitation immutability
    X = rng.uniform(-2, 2, size=(60, 2))
    Y = ((X[:, 0] * X[:, 1]) > 0).astype(int)
    engine_cfg = EngineConfig(init_radius=0.3, overlap_threshold=0.5, resize_factor=0.1,
                              exclude_points=True, seed=31, exploration_passes=2)
    model_cfg = LinearModelConfig(kind=ModelKind.PA_I)
    first = Engine(engine_cfg, model_cfg, dim=2).train(X, Y)
    second = Engine(engine_cfg, model_cfg, dim=2).train(X, Y)
    assert first.to_json() == second.to_json()
    snapshot = first.to_json()
    probes = rng.uniform(-3, 3, size=(200, 2))
    assert np.array_equal(first.predict_batch(probes), first.predict_batch(probes))
    assert first.to_json() == snapshot
    print("\nACCEPTANCE C6 property suites at stated tolerances: PASS")


def test_criterion_7_full_reproduction(experiment):
    """24 deterministic records, written to disk, in under 10 minutes."""
    records = experiment["records"]
    assert len(records) == 24
    assert experiment["elapsed"] < 600.0, f"experiment took {experiment['elapsed']:.0f}s"
    results_path = experiment["out_dir"] / "results.json"
    table_path = experiment["out_dir"] / "accuracy_table.csv"
    assert results_path.exists() and table_path.exists()
    stored = json.loads(results_path.read_text())
    assert len(stored) == 24
    assert [r["mean_accuracy"] for r in stored] == [r.mean_accuracy for r in records]
    for record in records:
        assert record.mean_accuracy == pytest.approx(
            float(np.mean(record.fold_accuracies)), abs=1e-12
        )
    print(
        f"\nACCEPTANCE C7 reproduce: 24 records in {experiment['elapsed']:.0f}s "
        f"(budget 600s): PASS"
    )
