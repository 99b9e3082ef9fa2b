"""Agent feedback arithmetic, scoring, and the engine config."""

import json
import math
import re

import numpy as np
import pytest

from cooptile.agents import EngineConfig
from cooptile.engine import Engine
from cooptile.geometry import Bounds, contains, volume
from cooptile.linear import LinearModelConfig, ModelKind, _sigmoid

TOL = 1e-9
PA1 = LinearModelConfig(kind=ModelKind.PA_I)


def engine_with_agents(*confidences: float, lo=(0.0, 0.0), up=(1.0, 1.0), **cfg_kwargs) -> Engine:
    """An engine restored from a snapshot of zero-model agents sharing one box."""
    agents = [
        {"id": i, "region": {"lower": list(lo), "upper": list(up)}, "confidence": c,
         "model": {"weights": [0.0] * len(lo), "bias": 0.0, "step_count": 0}}
        for i, c in enumerate(confidences)
    ]
    snap = {"config": EngineConfig(**cfg_kwargs).to_dict(), "model_config": PA1.to_dict(), "dim": len(lo),
            "cycle": 0, "next_agent_id": len(agents), "agents": agents}
    return Engine.from_snapshot(snap)


def box(engine: Engine, row: int) -> Bounds:
    return engine.agents.lower[row], engine.agents.upper[row]


def give_feedback(engine: Engine, correct: bool, x) -> None:
    """One exploration cycle at ``x`` whose label makes the single agent right or wrong."""
    proposal = engine.predict(x)
    engine.explore_step(x, proposal if correct else 1 - proposal)


class TestScore:
    def test_fresh_agent_scores_half(self):
        assert _sigmoid(engine_with_agents(0.0).agents.confidence[0]) == 0.5

    def test_three_correct_two_wrong(self):
        engine = engine_with_agents(0.0, reward_weight=1.0, penalty_weight=0.5, resize_factor=0.0)
        x = np.array([0.5, 0.5])
        for correct in (True, True, True, False, False):
            give_feedback(engine, correct, x)
        assert engine.agents.confidence[0] == 2.0
        score = _sigmoid(engine.agents.confidence[0])
        assert score == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=TOL)
        assert score == pytest.approx(0.8807970779778823, abs=TOL)

    def test_strictly_increasing_and_bounded(self):
        # |confidence| <= 36 keeps the sigmoid away from float saturation
        scores = np.array([_sigmoid(c) for c in engine_with_agents(-36.0, -5.0, 0.0, 3.0, 36.0).agents.confidence])
        assert np.all((0.0 < scores) & (scores < 1.0))
        assert np.all(np.diff(scores) > 0.0)


class TestFeedback:
    def test_correct_with_zero_resize(self):
        engine = engine_with_agents(0.0, resize_factor=0.0, reward_weight=1.0)
        before = volume(*box(engine, 0))
        give_feedback(engine, True, np.array([0.5, 0.5]))
        assert engine.agents.confidence[0] == 1.0
        assert volume(*box(engine, 0)) == before

    def test_correct_grows_region_and_trains(self):
        engine = engine_with_agents(0.0, resize_factor=0.1)
        give_feedback(engine, True, np.array([0.5, 0.5]))
        assert volume(*box(engine, 0)) == pytest.approx(1.1, rel=TOL)
        assert engine.agents.step_count[0] == 1

    def test_correct_without_model_update_when_disabled(self):
        engine = engine_with_agents(0.0, resize_factor=0.1, train_on_correct=False)
        give_feedback(engine, True, np.array([0.5, 0.5]))
        assert engine.agents.step_count[0] == 0

    def test_wrong_with_exclusion_deactivates_point(self):
        engine = engine_with_agents(0.0, exclude_points=True, penalty_weight=0.5)
        x = np.array([0.9, 0.5])
        give_feedback(engine, False, x)
        assert engine.agents.confidence[0] == -0.5
        assert not contains(*box(engine, 0), x)
        assert engine.agents.step_count[0] == 0  # model untouched on exclusion

    def test_wrong_without_exclusion_shrinks_and_trains(self):
        engine = engine_with_agents(0.0, exclude_points=False, resize_factor=0.1, penalty_weight=0.5)
        give_feedback(engine, False, np.array([0.5, 0.5]))
        assert engine.agents.confidence[0] == -0.5
        assert volume(*box(engine, 0)) == pytest.approx(0.9, rel=TOL)
        assert engine.agents.step_count[0] == 1

    def test_confidence_is_running_weighted_sum(self):
        # dyadic weights make the running sum exact
        engine = engine_with_agents(0.0, reward_weight=1.0, penalty_weight=0.5, resize_factor=0.0,
                                    exclude_points=False)
        rng = np.random.default_rng(7)
        verdicts = rng.integers(0, 2, size=200).astype(bool)
        x = np.array([0.5, 0.5])
        for correct in verdicts:
            give_feedback(engine, bool(correct), x)
        n_good = int(verdicts.sum())
        n_bad = len(verdicts) - n_good
        assert engine.agents.confidence[0] == 1.0 * n_good - 0.5 * n_bad
        assert _sigmoid(engine.agents.confidence[0]) == _sigmoid(1.0 * n_good - 0.5 * n_bad)


class TestEngineConfig:
    def test_defaults_are_valid(self):
        cfg = EngineConfig()
        assert cfg.overlap_threshold is None
        assert cfg.exploration_passes == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"init_radius": 0.0},
            {"overlap_threshold": 1.5},
            {"resize_factor": 1.0},
            {"reward_weight": -1.0},
            {"epsilon_scale": 0.0},
            {"exploration_passes": 0},
            # non-finite values: a NaN weight once left half the agents with a NaN confidence
            {"init_radius": math.nan},
            {"init_radius": math.inf},
            {"reward_weight": math.nan},
            {"reward_weight": math.inf},
            {"penalty_weight": math.nan},
            {"penalty_weight": -math.inf},
            {"penalty_weight": math.inf},
            # wrong types: once accepted here, failing later inside train or read the wrong way
            {"exploration_passes": 1.5},
            {"exploration_passes": True},
            {"seed": 2.5},
            {"seed": True},
            {"seed": -1},
            {"exclude_points": "no"},
            {"exclude_points": 0},
            {"train_on_correct": "yes"},
            # bools in float fields: once stored as 1.0 or 0.0
            {"init_radius": True},
            {"resize_factor": False},
            {"reward_weight": True},
            {"penalty_weight": False},
            {"overlap_threshold": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_roundtrip(self):
        cfg = EngineConfig(init_radius=0.5, overlap_threshold=0.2, exclude_points=True,
                           resize_factor=0.2, penalty_weight=2.0, seed=42)
        assert EngineConfig.from_dict(cfg.to_dict()) == cfg

    def test_float_fields_write_as_floats(self):
        # equal configs write equal bytes, whatever number type built them
        as_floats = EngineConfig(init_radius=1.0, overlap_threshold=0.5, resize_factor=0.0, reward_weight=2.0,
                                 penalty_weight=0.25, epsilon_scale=0.125)
        for number in (int, np.float32):
            cfg = EngineConfig(init_radius=number(1), overlap_threshold=np.float32(0.5), resize_factor=number(0),
                               reward_weight=number(2), penalty_weight=np.float32(0.25),
                               epsilon_scale=np.float32(0.125))
            assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(as_floats.to_dict(), sort_keys=True)
            assert type(cfg.init_radius) is float and type(cfg.seed) is int

    @pytest.mark.parametrize("saved,message", [
        ([], "config must be a JSON object, got list"),
        ({"init_radius": 0.2, "radius": 0.2}, "config holds the unknown key 'radius'"),
        ({"init_radius": "0.2"}, "config: init_radius must be a number, got '0.2'"),
    ], ids=["list", "unknown_key", "string"])
    def test_from_dict_rejects_what_to_dict_never_writes(self, saved, message):
        # the list once loaded as the default config, and the others ended in a TypeError
        with pytest.raises(ValueError, match=re.escape(message)):
            EngineConfig.from_dict(saved)

    def test_older_files_normalization_key(self):
        # older files carry "normalization": "sigmoid", the one score function there is
        saved = EngineConfig(seed=3).to_dict()
        assert EngineConfig.from_dict({**saved, "normalization": "sigmoid"}) == EngineConfig(seed=3)
        with pytest.raises(ValueError, match="config.normalization must be 'sigmoid', the only score function"):
            EngineConfig.from_dict({**saved, "normalization": "tanh"})

    def test_grid_values_are_valid(self):
        # every cell of the benchmark engine grid must construct
        for radius in (0.1, 0.2, 0.5):
            for overlap in (0.2, 0.5):
                for exclude in (False, True):
                    for resize in (0.0, 0.1, 0.2):
                        for penalty in (0.5, 1.0, 2.0):
                            EngineConfig(
                                init_radius=radius,
                                overlap_threshold=overlap,
                                exclude_points=exclude,
                                resize_factor=resize,
                                penalty_weight=penalty,
                            )
