"""Engine cycle tests: incompetence, competition, conflict, exploitation."""

import gc
import io
import json
import tracemalloc
from collections import deque
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooptile.agents import EngineConfig
from cooptile.datasets import gen_circles, standardize
from cooptile.engine import DECIDE_BLOCK_ROWS, Engine, NcsKind, Resolution
from cooptile.geometry import Bounds, Hypercube, contains, overlap_volume, overlap_widths, volume
from cooptile.linear import LinearModelConfig, ModelKind, _sigmoid

PA1 = LinearModelConfig(kind=ModelKind.PA_I)


def make_engine(**cfg_kwargs) -> Engine:
    cfg_kwargs.setdefault("resize_factor", 0.0)
    return Engine(EngineConfig(**cfg_kwargs), PA1, dim=2)


def agent_dict(agent_id: int, lo, up, weights=(0.0, 0.0), bias=0.0, confidence: float = 0.0) -> dict:
    """One agent as ``Engine.snapshot()`` lists it."""
    return {
        "id": agent_id,
        "region": {"lower": [float(v) for v in lo], "upper": [float(v) for v in up]},
        "confidence": float(confidence),
        "model": {"weights": [float(w) for w in weights], "bias": float(bias), "step_count": 0},
    }


def constant_agent(agent_id: int, lo, up, proposes: int, confidence: float = 0.0) -> dict:
    """Agent whose model always proposes the same class."""
    return agent_dict(agent_id, lo, up, bias=1.0 if proposes == 1 else -1.0, confidence=confidence)


def engine_with(*agents: dict, next_agent_id: int | None = None, **cfg_kwargs) -> Engine:
    """An engine restored from a snapshot holding exactly ``agents``."""
    cfg_kwargs.setdefault("resize_factor", 0.0)
    if next_agent_id is None:
        next_agent_id = max(a["id"] for a in agents) + 1
    return Engine.from_snapshot({
        "config": EngineConfig(**cfg_kwargs).to_dict(),
        "model_config": PA1.to_dict(),
        "dim": 2,
        "cycle": 0,
        "next_agent_id": next_agent_id,
        "agents": list(agents),
    })


def agents_by_id(engine: Engine) -> dict[int, dict]:
    return {a["id"]: a for a in engine.snapshot()["agents"]}


def region(agent: dict) -> Bounds:
    return np.array(agent["region"]["lower"]), np.array(agent["region"]["upper"])


def row_box(engine: Engine, row: int) -> Bounds:
    return engine.agents.lower[row], engine.agents.upper[row]


def intersection_volume(a: Bounds, b: Bounds) -> float:
    return overlap_volume(overlap_widths(*a, *b))


@st.composite
def lattice_populations(draw):
    """Agents with unit-lattice boxes (shared faces and corners) and mostly equal scores."""
    agents = []
    for k in range(draw(st.integers(1, 6))):
        lo = np.array([draw(st.integers(-2, 1)) for _ in range(2)], dtype=float)
        size = np.array([draw(st.integers(1, 2)) for _ in range(2)], dtype=float)
        weights = [draw(st.sampled_from([-1.0, 0.0, 1.0])) for _ in range(2)]
        bias = draw(st.sampled_from([-0.5, 0.0, 0.5]))
        confidence = draw(st.sampled_from([0.0, 0.0, 0.0, 1.0]))
        agents.append(agent_dict(k, lo, lo + size, weights, bias, confidence))
    return agents


class TestSelectWinner:
    """The decision rule for covered points, driven through ``exploit_step``."""

    def test_single_agent_wins(self):
        engine = engine_with(constant_agent(0, [0, 0], [1, 1], proposes=1))
        report = engine.exploit_step(np.array([0.5, 0.5]))
        assert (report.winner_id, report.prediction) == (0, 1)
        assert report.activated_ids == [0]

    def test_strict_argmax(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=0, confidence=0.847),  # score ~0.7
            constant_agent(1, [0, 0], [1, 1], proposes=1, confidence=2.197),  # score ~0.9
        )
        report = engine.exploit_step(np.array([0.5, 0.5]))
        assert (report.winner_id, report.prediction) == (1, 1)

    def test_tie_resolved_by_vote(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=0),
            constant_agent(1, [0, 0], [1, 1], proposes=1),
            constant_agent(2, [0, 0], [1, 1], proposes=1),
        )
        report = engine.exploit_step(np.array([0.5, 0.5]))
        assert report.prediction == 1
        assert report.winner_id == 1  # lowest id among tied agents proposing class 1

    def test_vote_tie_prefers_smallest_class(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=1),
            constant_agent(1, [0, 0], [1, 1], proposes=0),
        )
        report = engine.exploit_step(np.array([0.5, 0.5]))
        assert (report.winner_id, report.prediction) == (1, 0)

    def test_empty_set_rejected(self):
        engine = engine_with(next_agent_id=1)  # its one agent is gone
        assert len(engine.agents) == 0 and not engine.agents
        with pytest.raises(RuntimeError):
            engine.exploit_step(np.array([0.5, 0.5]))
        with pytest.raises(RuntimeError):
            engine.predict_batch(np.array([[0.5, 0.5]]))


class TestIncompetence:
    def test_first_observation_creates_agent(self):
        engine = make_engine(init_radius=0.5)
        x = np.array([0.3, 0.4])
        report = engine.explore_step(x, 1)
        assert len(engine.agents) == 1
        [agent] = engine.snapshot()["agents"]
        assert np.allclose(agent["region"]["lower"], [-0.2, -0.1])
        assert np.allclose(agent["region"]["upper"], [0.8, 0.9])
        assert volume(*region(agent)) == pytest.approx(1.0, rel=1e-9)  # (2R)^p
        assert agent["confidence"] == 0.0
        assert agent["model"]["step_count"] == 1
        assert report.activated_ids == []
        assert report.winner_id is None
        assert report.prediction == 1
        assert [e.kind for e in report.ncs_events] == [NcsKind.INCOMPETENCE]
        assert report.ncs_events[0].resolution is Resolution.CREATE

    def test_spawn_overlapping_same_class_pushes(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=1, confidence=5.0),
            init_radius=0.5, overlap_threshold=0.5,
        )
        report = engine.explore_step(np.array([1.2, 0.5]), 1)
        kinds = [(e.kind, e.resolution) for e in report.ncs_events]
        assert (NcsKind.INCOMPETENCE, Resolution.CREATE) in kinds
        assert (NcsKind.COMPETITION, Resolution.PUSH) in kinds
        agents = agents_by_id(engine)
        assert intersection_volume(region(agents[0]), region(agents[1])) == 0.0

    def test_spawn_inside_same_class_agent_is_absorbed(self):
        # the created box [0.92, 1.12] x [-0.1, 0.1] lies 40% inside the old agent's
        old = constant_agent(0, [-1, -1], [1, 1], proposes=1, confidence=5.0)
        engine = engine_with(old, init_radius=0.1, overlap_threshold=0.2)
        report = engine.explore_step(np.array([1.02, 0.0]), 1)
        assert report.ncs_events[0].participants == (1,)  # the created agent
        assert (NcsKind.COMPETITION, Resolution.ABSORB) in [(e.kind, e.resolution) for e in report.ncs_events]
        assert list(agents_by_id(engine)) == [0]
        assert row_box(engine, 0)[1].tolist() == [1.02 + 0.1, 1.0]  # enclosed the created box
        assert engine.agents.confidence[0] == old["confidence"]


class TestCompetitionAndConflict:
    def test_heavy_same_class_overlap_absorbs(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=1),
            constant_agent(1, [0.25, 0], [0.75, 1], proposes=1),  # overlap index 1.0
            overlap_threshold=0.5,
        )
        report = engine.explore_step(np.array([0.5, 0.5]), 1)
        assert report.prediction == 1
        assert [(e.kind, e.resolution) for e in report.ncs_events] == [
            (NcsKind.COMPETITION, Resolution.ABSORB)
        ]
        assert report.ncs_events[0].participants == (0, 1)
        assert list(agents_by_id(engine)) == [0]  # b is gone
        # absorber's region covers both previous regions
        a = row_box(engine, 0)
        assert contains(*a, np.array([0.0, 0.0])) and contains(*a, np.array([1.0, 1.0]))

    def test_light_same_class_overlap_pushes(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=1, confidence=1.0),
            constant_agent(1, [0.8, 0], [1.8, 1], proposes=1),  # overlap index 0.2
            overlap_threshold=0.5,
        )
        report = engine.explore_step(np.array([0.9, 0.5]), 1)
        assert [(e.kind, e.resolution) for e in report.ncs_events] == [
            (NcsKind.COMPETITION, Resolution.PUSH)
        ]
        assert len(engine.agents) == 2
        assert intersection_volume(row_box(engine, 0), row_box(engine, 1)) == 0.0

    def test_no_threshold_competition_always_pushes(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=1, confidence=1.0),
            constant_agent(1, [0.05, 0], [0.95, 1], proposes=1),
            overlap_threshold=None,
        )
        report = engine.explore_step(np.array([0.5, 0.5]), 1)
        # fully contained pushee cannot be separated: push falls back to absorb
        assert [(e.kind, e.resolution) for e in report.ncs_events] == [
            (NcsKind.COMPETITION, Resolution.ABSORB)
        ]

    def test_conflict_pushes_loser_off(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=1),
            constant_agent(1, [0.5, 0], [1.5, 1], proposes=0),
        )
        report = engine.explore_step(np.array([0.75, 0.5]), 1)  # a right, b wrong
        assert [(e.kind, e.resolution) for e in report.ncs_events] == [
            (NcsKind.CONFLICT, Resolution.PUSH)
        ]
        assert report.ncs_events[0].participants == (0, 1)
        a, b = agents_by_id(engine).values()
        assert intersection_volume(region(a), region(b)) == 0.0
        assert contains(*region(b), np.array([1.25, 0.5]))  # kept the non-overlapping part
        assert b["confidence"] == -engine.cfg.penalty_weight
        assert a["confidence"] == engine.cfg.reward_weight

    def test_disjoint_pair_is_left_alone(self):
        # both boxes hold the point on their shared face, but touching is not overlapping
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=1),
            constant_agent(1, [1, 0], [2, 1], proposes=0),
        )
        report = engine.explore_step(np.array([1.0, 0.5]), 1)
        assert report.activated_ids == [0, 1]
        assert report.ncs_events == []
        assert len(engine.agents) == 2


class TestExploreInvariants:
    @staticmethod
    def train_data(n=60, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(n, 2))
        Y = ((X[:, 0] ** 2 + X[:, 1] ** 2) < 2.0).astype(int)
        return X, Y

    def test_disagreeing_proposers_end_disjoint(self):
        X, Y = self.train_data()
        engine = Engine(
            EngineConfig(init_radius=0.5, resize_factor=0.1, overlap_threshold=0.5),
            PA1,
            dim=2,
        )
        for x, y in zip(X, Y):
            proposals = {
                i: int(np.dot(a["model"]["weights"], x) + a["model"]["bias"] >= 0.0)
                for i, a in agents_by_id(engine).items()
                if contains(*region(a), x)
            }
            engine.explore_step(x, int(y))
            alive = agents_by_id(engine)
            for i, j in combinations(proposals, 2):
                if proposals[i] != proposals[j] and i in alive and j in alive:
                    assert intersection_volume(region(alive[i]), region(alive[j])) == 0.0

    def test_population_bounded_by_observations(self):
        X, Y = self.train_data()
        engine = Engine(EngineConfig(init_radius=0.2, resize_factor=0.1), PA1, dim=2)
        engine.train(X, Y)
        assert len(engine.agents) <= X.shape[0]
        assert engine.cycle == X.shape[0]

    def test_agent_ids_unique_and_monotone(self):
        X, Y = self.train_data()
        engine = Engine(
            EngineConfig(init_radius=0.3, resize_factor=0.2, overlap_threshold=0.2,
                         exploration_passes=2),
            PA1,
            dim=2,
        )
        engine.train(X, Y)
        ids = engine.agents.id.tolist()
        assert len(ids) == len(set(ids))
        assert max(ids) < engine._next_id

    def test_cycle_counts_every_observation(self):
        X, Y = self.train_data(n=20)
        engine = Engine(EngineConfig(init_radius=0.3, exploration_passes=3), PA1, dim=2)
        engine.train(X, Y)
        assert engine.cycle == 60

    def test_rejects_label_outside_universe(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.explore_step(np.array([0.0, 0.0]), 2)

    def test_train_writes_the_trace_of_an_explore_step_loop(self):
        X, Y = self.train_data(n=50)
        cfg = EngineConfig(init_radius=0.4, resize_factor=0.1, overlap_threshold=0.5, exclude_points=True,
                           seed=4, exploration_passes=2)
        trained, trace = Engine(cfg, PA1, dim=2), io.StringIO()
        trained.train(X, Y, trace=trace)
        stepped, lines = Engine(cfg, PA1, dim=2), []
        order = np.random.default_rng(cfg.seed)
        for _ in range(cfg.exploration_passes):
            for i in order.permutation(X.shape[0]):
                lines.append(json.dumps(stepped.explore_step(X[i], int(Y[i])).to_dict(), sort_keys=True) + "\n")
        assert trace.getvalue() == "".join(lines)
        assert trained.to_json() == stepped.to_json()

    def test_trace_emits_one_line_per_cycle(self):
        X, Y = self.train_data(n=15)
        engine = Engine(EngineConfig(init_radius=0.3), PA1, dim=2)
        buffer = io.StringIO()
        engine.train(X, Y, trace=buffer)
        lines = [line for line in buffer.getvalue().splitlines() if line]
        assert len(lines) == 15
        parsed = json.loads(lines[0])
        assert set(parsed) == {"cycle", "activated_ids", "winner_id", "prediction", "ncs_events"}
        assert parsed["prediction"] in (0, 1)


class TestExploitation:
    def test_single_covering_agent_answers(self):
        engine = engine_with(constant_agent(0, [0, 0], [1, 1], proposes=1))
        report = engine.exploit_step(np.array([0.5, 0.5]))
        assert report.prediction == 1
        assert report.winner_id == 0
        assert report.ncs_events == []

    def test_uncovered_point_uses_nearest_agent(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=0),
            constant_agent(1, [4, 0], [5, 1], proposes=1),
        )
        report = engine.exploit_step(np.array([1.5, 0.5]))  # 0.5 from a0, 2.5 from a1
        assert report.prediction == 0
        assert report.winner_id == 0
        assert [(e.kind, e.resolution) for e in report.ncs_events] == [
            (NcsKind.INCOMPETENCE, Resolution.NEAREST)
        ]

    def test_equidistant_tie_prefers_lowest_id(self):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=0),
            constant_agent(1, [3, 0], [4, 1], proposes=1),
        )
        report = engine.exploit_step(np.array([2.0, 0.5]))  # exactly 1.0 from both
        assert report.winner_id == 0
        assert report.prediction == 0

    def test_untrained_engine_rejects_prediction(self):
        engine = make_engine()
        with pytest.raises(RuntimeError):
            engine.exploit_step(np.array([0.0, 0.0]))
        with pytest.raises(RuntimeError):
            engine.predict_batch(np.zeros((3, 2)))

    def test_exploitation_never_mutates(self):
        X, Y = TestExploreInvariants.train_data()
        engine = Engine(
            EngineConfig(init_radius=0.4, resize_factor=0.1, overlap_threshold=0.5),
            PA1,
            dim=2,
        )
        engine.train(X, Y)
        before = engine.to_json()
        grid = np.random.default_rng(0).uniform(-3, 3, size=(300, 2))
        first = engine.predict_batch(grid)
        second = engine.predict_batch(grid)
        assert engine.to_json() == before
        assert np.array_equal(first, second)

    def test_batch_matches_per_point_exploitation(self):
        X, Y = TestExploreInvariants.train_data(n=80, seed=5)
        engine = Engine(
            EngineConfig(init_radius=0.4, resize_factor=0.1, overlap_threshold=0.2,
                         exploration_passes=2),
            PA1,
            dim=2,
        )
        engine.train(X, Y)
        points = np.random.default_rng(1).uniform(-3, 3, size=(200, 2))
        batch = engine.predict_batch(points)
        single = np.array([engine.exploit_step(p).prediction for p in points])
        assert np.array_equal(batch, single)

    def test_nearest_agent_sees_subnormal_gaps(self):
        # squared, both gaps underflow to 0 and agent 0 would win the distance tie
        engine = engine_with(
            constant_agent(0, [1e-170, 0], [1, 1], proposes=0),
            constant_agent(1, [-1, 0], [-1e-200, 1], proposes=1),
        )
        x = np.array([0.0, 0.5])
        assert engine.exploit_step(x).winner_id == 1
        assert engine.predict(x) == 1
        assert engine.predict_batch(x[None, :]).tolist() == [1]

    def test_batch_memory_does_not_grow_with_rows(self):
        # the serve lattice size: about 22,500 rows against 132 agents
        rng = np.random.default_rng(4)
        corners = rng.uniform(-3.0, 3.0, size=(132, 2))
        engine = engine_with(*[constant_agent(k, lo, lo + 0.5, proposes=k % 2) for k, lo in enumerate(corners)])
        block = rng.uniform(-3.5, 3.5, size=(DECIDE_BLOCK_ROWS, 2))
        X = np.tile(block, (22, 1))

        def peak(rows: np.ndarray) -> int:
            tracemalloc.start()
            try:
                engine.predict_batch(rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, whole = peak(block), peak(X)
        masks = 2 * X.shape[0] * len(engine.agents)  # bytes of whole-input activation and vote masks
        assert whole < masks
        assert whole < one + 8 * X.shape[0] + 2**16  # one block's temporaries plus the labels

    def test_zero_rows_give_empty_int_array(self):
        engine = engine_with(constant_agent(0, [0, 0], [1, 1], proposes=1))
        out = engine.predict_batch(np.empty((0, 2)))
        assert out.shape == (0,)
        assert out.dtype.kind == "i"

    @given(lattice_populations(), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_batch_equals_single_points_across_blocks(self, agents, seed):
        engine = engine_with(*agents)
        # quarter-lattice points land on faces and corners, inside and outside
        X = np.round(np.random.default_rng(seed).uniform(-3.5, 3.5, size=(1500, 2)) * 4) / 4
        assert X.shape[0] > DECIDE_BLOCK_ROWS
        single = [engine.exploit_step(x).prediction for x in X]
        assert engine.predict_batch(X).tolist() == single


class TestInputValidation:
    @staticmethod
    def trained() -> Engine:
        X, Y = TestExploreInvariants.train_data(n=20)
        return Engine(EngineConfig(init_radius=0.3), PA1, dim=2).train(X, Y)

    def test_non_finite_observation_changes_nothing(self):
        engine = self.trained()
        before = engine.to_json()  # cycle counter and agents
        with pytest.raises(ValueError, match="non-finite"):
            engine.explore_step([np.nan, 0.0], 1)
        assert engine.to_json() == before

    def test_first_observation_is_checked_before_dim_is_fixed(self):
        engine = Engine(EngineConfig(), PA1)
        with pytest.raises(ValueError, match="non-finite"):
            engine.explore_step([np.nan, 0.0], 1)
        assert engine.dim is None
        assert engine.cycle == 0 and len(engine.agents) == 0

    def test_unrepresentable_first_region_changes_nothing(self):
        # at 1e17 a half-width of 0.1 rounds away: the new region's bounds coincide
        engine = Engine(EngineConfig(init_radius=0.1), PA1)
        before = engine.snapshot()
        with pytest.raises(ValueError, match="strictly below"):
            engine.explore_step([1e17, 0.0], 1)
        assert engine.dim is None
        assert engine.snapshot() == before

    def test_non_finite_training_row_rejected_up_front(self):
        X, Y = TestExploreInvariants.train_data(n=20)
        X[15, 1] = np.inf
        engine = Engine(EngineConfig(), PA1, dim=2)
        with pytest.raises(ValueError, match="non-finite"):
            engine.train(X, Y)
        assert engine.cycle == 0 and len(engine.agents) == 0

    def test_non_finite_point_rejected(self):
        engine = self.trained()
        with pytest.raises(ValueError, match="non-finite"):
            engine.predict([np.nan, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            engine.predict_batch([[0.0, 0.0], [np.inf, 0.0]])

    def test_non_binary_labels_rejected_before_training(self):
        engine = self.trained()
        before = engine.to_json()
        with pytest.raises(ValueError, match="label"):
            engine.train([[0.0, 0.0], [1.0, 1.0]], [0.5, 1.7])
        assert engine.to_json() == before
        fresh = Engine(EngineConfig(), PA1)
        with pytest.raises(ValueError, match="label"):
            fresh.train([[0.0, 0.0], [1.0, 1.0]], [1, 2])
        assert fresh.dim is None and fresh.cycle == 0 and len(fresh.agents) == 0

    @pytest.mark.parametrize("bad", ["late non-finite row", "wrong dimension", "late bad label",
                                     "label count", "no rows"])
    def test_bad_training_input_changes_nothing(self, bad):
        # train checks all of its input before the first cycle, which runs unchecked
        X, Y = TestExploreInvariants.train_data(n=20, seed=8)
        if bad == "late non-finite row":
            X[-1, 0] = np.nan
        elif bad == "wrong dimension":
            X = np.hstack([X, X[:, :1]])
        elif bad == "late bad label":
            Y[-1] = 2
        elif bad == "label count":
            Y = Y[:-1]
        else:
            X, Y = X[:0], Y[:0]
        engine = self.trained()
        before = engine.to_json()
        with pytest.raises(ValueError):
            engine.train(X, Y)
        assert engine.to_json() == before

    def test_wrong_dimension_rejected(self):
        engine = self.trained()
        with pytest.raises(ValueError, match="dimension 3, engine has 2"):
            engine.predict([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="dimension 3, engine has 2"):
            engine.explore_step([0.0, 0.0, 0.0], 1)
        with pytest.raises(ValueError, match="dimension 1, engine has 2"):
            engine.predict_batch(np.zeros((4, 1)))
        with pytest.raises(ValueError, match="2-d matrix"):
            engine.predict_batch([0.0, 0.0])
        with pytest.raises(ValueError, match="1-d point"):
            engine.predict([[0.0, 0.0]])


def reachable_objects(root) -> int:
    """Objects reachable from ``root``, breadth first, leaving out types and the shared configs.

    Scalars count once per reference, so that two engines of the same
    shape count the same whatever their values.
    """
    seen, queue, count = {id(root)}, deque([root]), 0
    while queue:
        obj = queue.popleft()
        count += 1
        for ref in gc.get_referents(obj):
            if id(ref) in seen or isinstance(ref, (type, EngineConfig, LinearModelConfig)):
                continue
            if not isinstance(ref, (int, float, str)):
                seen.add(id(ref))
            queue.append(ref)
    return count


class TestRowOperations:
    def test_training_builds_no_hypercube(self, monkeypatch):
        built = []
        post_init = Hypercube.__post_init__

        def counted(box):
            built.append(box)
            post_init(box)

        monkeypatch.setattr(Hypercube, "__post_init__", counted)
        ds = standardize(gen_circles(n=100, noise=0.2, factor=0.5, seed=8))
        cfg = EngineConfig(init_radius=0.2, overlap_threshold=0.5, exclude_points=True,
                           resize_factor=0.1, penalty_weight=1.0, seed=5, exploration_passes=2)
        engine = Engine(cfg, PA1, dim=2).train(ds.X, ds.Y)
        assert len(engine.agents) > 10 and built == []
        Hypercube([0.0], [1.0])
        assert len(built) == 1  # the counter sees a construction


class TestPopulationInvariants:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(), st.booleans(),
           st.sampled_from([None, 0.2, 0.5]))
    @settings(max_examples=25, deadline=None)
    def test_arrays_stay_consistent_over_random_streams(self, seed, dim, lattice, exclude, overlap):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(60, dim))
        if lattice:  # shared faces and repeated points
            X = np.round(X * 2) / 2
        Y = rng.integers(0, 2, size=60)
        cfg = EngineConfig(init_radius=0.5, resize_factor=0.2, overlap_threshold=overlap,
                           exclude_points=exclude)
        engine = Engine(cfg, PA1)
        for x, y in zip(X, Y):
            engine.explore_step(x, int(y))
            pop = engine.agents
            m = len(pop)
            assert all(getattr(pop, name).shape[0] == m for name in pop.FIELDS)
            assert pop.lower.shape == pop.upper.shape == pop.weights.shape == (m, dim)
            assert np.all(np.diff(pop.id) > 0)
            assert np.all(pop.lower < pop.upper)
            assert pop.score.tolist() == [_sigmoid(c) for c in pop.confidence.tolist()]
            assert Engine.from_snapshot(engine.snapshot()).to_json() == engine.to_json()

    def test_growth_and_compaction_keep_every_row(self):
        # a twin rebuilt from the snapshot before every step holds exactly its live rows
        ds = standardize(gen_circles(n=300, noise=0.2, factor=0.5, seed=8))
        cfg = EngineConfig(init_radius=0.15, resize_factor=0.2, overlap_threshold=0.2, seed=3)
        engine, capacities, absorptions = Engine(cfg, PA1, dim=2), set(), 0
        for x, y in zip(ds.X, ds.Y):
            twin = Engine.from_snapshot(engine.snapshot())
            report = engine.explore_step(x, int(y))
            assert twin.explore_step(x, int(y)) == report
            assert engine.to_json() == twin.to_json()
            absorptions += sum(e.resolution is Resolution.ABSORB for e in report.ncs_events)
            pop = engine.agents
            capacity = pop.id.base.shape[0]
            assert all(getattr(pop, name).base.shape[0] == capacity for name in pop.FIELDS)
            capacities.add(capacity)
        assert len(pop) > 2 * pop.INITIAL_CAPACITY and len(capacities) > 3 and absorptions > 10

    def test_object_count_does_not_grow_with_the_population(self):
        def trained(n, radius):
            ds = standardize(gen_circles(n=n, noise=0.2, factor=0.5, seed=8))
            cfg = EngineConfig(init_radius=radius, overlap_threshold=0.5, exclude_points=True,
                               resize_factor=0.1, seed=5)
            return Engine(cfg, PA1, dim=2).train(ds.X, ds.Y)

        small, large = trained(100, 0.3), trained(1000, 0.1)
        assert len(small.agents) < 50 and len(large.agents) > 300
        assert reachable_objects(small) == reachable_objects(large)


class TestDeterminismAndPersistence:
    def test_identical_runs_are_byte_identical(self):
        X, Y = TestExploreInvariants.train_data(n=70, seed=9)
        cfg = EngineConfig(init_radius=0.3, resize_factor=0.1, overlap_threshold=0.5,
                           exclude_points=True, seed=123, exploration_passes=2)
        a = Engine(cfg, PA1, dim=2).train(X, Y)
        b = Engine(cfg, PA1, dim=2).train(X, Y)
        assert a.to_json() == b.to_json()
        pts = np.random.default_rng(2).uniform(-3, 3, size=(100, 2))
        assert np.array_equal(a.predict_batch(pts), b.predict_batch(pts))

    def test_snapshot_roundtrip_preserves_predictions(self):
        X, Y = TestExploreInvariants.train_data(n=40, seed=21)
        engine = Engine(EngineConfig(init_radius=0.3, resize_factor=0.1), PA1, dim=2)
        engine.train(X, Y)
        restored = Engine.from_snapshot(json.loads(engine.to_json()))
        assert restored.to_json() == engine.to_json()
        pts = np.random.default_rng(3).uniform(-3, 3, size=(50, 2))
        assert np.array_equal(restored.predict_batch(pts), engine.predict_batch(pts))

    def test_single_point_training_predicts_its_label(self):
        engine = Engine(EngineConfig(init_radius=0.2), PA1, dim=2)
        engine.train(np.array([[0.4, -0.2]]), np.array([1]))
        assert engine.predict(np.array([0.4, -0.2])) == 1

    @pytest.mark.parametrize("agent_ids,next_agent_id", [([0], 0), ([0, 3], 3), ([2, 5], 1)])
    def test_next_agent_id_must_exceed_every_id(self, agent_ids, next_agent_id):
        # a lower counter would hand a live agent's id to the next created agent
        agents = [agent_dict(i, [2 * i, 0], [2 * i + 1, 1]) for i in agent_ids]
        with pytest.raises(ValueError, match="next_agent_id"):
            engine_with(*agents, next_agent_id=next_agent_id)
        engine = engine_with(*agents, next_agent_id=max(agent_ids) + 1)
        engine.explore_step([-5.0, -5.0], 1)  # uncovered: creates an agent
        assert engine.agents.id.tolist() == [*agent_ids, max(agent_ids) + 1]

    @pytest.mark.parametrize("field,value", [
        ("confidence", float("nan")), ("weights", [float("nan"), 0.0]), ("bias", float("nan")),
        ("bias", float("inf")), ("upper", [1.0, float("inf")]),
    ])
    def test_non_finite_snapshot_values_rejected(self, field, value):
        # a NaN confidence once loaded silently and changed predict_batch labels
        agents = [agent_dict(0, [0, 0], [1, 1]), agent_dict(1, [2, 0], [3, 1])]
        a = agents[0]
        {"confidence": a, "weights": a["model"], "bias": a["model"], "upper": a["region"]}[field][field] = value
        with pytest.raises(ValueError, match="finite"):
            engine_with(*agents)

    def test_snapshot_of_older_format_loads(self):
        # written by the quickstart config on 20 circles points before snapshots dropped the
        # config's "normalization", each agent's "creation_cycle" and its copy of the model config
        old = json.loads((Path(__file__).parent / "data" / "old_format_snapshot.json").read_text())
        engine = Engine.from_snapshot(old)
        ds = standardize(gen_circles(n=20, noise=0.2, factor=0.5, seed=8))
        X = np.vstack([ds.X, np.random.default_rng(0).uniform(-2.0, 2.0, size=(40, 2))])
        labels = "000000000011111111110001010011111011110011011100000010000100"  # the older version's
        assert "".join(map(str, engine.predict_batch(X).tolist())) == labels
        del old["config"]["normalization"]
        for agent in old["agents"]:
            del agent["creation_cycle"]
            agent["model"] = {k: agent["model"][k] for k in ("weights", "bias", "step_count")}
        assert engine.to_json() == json.dumps(old, sort_keys=True)


class TestEndToEndSmoke:
    def test_circles_training_accuracy(self):
        ds = standardize(gen_circles(n=100, noise=0.2, factor=0.5, seed=8))
        cfg = EngineConfig(init_radius=0.2, overlap_threshold=0.5, exclude_points=True,
                           resize_factor=0.1, penalty_weight=1.0, seed=5,
                           exploration_passes=2)
        engine = Engine(cfg, PA1, dim=2).train(ds.X, ds.Y)
        accuracy = float(np.mean(engine.predict_batch(ds.X) == ds.Y))
        assert accuracy >= 0.75
