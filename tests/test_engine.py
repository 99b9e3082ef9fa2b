"""Engine cycle tests: incompetence, competition, conflict, exploitation."""

import gc
import hashlib
import io
import json
import math
import re
import tracemalloc
from collections import deque
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import cooptile.engine as engine_module
from cooptile.agents import EngineConfig
from cooptile.datasets import gen_circles, standardize
from cooptile.engine import DECIDE_BLOCK_ROWS, Engine, NcsKind, Resolution
from cooptile.geometry import Bounds, Hypercube, contains, overlap_volume, overlap_widths, volume
from cooptile.linear import LinearModelConfig, ModelKind

from engines import PA1, agent_dict, constant_agent, engine_with, row_box


def snapshot_path(keys) -> str:
    """The path a snapshot reader names for the value under ``keys``, such as ``snapshot.agents[1].id``."""
    return "snapshot" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def agents_by_id(engine: Engine) -> dict[int, dict]:
    return {a["id"]: a for a in engine.snapshot()["agents"]}


def region(agent: dict) -> Bounds:
    return np.array(agent["region"]["lower"]), np.array(agent["region"]["upper"])


def intersection_volume(a: Bounds, b: Bounds) -> float:
    return overlap_volume(overlap_widths(*a, *b))


def train_data(n=60, seed=3):
    """``n`` uniform points of [-2, 2]^2, labelled 1 inside the circle of radius sqrt(2)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    Y = ((X[:, 0] ** 2 + X[:, 1] ** 2) < 2.0).astype(int)
    return X, Y


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
        engine = engine_with(next_agent_id=1, dim=2)  # its one agent is gone
        assert len(engine.agents) == 0 and not engine.agents
        with pytest.raises(RuntimeError):
            engine.exploit_step(np.array([0.5, 0.5]))
        with pytest.raises(RuntimeError):
            engine.predict_batch(np.array([[0.5, 0.5]]))
        with pytest.raises(RuntimeError):
            engine.predict_batch(np.empty((0, 2)))


@st.composite
def exploited_populations(draw):
    """A point and an engine of dimension 1..6 whose agents contain it or miss it by gaps that are often
    equal or subnormal, with scores tied exactly or within ``SCORE_TIE_TOL``, and margins often exactly zero."""
    dim = draw(st.integers(1, 6))
    x = [draw(st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-2, 2)) for _ in range(dim)]
    uncovered = draw(st.booleans())  # every agent misses the point, else about a quarter of them
    agents = []
    for k in range(draw(st.integers(1, 8))):
        misses = uncovered or not draw(st.integers(0, 3))
        missed = draw(st.sets(st.integers(0, dim - 1), min_size=1)) if misses else set()
        lo, up = [], []
        for axis, v in enumerate(x):
            reach = draw(st.floats(0.01, 2.0))
            if axis not in missed:
                lo.append(v - reach)
                up.append(v + reach)
                continue
            gap = draw(st.sampled_from([0.5, 1.0, 2.2e-313]) | st.floats(1e-3, 2.0))
            if draw(st.booleans()):
                lo.append(v + gap)
                up.append(v + gap + reach)
            else:
                lo.append(v - gap - reach)
                up.append(v - gap)
        weights = [draw(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1, 1)) for _ in range(dim)]
        bias = draw(st.sampled_from([-0.5, 0.0, 0.5]) | st.floats(-1, 1))
        confidence = draw(st.sampled_from([0.0, 1e-13, -1e-13, 0.5, -0.5]))
        agents.append(agent_dict(k, lo, up, weights, bias, confidence))
    return engine_with(*agents), np.array(x)


@st.composite
def boxes_and_a_point(draw):
    """One to three boxes of dimension 1..4, and a point of [-10, 10]^d that they may miss."""
    dim, regions = draw(st.integers(1, 4)), []
    for _ in range(draw(st.integers(1, 3))):
        lo = [draw(st.floats(-3, 3)) for _ in range(dim)]
        regions.append((lo, [v + draw(st.floats(0.05, 4)) for v in lo]))
    return regions, [draw(st.floats(-10, 10)) for _ in range(dim)]


def boxes_off_the_origin(*gaps) -> tuple[Engine, np.ndarray]:
    """The origin in dimension 3 and an engine of one box per entry of ``gaps``, each box missing the
    origin by that gap along each axis and proposing class 1 for agent 0, class 0 for the others."""
    agents = [agent_dict(k, gap, [2.0, 2.0, 2.0], bias=-1.0 if k else 1.0) for k, gap in enumerate(gaps)]
    return engine_with(*agents), np.zeros(3)


class TestIncompetence:
    def test_first_observation_creates_agent(self):
        engine = engine_with(dim=2, init_radius=0.5)
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

    def test_an_absorption_does_not_regrow_over_a_pushed_disagreeing_box(self):
        # a stream Hypothesis found: in its last cycle agent 1 pushes agent 0 off, then absorbs agent 2, and the
        # enclosure grew agent 1 back over agent 0 until a second pass arbitrated the pair again
        cfg = EngineConfig(init_radius=0.5, resize_factor=0.2, overlap_threshold=0.5, exclude_points=True,
                           train_on_correct=False)
        engine = Engine(cfg, PA1, dim=1)
        for x, y in [(0.0, 0), (0.0, 1), (-1.0, 0), (-1.0, 0), (-0.5, 0), (-0.5, 0), (0.0, 0), (0.0, 0), (-1.0, 0)]:
            engine.explore_step([x], y)
        assert (engine._margins(np.array([-0.5])) >= 0.0).tolist() == [True, False, False]
        report = engine.explore_step([-0.5], 1)
        assert [(e.participants, e.resolution) for e in report.ncs_events] == [
            ((1, 0), Resolution.PUSH), ((1, 2), Resolution.ABSORB), ((1, 0), Resolution.PUSH)
        ]
        assert intersection_volume(row_box(engine, 0), row_box(engine, 1)) == 0.0

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
    def test_rejects_label_outside_universe(self):
        engine = engine_with(dim=2)
        with pytest.raises(ValueError):
            engine.explore_step(np.array([0.0, 0.0]), 2)

    def test_untraced_training_builds_no_report(self, monkeypatch):
        built = []
        monkeypatch.setattr(engine_module, "CycleReport", lambda *args: built.append(args))
        monkeypatch.setattr(engine_module, "NcsEvent", lambda *args: built.append(args))
        ds = standardize(gen_circles(n=100, noise=0.2, factor=0.5, seed=8))
        cfg = EngineConfig(init_radius=0.2, overlap_threshold=0.5, resize_factor=0.1, seed=5, exploration_passes=2)
        engine = Engine(cfg, PA1, dim=2).train(ds.X, ds.Y)
        assert len(engine.agents) > 10 and built == []
        engine.explore_step([9.0, 9.0], 1)
        assert len(built) == 2  # the counters see an event and a report

    def test_trace_emits_one_line_per_cycle(self):
        X, Y = train_data(n=15)
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

    @staticmethod
    def nearest(x, *regions) -> int:
        """The id of the zero-model agent, one per region of ``regions``, that answers the uncovered point ``x``."""
        report = engine_with(*[agent_dict(k, *box) for k, box in enumerate(regions)]).exploit_step(np.asarray(x))
        assert [e.resolution for e in report.ncs_events] == [Resolution.NEAREST]
        return report.winner_id

    def test_nearest_across_an_axis_gap(self):
        # agent 0 lies 1.0 from the point along axis 0, agent 1 1.0 +- 1e-6 on the other side
        x = [2.0, 0.5]
        assert self.nearest(x, ([0, 0], [1, 1]), ([3 + 1e-6, 0], [4, 1])) == 0
        assert self.nearest(x, ([0, 0], [1, 1]), ([3 - 1e-6, 0], [4, 1])) == 1

    def test_nearest_across_a_corner_gap(self):
        # agent 0's corner lies sqrt(2) from the point, agent 1's face sqrt(2) +- 1e-6
        x, far = [2.0, 2.0], 2.0 + math.sqrt(2)
        assert self.nearest(x, ([0, 0], [1, 1]), ([far + 1e-6, 0], [6, 4])) == 0
        assert self.nearest(x, ([0, 0], [1, 1]), ([far - 1e-6, 0], [6, 4])) == 1

    @given(boxes_and_a_point())
    @example(([([-1.0], [-4.4e-313]), ([2.2e-313], [1.0])], [0.0]))  # squared gaps underflow
    @settings(max_examples=150)
    def test_nearest_matches_projection_oracle(self, case):
        regions, x = [(np.array(lo), np.array(up)) for lo, up in case[0]], np.array(case[1])
        # math.dist scales before squaring, so subnormal gaps stay apart
        distances = [math.dist(x, np.clip(x, lo, up)) for lo, up in regions]
        report = engine_with(*[agent_dict(k, lo, up) for k, (lo, up) in enumerate(regions)]).exploit_step(x)
        assert (report.activated_ids == []) == (min(distances) > 0.0)
        assert (min(distances) == 0.0) == any(contains(lo, up, x) for lo, up in regions)
        if not report.activated_ids:
            assert distances[report.winner_id] == pytest.approx(min(distances), rel=1e-9, abs=0.0)

    def test_untrained_engine_rejects_prediction(self):
        engine = engine_with(dim=2)
        with pytest.raises(RuntimeError):
            engine.exploit_step(np.array([0.0, 0.0]))
        with pytest.raises(RuntimeError):
            engine.predict(np.array([0.0, 0.0]))
        with pytest.raises(RuntimeError):
            engine.predict_batch(np.zeros((3, 2)))
        with pytest.raises(RuntimeError):
            engine.predict_batch(np.empty((0, 2)))

    @given(exploited_populations(), st.integers(0, 1))
    @example(boxes_off_the_origin([0.5, 0.5, 0.0], [0.0, 0.5, 0.5]), 0)  # equal distances: the lowest id answers
    # one ulp apart: the axes summed in reverse would pick agent 1
    @example(boxes_off_the_origin([0.1, 0.2, 0.7], [0.7, 0.2, 0.1]), 0)
    @settings(max_examples=300, deadline=None)
    def test_point_rule_equals_block_rule(self, case, y):
        # a single point is decided on its own path, in exploitation and in exploration (on the activated rows
        # alone): the answer of ``_decide`` on its one-row block
        engine, x = case
        X = x[None, :]
        inside = engine._activation(X)
        labels, winners, votes = engine._decide(X, inside)
        ids = engine.agents.id
        label, winner_id = int(labels[0]), int(ids[winners[0]])  # read before exploration can drop rows
        report = engine.exploit_step(x)
        assert (report.prediction, report.winner_id) == (label, winner_id)
        assert report.activated_ids == ids[inside[0]].tolist()
        assert len(report.ncs_events) == (not inside.any())
        assert engine.predict(x) == label
        active = inside[0].nonzero()[0]
        if not active.size:  # both paths share the nearest-box kernel: pin it to its reference order
            pop = engine.agents
            gap = np.maximum(np.maximum(pop.lower - x, x - pop.upper), 0.0)
            assert winner_id == int(ids[np.hypot.reduce(gap, axis=-1).argmin()])
            return
        assert engine._decide_activated(x, active) == (label, int(winners[0]), votes[0, active].astype(int).tolist())
        report = engine.explore_step(x, y)
        assert (report.prediction, report.winner_id) == (label, winner_id)

    def test_predict_builds_no_report(self, monkeypatch):
        engine = engine_with(
            constant_agent(0, [0, 0], [1, 1], proposes=1),
            constant_agent(1, [3, 0], [4, 1], proposes=0),
        )

        def no_report(*args, **kwargs):
            raise AssertionError("predict built a CycleReport")

        monkeypatch.setattr(engine_module, "CycleReport", no_report)
        assert engine.predict(np.array([0.5, 0.5])) == 1  # covered by agent 0
        assert engine.predict(np.array([3.4, 2.0])) == 0  # uncovered: agent 1 is nearest

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
        X, Y = train_data(n=20)
        return Engine(EngineConfig(init_radius=0.3), PA1, dim=2).train(X, Y)

    def test_non_finite_observation_changes_nothing(self):
        engine = self.trained()
        before = engine.to_json()  # cycle counter and agents
        with pytest.raises(ValueError, match="non-finite"):
            engine.explore_step([np.nan, 0.0], 1)
        assert engine.to_json() == before

    def test_first_observation_is_checked_before_dim_is_fixed(self):
        engine = Engine(EngineConfig(), PA1, dim=2)
        with pytest.raises(ValueError, match="non-finite"):
            engine.explore_step([np.nan, 0.0], 1)
        assert engine.cycle == 0 and len(engine.agents) == 0

    def test_unrepresentable_first_region_changes_nothing(self):
        # at 1e17 a half-width of 0.1 rounds away: the new region's bounds coincide
        engine = Engine(EngineConfig(init_radius=0.1), PA1, dim=2)
        before = engine.snapshot()
        with pytest.raises(ValueError, match="strictly below"):
            engine.explore_step([1e17, 0.0], 1)
        assert engine.snapshot() == before

    def test_non_finite_training_row_rejected_up_front(self):
        X, Y = train_data(n=20)
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
        fresh = Engine(EngineConfig(), PA1, dim=2)
        with pytest.raises(ValueError, match="label"):
            fresh.train([[0.0, 0.0], [1.0, 1.0]], [1, 2])
        assert fresh.cycle == 0 and len(fresh.agents) == 0

    @pytest.mark.parametrize("bad", ["late non-finite row", "wrong dimension", "late bad label",
                                     "label count", "no rows"])
    def test_bad_training_input_changes_nothing(self, bad):
        # train checks all of its input before the first cycle, which runs unchecked
        X, Y = train_data(n=20, seed=8)
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

    @pytest.mark.parametrize("dim", [None, 0, -1, True, 2.0])
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            Engine(EngineConfig(), PA1, dim=dim)
        # older versions wrote "dim": null for an untrained engine, whose snapshot holds no agents
        snap = {**self.trained().snapshot(), "agents": [], "next_agent_id": 0, "dim": dim}
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            Engine.from_snapshot(snap)

    def test_dimension_has_no_default(self):
        with pytest.raises(TypeError):
            Engine(EngineConfig(), PA1)

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


#: Four coordinates in [-1, 1], of which an engine reads its first ``dim``: on the half-unit lattice, which
#: repeats points and makes boxes share faces, or anywhere.
LATTICE_POINTS = st.lists(st.integers(-2, 2).map(lambda k: k / 2), min_size=4, max_size=4)
FREE_POINTS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)


#: One point on either of them.
POINTS = st.one_of(LATTICE_POINTS, FREE_POINTS)


class EngineMachine(RuleBasedStateMachine):
    """The invariants of the ``engine`` module docstring over random interleavings of exploration, training
    of a twin, exploitation and snapshot round trips."""

    @initialize(dim=st.integers(1, 4), kind=st.sampled_from(ModelKind), exclude=st.booleans(),
                train_on_correct=st.booleans(), overlap=st.sampled_from([None, 0.2, 0.5]),
                radius=st.sampled_from([0.2, 0.5]), resize=st.sampled_from([0.0, 0.1, 0.2]), seed=st.integers(0, 3),
                passes=st.sampled_from([1, 2]))
    def build(self, dim, kind, exclude, train_on_correct, overlap, radius, resize, seed, passes):
        cfg = EngineConfig(init_radius=radius, resize_factor=resize, overlap_threshold=overlap,
                           exclude_points=exclude, train_on_correct=train_on_correct, seed=seed,
                           exploration_passes=passes)
        self.engine = Engine(cfg, LinearModelConfig(kind=kind), dim=dim)
        self.cycles = 0  # exploration cycles run, across round trips

    @rule(x=LATTICE_POINTS, y=st.integers(0, 1))
    def explore_lattice(self, x, y):
        self.explore(np.array(x[:self.engine.dim]), y)

    @rule(x=FREE_POINTS, y=st.integers(0, 1))
    def explore_free(self, x, y):
        self.explore(np.array(x[:self.engine.dim]), y)

    def explore(self, x, y):
        """``explore_step(x, y)``, checking that each surviving activated agent's confidence moved by the
        feedback on its proposal, and that its disagreeing proposers end disjoint; its report."""
        engine, cfg = self.engine, self.engine.cfg
        proposals = dict(zip(engine.agents.id.tolist(), (engine._margins(x) >= 0.0).tolist()))
        confidence = dict(zip(engine.agents.id.tolist(), engine.agents.confidence.tolist()))
        report = engine.explore_step(x, y)
        self.cycles += 1
        rows = {i: row for row, i in enumerate(engine.agents.id.tolist())}
        for a in set(report.activated_ids) & set(rows):
            step = cfg.reward_weight if proposals[a] == y else -cfg.penalty_weight
            assert engine.agents.confidence[rows[a]] == confidence[a] + step
        for a, b in combinations(report.activated_ids, 2):
            if proposals[a] != proposals[b] and a in rows and b in rows:
                assert intersection_volume(row_box(engine, rows[a]), row_box(engine, rows[b])) == 0.0
        return report

    @rule(batch=st.lists(st.tuples(POINTS, st.integers(0, 1)), min_size=1, max_size=8))
    def train_twin(self, batch):
        # a twin's traced train is this engine's explore_step loop in the seeded order, report for report
        X, Y = np.array([x[:self.engine.dim] for x, _ in batch]), [y for _, y in batch]
        twin, trace = Engine.from_snapshot(json.loads(self.engine.to_json())), io.StringIO()
        twin.train(X, Y, trace=trace)
        order, lines = np.random.default_rng(self.engine.cfg.seed), []
        for _ in range(self.engine.cfg.exploration_passes):
            for i in order.permutation(len(batch)).tolist():
                lines.append(json.dumps(self.explore(X[i], Y[i]).to_dict(), sort_keys=True) + "\n")
        assert trace.getvalue() == "".join(lines)
        assert twin.to_json() == self.engine.to_json()

    @rule(block=st.lists(POINTS, min_size=1, max_size=5))
    def exploit(self, block):
        engine = self.engine
        X = np.array([x[:engine.dim] for x in block])
        if not len(engine.agents):
            with pytest.raises(RuntimeError):
                engine.predict(X[0])
            return
        before = engine.to_json()
        labels = [engine.predict(x) for x in X]
        assert engine.predict_batch(X).tolist() == labels
        assert [engine.exploit_step(x).prediction for x in X] == labels
        assert engine.to_json() == before

    @rule()
    def round_trip(self):
        saved = self.engine.to_json()
        self.engine = Engine.from_snapshot(json.loads(saved))
        assert self.engine.to_json() == saved

    @invariant()
    def rows_are_consistent(self):
        engine = self.engine
        pop = engine.agents
        for name, (_, vector) in pop.FIELDS.items():
            assert getattr(pop, name).shape == ((len(pop), engine.dim) if vector else (len(pop),))
        assert np.all(pop.lower < pop.upper)
        assert np.all(np.diff(pop.id) > 0) and np.all(pop.id < engine._next_id)
        assert len(pop) <= engine.cycle == self.cycles


EngineMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=50, deadline=None)
TestEngineMachine = EngineMachine.TestCase


class TestDeterminismAndPersistence:
    def test_identical_runs_are_byte_identical(self):
        X, Y = train_data(n=70, seed=9)
        cfg = EngineConfig(init_radius=0.3, resize_factor=0.1, overlap_threshold=0.5,
                           exclude_points=True, seed=123, exploration_passes=2)
        a = Engine(cfg, PA1, dim=2).train(X, Y)
        b = Engine(cfg, PA1, dim=2).train(X, Y)
        assert a.to_json() == b.to_json()
        pts = np.random.default_rng(2).uniform(-3, 3, size=(100, 2))
        assert np.array_equal(a.predict_batch(pts), b.predict_batch(pts))

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

    @pytest.mark.parametrize("field,value,message", [
        ("confidence", float("nan"), "confidence must be a finite number, got nan"),
        ("weights", [float("nan"), 0.0], "model.weights[0] must be a finite number, got nan"),
        ("bias", float("nan"), "model.bias must be a finite number, got nan"),
        ("bias", float("inf"), "model.bias must be a finite number, got inf"),
        ("upper", [1.0, float("inf")], "region.upper[1] must be a finite number, got inf"),
    ])
    def test_non_finite_snapshot_values_rejected(self, field, value, message):
        # a NaN confidence once loaded silently and changed predict_batch labels
        agents = [agent_dict(0, [0, 0], [1, 1]), agent_dict(1, [2, 0], [3, 1])]
        a = agents[0]
        {"confidence": a, "weights": a["model"], "bias": a["model"], "upper": a["region"]}[field][field] = value
        with pytest.raises(ValueError, match=re.escape(f"snapshot.agents[0].{message}")):
            engine_with(*agents)

    @pytest.mark.parametrize("path", [
        ("config",), ("model_config",), ("dim",), ("cycle",), ("next_agent_id",), ("agents",),
        ("agents", 1, "id"), ("agents", 1, "region"), ("agents", 1, "region", "upper"), ("agents", 1, "confidence"),
        ("agents", 1, "model"), ("agents", 1, "model", "weights"), ("agents", 1, "model", "bias"),
    ])
    def test_snapshot_without_a_key_rejected_naming_it(self, path):
        snap = engine_with(agent_dict(0, [0, 0], [1, 1]), agent_dict(1, [2, 0], [3, 1])).snapshot()
        parent = snap
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(ValueError, match=re.escape(f"{snapshot_path(path[:-1])} lacks the key '{path[-1]}'")):
            Engine.from_snapshot(snap)

    @pytest.mark.parametrize("reshape,message", [
        ("snapshot", "snapshot must be a JSON object, got list"),
        ("agent", "snapshot.agents[1] must be a JSON object, got int"),
        ("region", "snapshot.agents[1].region must be a JSON object, got NoneType"),
    ])
    def test_snapshot_of_the_wrong_shape_rejected(self, reshape, message):
        snap = engine_with(agent_dict(0, [0, 0], [1, 1]), agent_dict(1, [2, 0], [3, 1])).snapshot()
        if reshape == "snapshot":
            snap = []
        elif reshape == "agent":
            snap["agents"][1] = 1
        else:
            snap["agents"][1]["region"] = None
        with pytest.raises(ValueError, match=re.escape(message)):
            Engine.from_snapshot(snap)

    @pytest.mark.parametrize("path,value", [
        (("cycle",), -3), (("cycle",), 2.7), (("cycle",), True), (("next_agent_id",), 5.5),
        (("agents", 1, "id"), 1.5), (("agents", 1, "model", "step_count"), -4.5),
        (("agents", 1, "model", "step_count"), 2.0),
    ])
    def test_counters_must_be_non_negative_integers(self, path, value):
        # once truncated by int(), so that a cycle of -3 loaded as -3 and one of 2.7 as 2
        snap = engine_with(agent_dict(0, [0, 0], [1, 1]), agent_dict(1, [2, 0], [3, 1])).snapshot()
        parent = snap
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        message = f"{snapshot_path(path)} must be a non-negative integer, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Engine.from_snapshot(snap)

    @pytest.mark.parametrize("path", [("region", "lower"), ("region", "upper"), ("model", "weights")])
    def test_agent_vectors_must_hold_dim_numbers(self, path):
        # a 3-d vector in a 2-d snapshot once got numpy's "inhomogeneous shape" message, which names no path;
        # the path indexes the file's list, not the id order
        snap = engine_with(agent_dict(0, [0, 0], [1, 1]), agent_dict(1, [2, 0], [3, 1])).snapshot()
        snap["agents"].reverse()
        snap["agents"][1][path[0]][path[1]].append(5.0)
        with pytest.raises(ValueError, match=re.escape(f"{snapshot_path(('agents', 1, *path))} must hold 2 numbers, "
                                                       "got 3")):
            Engine.from_snapshot(snap)

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


#: The README quickstart's engine settings.
QUICKSTART = EngineConfig(init_radius=0.2, overlap_threshold=0.5, exclude_points=True, resize_factor=0.1,
                          penalty_weight=1.0, seed=5, exploration_passes=2)


class TestEndToEndSmoke:
    def test_circles_training_accuracy(self):
        ds = standardize(gen_circles(n=100, noise=0.2, factor=0.5, seed=8))
        engine = Engine(QUICKSTART, PA1, dim=2).train(ds.X, ds.Y)
        accuracy = float(np.mean(engine.predict_batch(ds.X) == ds.Y))
        assert accuracy >= 0.75

    def test_exploration_decides_only_activated_cycles(self):
        # an uncovered point creates an agent from the activation test alone; the trace is the one
        # written when every cycle ran the whole decision rule (``_decide``)
        ds = standardize(gen_circles(n=100, noise=0.2, factor=0.5, seed=8))
        trace = io.StringIO()
        Engine(QUICKSTART, PA1, dim=2).train(ds.X, ds.Y, trace=trace)
        activated = sum(bool(json.loads(line)["activated_ids"]) for line in trace.getvalue().splitlines())
        assert activated == 128
        assert hashlib.sha256(trace.getvalue().encode()).hexdigest()[:16] == "577a2cd34fc6ffe0"
