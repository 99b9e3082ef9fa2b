"""Supervisory loop coordinating the tiling agents.

One decision rule classifies a point, in both modes. The agents whose
regions contain it (closed bounds) are *activated*; each proposes the
class of its linear model (``w . x + b >= 0`` says class 1). The
activated agents whose scores lie within ``SCORE_TIE_TOL`` of the top
score tie and vote, an even vote going to class 0; the answering agent is
the lowest-id tied agent proposing the chosen class. An uncovered point
goes to the nearest agent (Euclidean distance to its box, ties to the
lowest id), which answers with its own proposal. ``Engine._decide``
applies the rule to a block of rows at once, reading the arrays of the
population (``agents.Population``) in place.

During *exploration*, each labeled observation drives one cycle: the rule
gives the system prediction, every activated agent receives feedback on
its proposal, and geometric arbitration then removes friction between
them. Three situations trigger rearrangement:

* *incompetence* — no region contains the point: a new agent is created
  around it (half-width ``init_radius``) and immediately arbitrated
  against any agent it overlaps;
* *competition* — two proposers agree: with an overlap threshold set and
  exceeded, the higher-scoring agent absorbs the other (regions merged,
  loser destroyed), otherwise it pushes the other off;
* *conflict* — two proposers disagree: the higher-scoring agent pushes
  the other off, so disagreeing proposers never keep overlapping regions.

A push that cannot separate the two boxes with a single cut turns into an
absorption. During *exploitation* nothing mutates: the rule's answer is
returned, with the nearest agent standing in for an uncovered point.

Every entry point rejects a non-finite value or a wrong dimension before
any state changes. Cycles, arbitration order, and tie-breaks are all
deterministic, so a given (config, data, seed) always reproduces the same
agent population.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import IO

import numpy as np

from .agents import EngineConfig, PerceptTracker, Population
from .geometry import Hypercube
from .linear import LinearModelConfig

#: Maximal score difference still treated as a tie in winner selection.
SCORE_TIE_TOL = 1e-12

#: Rows ``Engine._decide`` handles at once; bounds its (rows, agents, dim) temporaries.
DECIDE_BLOCK_ROWS = 1024

CLASS_UNIVERSE = (0, 1)


class NcsKind(str, Enum):
    INCOMPETENCE = "incompetence"
    COMPETITION = "competition"
    CONFLICT = "conflict"


class Resolution(str, Enum):
    PUSH = "push"
    ABSORB = "absorb"
    CREATE = "create"
    NEAREST = "nearest"


@dataclass(frozen=True)
class NcsEvent:
    """One detected non-cooperative situation and how it was resolved.

    ``participants`` lists agent ids, higher-scoring (or created/nearest)
    agent first.
    """

    kind: NcsKind
    participants: tuple[int, ...]
    resolution: Resolution

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "participants": [int(i) for i in self.participants],
            "resolution": self.resolution.value,
        }


@dataclass
class CycleReport:
    """Trace record of one engine cycle (exploration or exploitation)."""

    cycle: int
    activated_ids: list[int]
    winner_id: int | None
    prediction: int
    ncs_events: list[NcsEvent] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "cycle": int(self.cycle),
            "activated_ids": [int(i) for i in self.activated_ids],
            "winner_id": None if self.winner_id is None else int(self.winner_id),
            "prediction": int(self.prediction),
            "ncs_events": [e.to_dict() for e in self.ncs_events],
        }


class Engine:
    """Owns the agent population and executes the cycle loop.

    One engine is single-writer: cycles run sequentially. Distinct engines
    are independent and may run in parallel.
    """

    def __init__(self, cfg: EngineConfig, model_cfg: LinearModelConfig, dim: int | None = None):
        self.cfg = cfg
        self.model_cfg = model_cfg
        self.dim = dim
        self.agents = Population(dim or 0)
        self.percepts = PerceptTracker()
        self.cycle = 0
        self._next_id = 0

    # -- exploration ---------------------------------------------------

    def explore_step(self, x, y: int) -> CycleReport:
        """Process one labeled observation and adapt the tiling."""
        x = self._checked(x, ndim=1)
        if y not in CLASS_UNIVERSE:
            raise ValueError(f"label {y!r} outside class universe {CLASS_UNIVERSE}")
        if self.dim is None:
            self.dim = x.size
            self.agents = Population(self.dim)
        self.percepts.update(x)
        pop = self.agents
        events: list[NcsEvent] = []
        dead: set[int] = set()  # rows absorbed this cycle, dropped when it ends
        active = np.zeros(0, dtype=int)
        if len(pop):
            labels, winners, inside, votes = self._decide(x[None, :])
            active = np.flatnonzero(inside[0])
        if not active.size:
            prediction = self._create(x, int(y), events, dead)
            winner_id = None
        else:
            proposals = dict(zip(active.tolist(), votes[0, active].astype(int).tolist()))
            winner_id = int(pop.id[winners[0]])
            prediction = int(labels[0])
            for i in active.tolist():
                pop.feedback(i, proposals[i] == y, x, int(y), self.cfg, self.model_cfg)
            self._resolve_pairs(list(combinations(active.tolist(), 2)), proposals, events, dead)
        report = CycleReport(self.cycle, pop.id[active].tolist(), winner_id, prediction, events)
        self.cycle += 1
        if dead:
            pop.drop(dead)
        return report

    def train(self, X, Y, trace: IO | None = None) -> "Engine":
        """Run the configured number of shuffled exploration passes."""
        X = self._checked(X, ndim=2)
        Y = np.asarray(Y)
        if X.shape[0] == 0:
            raise ValueError("X must be a non-empty 2-d matrix")
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y row counts differ")
        if not np.isin(Y, CLASS_UNIVERSE).all():
            raise ValueError(f"every label must be one of {CLASS_UNIVERSE}")
        rng = np.random.default_rng(self.cfg.seed)
        for _ in range(self.cfg.exploration_passes):
            for i in rng.permutation(X.shape[0]):
                report = self.explore_step(X[i], int(Y[i]))
                if trace is not None:
                    trace.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
        return self

    def _create(self, x: np.ndarray, y: int, events: list[NcsEvent], dead: set[int]) -> int:
        """Create an agent around an uncovered point, arbitrate its overlaps; returns its proposal."""
        pop = self.agents
        c = pop.append(self._next_id, Hypercube.around(x, self.cfg.init_radius), self.cycle)
        self._next_id += 1
        pop.fit(c, x, y, self.model_cfg)
        events.append(NcsEvent(NcsKind.INCOMPETENCE, (int(pop.id[c]),), Resolution.CREATE))
        prediction = pop.propose(c, x)
        proposals = {c: prediction}
        # the overlap test of Hypercube.intersection_volume(...) > 0.0, against every older row
        widths = np.minimum(pop.upper[c], pop.upper[:c]) - np.maximum(pop.lower[c], pop.lower[:c])
        rows = np.flatnonzero(np.all(widths > 0.0, axis=1))
        rows = rows[np.prod(widths[rows], axis=1) > 0.0]  # a product of positive widths can underflow
        proposals.update((j, pop.propose(j, x)) for j in rows.tolist())
        self._resolve_pairs([(c, j) for j in rows.tolist()], proposals, events, dead)
        return prediction

    def _resolve_pairs(self, pairs: list[tuple[int, int]], proposals: dict[int, int],
                       events: list[NcsEvent], dead: set[int]) -> None:
        """Arbitrate the overlapping pairs of rows, highest-scoring pair first."""
        threshold, pop = self.cfg.overlap_threshold, self.agents
        score, ids = pop.score.tolist(), pop.id.tolist()
        # ids ascend with rows, so row order breaks score ties as id order does
        for a, b in sorted(pairs, key=lambda p: (-max(score[p[0]], score[p[1]]), min(p), max(p))):
            if a in dead or b in dead:
                continue
            if score[b] > score[a] or (score[a] == score[b] and b < a):
                a, b = b, a  # a wins
            win, lose = pop.box(a), pop.box(b)
            if win.intersection_volume(lose) == 0.0:
                continue
            same = proposals[a] == proposals[b]
            pushed = None
            if not (same and threshold is not None and win.overlap_index(lose) > threshold):
                pushed = win.push(lose)
            if pushed is None:  # heavy same-class overlap, or no single cut separates them
                pop.set_box(a, win.enclose(lose))
                dead.add(b)
            else:
                pop.set_box(b, pushed)
            kind = NcsKind.COMPETITION if same else NcsKind.CONFLICT
            events.append(NcsEvent(kind, (ids[a], ids[b]), Resolution.ABSORB if pushed is None else Resolution.PUSH))

    # -- exploitation ----------------------------------------------------

    def exploit_step(self, x) -> CycleReport:
        """Classify one point without mutating any agent."""
        x = self._checked(x, ndim=1)
        labels, winners, inside, _ = self._decide(x[None, :])
        winner_id = int(self.agents.id[winners[0]])
        activated_ids = self.agents.id[inside[0]].tolist()
        events = [] if activated_ids else [NcsEvent(NcsKind.INCOMPETENCE, (winner_id,), Resolution.NEAREST)]
        return CycleReport(self.cycle, activated_ids, winner_id, int(labels[0]), events)

    def predict(self, x) -> int:
        return self.exploit_step(x).prediction

    def predict_batch(self, X) -> np.ndarray:
        """Exploitation over the rows of ``X``: row for row, ``exploit_step(x).prediction``.

        Both go through ``_decide``, so covered, score-tied and uncovered
        rows all follow the one decision rule.
        """
        return self._decide(self._checked(X, ndim=2))[0]

    def _decide(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Apply the decision rule to every row of a checked ``(rows, dim)`` matrix.

        Returns the class of each row, the population row of the agent
        answering it, and the ``(rows, agents)`` masks of activation and of
        class-1 proposals. Rows are in ascending id order, so the first
        index of a tie is the lowest id.
        """
        pop = self.agents
        if not len(pop):
            raise RuntimeError("engine has no agents; train before predicting")
        lower, upper, scores, weights, bias = pop.lower, pop.upper, pop.score, pop.weights, pop.bias
        n, m = X.shape[0], len(pop)
        labels = np.empty(n, dtype=int)
        winners = np.empty(n, dtype=int)
        inside = np.empty((n, m), dtype=bool)
        votes = np.empty((n, m), dtype=bool)
        for start in range(0, n, DECIDE_BLOCK_ROWS):
            block = slice(start, start + DECIDE_BLOCK_ROWS)
            rows = X[block, None, :]
            ins, vote = inside[block], votes[block]
            np.all((rows >= lower) & (rows <= upper), axis=2, out=ins)
            np.greater_equal(X[block] @ weights.T + bias, 0.0, out=vote)
            # on a covered row an agent that is not activated scores -inf, so never ties
            masked = np.where(ins, scores, -np.inf)
            tied = masked >= masked.max(axis=1, keepdims=True) - SCORE_TIE_TOL
            label = 2 * np.sum(vote, axis=1, where=tied) > np.sum(tied, axis=1)  # even vote: class 0
            winner = np.argmax(tied & (vote == label[:, None]), axis=1)
            out = np.flatnonzero(~ins.any(axis=1))
            if out.size:
                gap = np.maximum(np.maximum(lower - rows[out], rows[out] - upper), 0.0)
                # hypot keeps tiny gaps from underflowing the way squaring them would
                winner[out] = np.argmin(np.hypot.reduce(gap, axis=2), axis=1)
                label[out] = vote[out, winner[out]]
            labels[block] = label
            winners[block] = winner
        return labels, winners, inside, votes

    def _checked(self, X, ndim: int) -> np.ndarray:
        """``X`` as a float array after checking its shape and that every value is finite."""
        X = np.asarray(X, dtype=float)
        if X.ndim != ndim:
            expected = "a 1-d point" if ndim == 1 else "a 2-d matrix"
            raise ValueError(f"expected {expected}, got an array of shape {X.shape}")
        if self.dim is not None and X.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {X.shape[-1]}, engine has {self.dim}")
        if not np.isfinite(X).all():
            raise ValueError("input holds a non-finite value (nan or inf)")
        return X

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of config, cycle counter and agent population."""
        return {
            "config": self.cfg.to_dict(),
            "model_config": self.model_cfg.to_dict(),
            "dim": self.dim,
            "cycle": int(self.cycle),
            "next_agent_id": int(self._next_id),
            "agents": self.agents.to_dicts(self.model_cfg),
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Engine":
        cfg = EngineConfig.from_dict(snap["config"])
        model_cfg = LinearModelConfig.from_dict(snap["model_config"])
        engine = cls(cfg, model_cfg, dim=snap.get("dim"))
        engine.cycle = int(snap["cycle"])
        engine._next_id = int(snap["next_agent_id"])
        engine.agents = Population.from_dicts(snap["agents"], engine.dim or 0)
        return engine
