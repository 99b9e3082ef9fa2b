"""Supervisory loop coordinating the tiling agents.

One decision rule classifies a point, in both modes. The agents whose
regions contain it (closed bounds) are *activated*; each proposes the
class of its linear model (``w . x + b >= 0`` says class 1). The
activated agents whose scores lie within ``SCORE_TIE_TOL`` of the top
score tie and vote, an even vote going to class 0; the answering agent is
the lowest-id tied agent proposing the chosen class. An uncovered point
goes to the nearest agent (Euclidean distance to its box, ties to the
lowest id), which answers with its own proposal. ``Engine._decide``
applies the rule to a block of rows at once.

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
from typing import IO, Sequence

import numpy as np

from .agents import ContextAgent, EngineConfig, PerceptTracker
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
        self.agents: list[ContextAgent] = []  # alive agents, ascending id
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
        self.percepts.update(x)
        events: list[NcsEvent] = []
        activated: list[ContextAgent] = []
        if self.agents:
            labels, winners, inside, votes = self._decide(x[None, :])
            activated = [a for a, on in zip(self.agents, inside[0]) if on]
        if not activated:
            _, prediction = self._resolve_incompetence(x, y, events)
            winner_id = None
        else:
            proposals = {a.id: int(v) for a, v, on in zip(self.agents, votes[0], inside[0]) if on}
            winner_id = self.agents[winners[0]].id
            prediction = int(labels[0])
            for a in activated:
                a.apply_feedback(proposals[a.id] == y, x, int(y), self.cfg)
            self._resolve_pairs(list(combinations(activated, 2)), proposals, events)
        report = CycleReport(self.cycle, [a.id for a in activated], winner_id, prediction, events)
        self.cycle += 1
        self.agents = [a for a in self.agents if a.alive]
        return report

    def train(self, X, Y, trace: IO | None = None) -> "Engine":
        """Run the configured number of shuffled exploration passes."""
        X = self._checked(X, ndim=2)
        Y = np.asarray(Y)
        if X.shape[0] == 0:
            raise ValueError("X must be a non-empty 2-d matrix")
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y row counts differ")
        rng = np.random.default_rng(self.cfg.seed)
        for _ in range(self.cfg.exploration_passes):
            for i in rng.permutation(X.shape[0]):
                report = self.explore_step(X[i], int(Y[i]))
                if trace is not None:
                    trace.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
        return self

    def resolve_incompetence(self, x, y: int) -> tuple[ContextAgent, list[NcsEvent]]:
        """Create an agent around an uncovered point and arbitrate overlaps."""
        events: list[NcsEvent] = []
        x = self._checked(x, ndim=1)
        if self.dim is None:
            self.dim = x.size
        created, _ = self._resolve_incompetence(x, y, events)
        self.agents = [a for a in self.agents if a.alive]
        return created, events

    def _resolve_incompetence(self, x, y: int, events: list[NcsEvent]) -> tuple[ContextAgent, int]:
        region = Hypercube.around(x, self.cfg.init_radius)
        model = self.model_cfg.build(self.dim)
        model.partial_fit(x, int(y))
        created = ContextAgent(
            id=self._next_id, region=region, model=model, creation_cycle=self.cycle
        )
        self._next_id += 1
        self.agents.append(created)
        events.append(NcsEvent(NcsKind.INCOMPETENCE, (created.id,), Resolution.CREATE))
        prediction = created.propose(x)
        proposals = {created.id: prediction}
        pairs = []
        for other in self.agents:
            if other is created or not other.alive:
                continue
            if created.region.intersection_volume(other.region) > 0.0:
                proposals[other.id] = other.propose(x)
                pairs.append((created, other))
        self._resolve_pairs(pairs, proposals, events)
        return created, prediction

    def resolve_pairwise(
        self, participants: Sequence[ContextAgent], proposals: dict[int, int]
    ) -> list[NcsEvent]:
        """Arbitrate every overlapping pair among ``participants``."""
        events: list[NcsEvent] = []
        self._resolve_pairs(list(combinations(participants, 2)), proposals, events)
        self.agents = [a for a in self.agents if a.alive]
        return events

    def _resolve_pairs(
        self,
        pairs: list[tuple[ContextAgent, ContextAgent]],
        proposals: dict[int, int],
        events: list[NcsEvent],
    ) -> None:
        cfg = self.cfg

        def pair_key(pair: tuple[ContextAgent, ContextAgent]):
            a, b = pair
            return (-max(a.score(cfg), b.score(cfg)), min(a.id, b.id), max(a.id, b.id))

        for a, b in sorted(pairs, key=pair_key):
            if not (a.alive and b.alive):
                continue
            if a.region.intersection_volume(b.region) == 0.0:
                continue
            same = proposals[a.id] == proposals[b.id]
            kind = NcsKind.COMPETITION if same else NcsKind.CONFLICT
            sa, sb = a.score(cfg), b.score(cfg)
            if sa > sb or (sa == sb and a.id < b.id):
                winner, loser = a, b
            else:
                winner, loser = b, a
            if (
                same
                and cfg.overlap_threshold is not None
                and a.region.overlap_index(b.region) > cfg.overlap_threshold
            ):
                self._absorb(winner, loser)
                events.append(NcsEvent(kind, (winner.id, loser.id), Resolution.ABSORB))
                continue
            pushed = winner.region.push(loser.region)
            if pushed is None:
                self._absorb(winner, loser)
                events.append(NcsEvent(kind, (winner.id, loser.id), Resolution.ABSORB))
            else:
                loser.region = pushed
                events.append(NcsEvent(kind, (winner.id, loser.id), Resolution.PUSH))

    @staticmethod
    def _absorb(winner: ContextAgent, loser: ContextAgent) -> None:
        winner.region = winner.region.enclose(loser.region)
        loser.alive = False

    # -- exploitation ----------------------------------------------------

    def exploit_step(self, x) -> CycleReport:
        """Classify one point without mutating any agent."""
        x = self._checked(x, ndim=1)
        labels, winners, inside, _ = self._decide(x[None, :])
        winner_id = self.agents[winners[0]].id
        activated_ids = [a.id for a, on in zip(self.agents, inside[0]) if on]
        if activated_ids:
            return CycleReport(self.cycle, activated_ids, winner_id, int(labels[0]))
        event = NcsEvent(NcsKind.INCOMPETENCE, (winner_id,), Resolution.NEAREST)
        return CycleReport(self.cycle, [], winner_id, int(labels[0]), [event])

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

        Returns the class of each row, the index into ``self.agents`` of
        the agent answering it, and the ``(rows, agents)`` masks of
        activation and of class-1 proposals. Agents are kept in ascending
        id order, so the first index of a tie is the lowest id.
        """
        if not self.agents:
            raise RuntimeError("engine has no agents; train before predicting")
        lower = np.array([a.region.lower for a in self.agents])
        upper = np.array([a.region.upper for a in self.agents])
        scores = np.array([a.score(self.cfg) for a in self.agents])
        weights = np.array([a.model.weights for a in self.agents])
        bias = np.array([a.model.bias for a in self.agents])
        n, m = X.shape[0], len(self.agents)
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
            "agents": [a.to_dict() for a in sorted(self.agents, key=lambda a: a.id)],
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
        engine.agents = [ContextAgent.from_dict(d) for d in snap["agents"]]
        return engine
