"""Supervisory loop coordinating the tiling agents.

One decision rule classifies a point, in both modes. The agents whose
regions contain it (closed bounds) are *activated*; each proposes the
class of its linear model (``w . x + b >= 0`` says class 1). The
activated agents whose scores lie within ``SCORE_TIE_TOL`` of the top
score tie and vote, an even vote going to class 0; the answering agent is
the lowest-id tied agent proposing the chosen class. An uncovered point
goes to the nearest agent (Euclidean distance to its box, ties to the
lowest id), which answers with its own proposal.

The rule has two paths, one for a point and one for a block, which give
the same bits and read the arrays of the population (``agents.Population``)
in place. ``Engine._activation`` tests every region against either, and
``Engine._nearest`` finds the nearest box for either. ``Engine._decide``
applies the rest of the rule to a block's mask; ``Engine._exploit`` to one
point, on its activated rows alone (``Engine._decide_activated``).

During *exploration*, each labeled observation drives one cycle, and the
activation test comes first. An uncovered point needs nothing more: it is
an incompetence, and its new agent answers. Otherwise the rule, applied to
the activated rows alone (``Engine._decide_activated``), gives the system
prediction, every activated agent receives feedback on its proposal, and
geometric arbitration then removes friction between them. Untraced
training builds no cycle report and no event. Three situations trigger
rearrangement:

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
``predict`` returns only the class; ``exploit_step`` also reports the
activated and answering agents.

Every entry point rejects a non-finite value or a wrong dimension before
any state changes. Cycles, arbitration order, and tie-breaks are all
deterministic, so a given (config, data, seed) always reproduces the same
agent population.

The engine holds exactly what its snapshot holds: an agent's score, the
sigmoid of its confidence, is derived by each code path that reads it.
Invariants after every call: each row has ``lower < upper``; ids ascend
with the rows and stay below ``next_agent_id``; there are no more agents
than exploration cycles; two activated agents that proposed different
classes end their cycle without overlap; exploitation mutates nothing
(``to_json()`` is unchanged); ``predict(x)``, ``predict_batch([x])[0]``
and ``exploit_step(x).prediction`` agree; a snapshot reads back to the
same bytes; ``train(X, Y)`` is the ``explore_step`` loop in its seeded
order, and its trace is that loop's reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import IO

import numpy as np

from .agents import EngineConfig, Population
from .geometry import Bounds, around, enclose, overlap_index, overlap_volume, overlap_widths, push
from .linear import Keys, LinearModelConfig, _sigmoid, checked_points, checked_samples, checked_value

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


@dataclass
class CycleReport:
    """Trace record of one engine cycle (exploration or exploitation)."""

    cycle: int
    activated_ids: list[int]
    winner_id: int | None
    prediction: int
    ncs_events: list[NcsEvent] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report's fields; each event's too, its ``participants`` tuple written by ``json`` as a list."""
        events = [{**vars(e), "kind": e.kind.value, "resolution": e.resolution.value} for e in self.ncs_events]
        return {**vars(self), "ncs_events": events}


class Engine:
    """Owns the agent population and executes the cycle loop.

    One engine is single-writer: cycles run sequentially. Distinct engines
    are independent and may run in parallel.
    """

    def __init__(self, cfg: EngineConfig, model_cfg: LinearModelConfig, dim: int):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        self.cfg = cfg
        self.model_cfg = model_cfg
        self.dim = dim
        self.agents = Population(dim)
        self.cycle = 0
        self._next_id = 0

    # -- exploration ---------------------------------------------------

    def explore_step(self, x, y: int) -> CycleReport:
        """Process one labeled observation and adapt the tiling."""
        x = checked_points(x, 1, self.dim, "engine")
        if y not in CLASS_UNIVERSE:
            raise ValueError(f"label {y!r} outside class universe {CLASS_UNIVERSE}")
        return self._explore(x, int(y))

    def train(self, X, Y, trace: IO | None = None) -> "Engine":
        """Run the configured number of shuffled exploration passes, checking the samples once."""
        X, labels = checked_samples(X, Y, self.dim, "engine")
        rows, rng = list(X), np.random.default_rng(self.cfg.seed)
        for _ in range(self.cfg.exploration_passes):
            for i in rng.permutation(len(rows)).tolist():
                report = self._explore(rows[i], labels[i], trace is not None)
                if report is not None:
                    trace.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
        return self

    def _explore(self, x: np.ndarray, y: int, report: bool = True) -> CycleReport | None:
        """One exploration cycle on the checked point ``x`` with label ``y``; its report, with the
        events, is built only when ``report`` is set."""
        pop = self.agents
        active = self._activation(x).nonzero()[0]
        events: list[NcsEvent] | None = [] if report else None
        dead: set[int] = set()  # rows absorbed this cycle, dropped when it ends
        if not active.size:
            # the new region is checked before any state changes
            prediction, winner = self._create(x, y, around(x, self.cfg.init_radius), events, dead), None
        else:
            prediction, winner, votes = self._decide_activated(x, active)
            proposals = dict(zip(active.tolist(), votes))
            for i, vote in proposals.items():
                pop.feedback(i, vote == y, x, y, self.cfg, self.model_cfg)
            self._resolve_pairs(list(combinations(proposals, 2)), proposals, events, dead)
        winner_id = None if winner is None else int(pop.id[winner])
        result = CycleReport(self.cycle, pop.id[active].tolist(), winner_id, prediction, events) if report else None
        self.cycle += 1
        if dead:
            pop.drop(dead)
        return result

    def _decide_activated(self, x: np.ndarray, active: np.ndarray) -> tuple[int, int, list[int]]:
        """``_decide`` on the checked point ``x`` that activates the rows ``active`` (ascending, at least one):
        the class, the answering row and each activated row's proposal. The votes come from ``_decide``'s
        whole-population product; the rest of the rule reads only the activated rows, as Python floats."""
        votes = [int(m >= 0.0) for m in self._margins(x)[active].tolist()]
        scores = [_sigmoid(c) for c in self.agents.confidence[active].tolist()]
        top = max(scores) - SCORE_TIE_TOL
        tied = [v for s, v in zip(scores, votes) if s >= top]
        label = int(2 * sum(tied) > len(tied))  # even vote: class 0
        return label, next(i for i, s, v in zip(active.tolist(), scores, votes) if s >= top and v == label), votes

    def _margins(self, x: np.ndarray) -> np.ndarray:
        """``w . x + b`` of every row at the checked point ``x``, from the product ``_decide`` votes with."""
        pop = self.agents
        return (x[None, :] @ pop.weights.T + pop.bias)[0]

    def _create(self, x: np.ndarray, y: int, bounds: Bounds, events: list[NcsEvent] | None, dead: set[int]) -> int:
        """Create an agent of the checked ``bounds`` around ``x``, arbitrate its overlaps; returns its proposal."""
        pop = self.agents
        c = pop.append(self._next_id, *bounds)
        self._next_id += 1
        pop.fit(c, x, y, self.model_cfg)
        if events is not None:
            events.append(NcsEvent(NcsKind.INCOMPETENCE, (int(pop.id[c]),), Resolution.CREATE))
        # _resolve_pairs skips a candidate whose overlap volume is 0.0
        rows = ((pop.lower[:c] < pop.upper[c]) & (pop.upper[:c] > pop.lower[c])).all(axis=1).nonzero()[0].tolist()
        margins = self._margins(x)
        proposals = {i: int(margins[i] >= 0.0) for i in (c, *rows)}
        self._resolve_pairs([(c, j) for j in rows], proposals, events, dead)
        return proposals[c]

    def _resolve_pairs(self, pairs: list[tuple[int, int]], proposals: dict[int, int],
                       events: list[NcsEvent] | None, dead: set[int]) -> None:
        """Arbitrate the overlapping pairs of rows, highest-scoring pair first; ``events`` (unless None)
        receives each resolution. A push only shrinks the loser, but an absorption's enclosure can grow back
        over a pair resolved before it, so a pass that absorbed runs again: at most once per absorbed row."""
        if not pairs:
            return
        threshold, pop = self.cfg.overlap_threshold, self.agents
        score = {i: _sigmoid(float(pop.confidence[i])) for i in {i for pair in pairs for i in pair}}
        # ids ascend with rows, so row order breaks score ties as id order does
        pairs = sorted(pairs, key=lambda p: (-max(score[p[0]], score[p[1]]), min(p), max(p)))
        absorbed = True
        while absorbed:
            absorbed = False
            for a, b in pairs:
                if a in dead or b in dead:
                    continue
                if score[b] > score[a] or (score[a] == score[b] and b < a):
                    a, b = b, a  # a wins
                win, lose = (pop.lower[a], pop.upper[a]), (pop.lower[b], pop.upper[b])
                iv = overlap_volume(overlap_widths(*win, *lose))
                if iv == 0.0:
                    continue
                same = proposals[a] == proposals[b]
                pushed = None
                if not (same and threshold is not None and overlap_index(iv, *win, *lose) > threshold):
                    pushed = push(*win, *lose)
                if pushed is None:  # heavy same-class overlap, or no single cut separates them
                    pop.lower[a], pop.upper[a] = enclose(*win, *lose)
                    dead.add(b)
                    absorbed = True
                else:
                    pop.lower[b], pop.upper[b] = pushed
                if events is not None:
                    kind = NcsKind.COMPETITION if same else NcsKind.CONFLICT
                    resolution = Resolution.ABSORB if pushed is None else Resolution.PUSH
                    events.append(NcsEvent(kind, (int(pop.id[a]), int(pop.id[b])), resolution))

    # -- exploitation ----------------------------------------------------

    def exploit_step(self, x) -> CycleReport:
        """Classify one point without mutating any agent: the report of ``predict``'s answer, with the
        activated agents and the answering one, which an event names when it stands in for an uncovered point."""
        active, label, winner = self._exploit(self._query(x, 1))
        pop = self.agents
        winner_id = int(pop.id[winner])
        events = [] if active.size else [NcsEvent(NcsKind.INCOMPETENCE, (winner_id,), Resolution.NEAREST)]
        return CycleReport(self.cycle, pop.id[active].tolist(), winner_id, label, events)

    def predict(self, x) -> int:
        """The class ``exploit_step(x)`` reports, without building the report."""
        return self._exploit(self._query(x, 1))[1]

    def _query(self, X, ndim: int) -> np.ndarray:
        """``X`` checked as one point (``ndim`` 1) or rows (``ndim`` 2); an engine without agents refuses any."""
        X = checked_points(X, ndim, self.dim, "engine")
        if not len(self.agents):
            raise RuntimeError("engine has no agents; train before predicting")
        return X

    def _exploit(self, x: np.ndarray) -> tuple[np.ndarray, int, int]:
        """``_decide`` on the checked point ``x``: its activated rows, its class and the answering row, from
        the activated rows alone (``_decide_activated``) or, uncovered, the nearest row's own proposal."""
        active = self._activation(x).nonzero()[0]
        if active.size:
            label, winner, _ = self._decide_activated(x, active)
            return active, label, winner
        winner = int(self._nearest(x))
        return active, int(self._margins(x)[winner] >= 0.0), winner

    def predict_batch(self, X) -> np.ndarray:
        """Exploitation over the rows of ``X``: row for row, ``predict(x)``. ``_decide`` applies the rule to
        blocks of rows as ``_exploit`` does to one point, both sending an uncovered row to ``_nearest``."""
        X = self._query(X, 2)
        labels = np.empty(X.shape[0], dtype=int)
        for start in range(0, X.shape[0], DECIDE_BLOCK_ROWS):
            block = slice(start, start + DECIDE_BLOCK_ROWS)
            labels[block] = self._decide(X[block], self._activation(X[block]))[0]
        return labels

    def _activation(self, X: np.ndarray) -> np.ndarray:
        """The ``(rows, agents)`` mask of the agents whose regions contain each row of a checked block;
        the ``(agents,)`` mask of one checked point."""
        rows = X[..., None, :]
        return ((rows >= self.agents.lower) & (rows <= self.agents.upper)).all(axis=-1)

    def _nearest(self, X: np.ndarray) -> np.ndarray:
        """The row of the box nearest (Euclidean distance) to each row of a checked block; to one checked
        point. Of equal distances the first row wins, the lowest id."""
        rows = X[..., None, :]
        gap = self.agents.lower - rows  # reused in place: the (rows, agents, dim) temporaries are a block's largest
        np.maximum(np.maximum(gap, rows - self.agents.upper, out=gap), 0.0, out=gap)
        # hypot keeps tiny gaps from underflowing as squares would; axis by axis, it runs as hypot.reduce
        distance = gap[..., 0]
        for k in range(1, self.dim):
            distance = np.hypot(distance, gap[..., k])
        return distance.argmin(axis=-1)

    def _decide(self, X: np.ndarray, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the decision rule to the rows of a checked block of at most ``DECIDE_BLOCK_ROWS`` rows,
        given their ``_activation`` mask.

        Returns the class of each row (``True`` for class 1), the population
        row of the agent answering it, and the ``(rows, agents)`` mask of
        class-1 proposals. Rows are in ascending id order, so the first
        index of a tie is the lowest id.
        """
        pop = self.agents
        votes = X @ pop.weights.T + pop.bias >= 0.0
        # on a covered row an agent that is not activated scores -inf, so never ties
        score = np.array([_sigmoid(c) for c in pop.confidence.tolist()])
        masked = np.where(inside, score, -np.inf)
        tied = masked >= masked.max(axis=1, keepdims=True) - SCORE_TIE_TOL
        labels = 2 * votes.sum(axis=1, where=tied) > tied.sum(axis=1)  # even vote: class 0
        winners = (tied & (votes == labels[:, None])).argmax(axis=1)
        out = (~inside.any(axis=1)).nonzero()[0]
        if out.size:
            winners[out] = self._nearest(X[out])
            labels[out] = votes[out, winners[out]]
        return labels, winners, votes

    # -- persistence -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of config, cycle counter and agent population."""
        return {
            "config": self.cfg.to_dict(),
            "model_config": self.model_cfg.to_dict(),
            "dim": self.dim,
            "cycle": int(self.cycle),
            "next_agent_id": int(self._next_id),
            "agents": self.agents.to_dicts(),
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Engine":
        """The engine of ``snapshot()`` output; every agent trains with the snapshot's ``model_config``. The
        snapshot is checked by ``linear.checked_value``, its configs by ``from_dict``, ``dim`` by the constructor
        and its agents by ``Population.from_dicts``, each misfit raising ``ValueError`` naming its path."""
        snap = checked_value(snap, Keys({"config": None, "model_config": None, "dim": None, "cycle": int,
                                         "next_agent_id": int, "agents": None}), "snapshot")
        cfg = EngineConfig.from_dict(snap["config"], "snapshot.config")
        model_cfg = LinearModelConfig.from_dict(snap["model_config"], "snapshot.model_config")
        engine = cls(cfg, model_cfg, dim=snap["dim"])
        engine.cycle, engine._next_id = snap["cycle"], snap["next_agent_id"]
        engine.agents = Population.from_dicts(snap["agents"], engine.dim, "snapshot.agents")
        if len(engine.agents) and engine._next_id <= engine.agents.id[-1]:
            raise ValueError(f"next_agent_id {engine._next_id} must exceed the largest agent id {engine.agents.id[-1]}")
        return engine
