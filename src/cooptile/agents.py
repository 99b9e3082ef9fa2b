"""Tiling agents, stored as arrays, and the engine configuration.

An agent is one row of the :class:`Population` arrays, which hold every
agent of an engine in ascending id order: a box region ``[lower, upper]``,
an online linear model (``weights``, ``bias``, ``step_count``) trained on
the observations that activated it, and a ``confidence``, the running sum
of weighted feedback (``+reward_weight`` when right, ``-penalty_weight``
when wrong). Its ``score``, the sigmoid of the confidence, drives winner
selection and all geometric arbitration between agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import checked, exclude, rescale
from .linear import LinearModelConfig, _sigmoid, linear_update


@dataclass(frozen=True)
class EngineConfig:
    """External knobs of a tiling engine.

    ``init_radius`` is the half-width of newly created agent regions.
    ``overlap_threshold`` (when not None) turns heavy same-class overlap
    into absorption instead of a push. ``exclude_points`` switches the
    wrong-prediction reaction from retract-and-retrain to carving the
    offending point out of the region. ``resize_factor`` is the volume
    growth/shrink factor applied on feedback. ``reward_weight`` and
    ``penalty_weight`` weight positive and negative feedback in the
    confidence sum.
    """

    init_radius: float = 0.2
    overlap_threshold: float | None = None
    exclude_points: bool = False
    resize_factor: float = 0.1
    reward_weight: float = 1.0
    penalty_weight: float = 0.5
    seed: int = 0
    epsilon_scale: float = 1e-6
    exploration_passes: int = 1
    train_on_correct: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.init_radius < math.inf:
            raise ValueError("init_radius must be positive and finite")
        if self.overlap_threshold is not None and not 0.0 <= self.overlap_threshold <= 1.0:
            raise ValueError("overlap_threshold must lie in [0, 1] or be None")
        if not 0.0 <= self.resize_factor < 1.0:
            raise ValueError("resize_factor must lie in [0, 1)")
        if not (0 <= self.reward_weight < math.inf and 0 <= self.penalty_weight < math.inf):
            raise ValueError("feedback weights must be non-negative and finite")
        if not 0.0 < self.epsilon_scale < 0.5:
            raise ValueError("epsilon_scale must lie in (0, 0.5)")
        if self.exploration_passes < 1:
            raise ValueError("exploration_passes must be at least 1")

    def to_dict(self) -> dict:
        return {
            "init_radius": float(self.init_radius),
            "overlap_threshold": None if self.overlap_threshold is None else float(self.overlap_threshold),
            "exclude_points": bool(self.exclude_points),
            "resize_factor": float(self.resize_factor),
            "reward_weight": float(self.reward_weight),
            "penalty_weight": float(self.penalty_weight),
            "seed": int(self.seed),
            "epsilon_scale": float(self.epsilon_scale),
            "exploration_passes": int(self.exploration_passes),
            "train_on_correct": bool(self.train_on_correct),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        """The config of ``to_dict`` output; also reads the ``"normalization": "sigmoid"`` of older files."""
        d = dict(d)
        if d.pop("normalization", "sigmoid") != "sigmoid":
            raise ValueError("normalization must be 'sigmoid', the only score function")
        return cls(**d)


class Population:
    """The agents of one engine, one row each, in ascending id order.

    The arrays are views of the live rows of buffers with spare capacity:
    a created agent is written into the next free row, the buffers growing
    by a quarter when full, and dead agents are dropped by moving the
    survivors up in place. Rows are reshaped in place by the ``geometry``
    box functions and trained by ``linear_update``, the update rule of
    ``OnlineLinearModel``, so every row's model evolves bit for bit as a
    model of its own would.
    """

    #: Every array, in row-tuple order: name -> (dtype, whether a row holds a dim-vector).
    FIELDS = {
        "id": (np.int64, False), "lower": (float, True), "upper": (float, True), "weights": (float, True),
        "bias": (float, False), "step_count": (np.int64, False), "confidence": (float, False),
        "score": (float, False),  # sigmoid(confidence), set whenever confidence changes
    }
    #: Rows of a new population's buffers.
    INITIAL_CAPACITY = 16
    __slots__ = (*FIELDS, "_buffers")

    def __init__(self, dim: int):
        self._buffers = {
            name: np.zeros((self.INITIAL_CAPACITY, dim) if vector else self.INITIAL_CAPACITY, dtype=dtype)
            for name, (dtype, vector) in self.FIELDS.items()
        }
        self._live(0)

    def __len__(self) -> int:
        return self.id.size

    def _live(self, n: int) -> None:
        """Point every public array at the first ``n`` rows of its buffer."""
        for name, buffer in self._buffers.items():
            setattr(self, name, buffer[:n])

    def append(self, agent_id: int, lower: np.ndarray, upper: np.ndarray) -> int:
        """Add an agent with a zero model and zero confidence as the last row; returns the row."""
        n = len(self)
        if n == self._buffers["id"].shape[0]:
            for name, buffer in self._buffers.items():
                # a quarter, not double: engines often outlive their training, spare rows and all
                grown = np.zeros((n + n // 4 + 1, *buffer.shape[1:]), dtype=buffer.dtype)
                grown[:n] = buffer
                self._buffers[name] = grown
        row = (agent_id, lower, upper, 0.0, 0.0, 0, 0.0, _sigmoid(0.0))
        for buffer, value in zip(self._buffers.values(), row):
            buffer[n] = value
        self._live(n + 1)
        return n

    def drop(self, rows: set[int]) -> None:
        """Remove the given rows, moving the later survivors up in place."""
        first = min(rows)
        survivors = [i for i in range(first, len(self)) if i not in rows]
        for buffer in self._buffers.values():
            buffer[first:first + len(survivors)] = buffer[survivors]
        self._live(first + len(survivors))

    def propose(self, i: int, x: np.ndarray) -> int:
        """Row ``i``'s class proposal at ``x``: 1 when ``w . x + b >= 0``."""
        return 1 if float(self.weights[i] @ x) + self.bias[i] >= 0.0 else 0

    def fit(self, i: int, x: np.ndarray, y: int, model_cfg: LinearModelConfig) -> None:
        """One update of row ``i``'s linear model on the checked sample ``(x, y)``."""
        self.bias[i] = linear_update(model_cfg, self.weights[i], float(self.bias[i]), int(self.step_count[i]), x, y)
        self.step_count[i] += 1

    def feedback(self, i: int, correct: bool, x, y: int, cfg: EngineConfig, model_cfg: LinearModelConfig) -> None:
        """React to the verdict on row ``i``'s proposal for ``(x, y)``.

        Correct: confidence rises, the region grows, and (by default) the
        model also trains on the observation. Wrong with point exclusion
        on: confidence drops and the point is carved out of the region,
        model untouched. Wrong with exclusion off: confidence drops, the
        model trains on the observation, and the region shrinks.
        """
        self.confidence[i] += cfg.reward_weight if correct else -cfg.penalty_weight
        self.score[i] = _sigmoid(float(self.confidence[i]))
        if correct:
            self.lower[i], self.upper[i] = rescale(self.lower[i], self.upper[i], cfg.resize_factor)
            if cfg.train_on_correct:
                self.fit(i, x, y, model_cfg)
        elif cfg.exclude_points:
            self.lower[i], self.upper[i] = exclude(self.lower[i], self.upper[i], x, cfg.epsilon_scale)
        else:
            self.fit(i, x, y, model_cfg)
            self.lower[i], self.upper[i] = rescale(self.lower[i], self.upper[i], -cfg.resize_factor)

    def to_dicts(self) -> list[dict]:
        """One JSON-ready dict per agent, in row order."""
        return [
            {"id": i, "region": {"lower": lo, "upper": up}, "confidence": c,
             "model": {"weights": w, "bias": b, "step_count": t}}
            for i, lo, up, w, b, t, c, _ in zip(*(getattr(self, name).tolist() for name in self.FIELDS))
        ]

    @classmethod
    def from_dicts(cls, agents: list[dict], dim: int) -> "Population":
        """The checked population of ``to_dicts`` output (keys only older files hold are ignored), sorted by id."""
        pop = cls(dim)
        rows = [
            (d["id"], d["region"]["lower"], d["region"]["upper"], d["model"]["weights"], d["model"]["bias"],
             d["model"].get("step_count", 0), d["confidence"], _sigmoid(float(d["confidence"])))
            for d in sorted(agents, key=lambda d: int(d["id"]))
        ]
        for (name, (dtype, _)), column in zip(cls.FIELDS.items(), zip(*rows)):
            # concatenating onto the empty (0, dim) arrays rejects a row of another dimension
            pop._buffers[name] = np.concatenate([getattr(pop, name), np.array(column, dtype=dtype)])
        pop._live(len(rows))
        if not all(np.isfinite(a).all() for a in (pop.lower, pop.upper, pop.weights, pop.bias, pop.confidence)):
            raise ValueError("agent bounds, models and confidences must be finite")
        checked(pop.lower, pop.upper)
        if np.any(np.diff(pop.id) <= 0):
            raise ValueError("agent ids must be unique")
        return pop

