"""Tiling agents: box-shaped local experts plus input-extrema tracking.

A :class:`ContextAgent` owns a hypercube activation region, an online
linear model trained on the observations that activated it, and a
confidence that is the running sum of weighted feedback: each correct
proposal adds ``reward_weight``, each wrong one subtracts
``penalty_weight``. The agent's score is a normalization of that
confidence (currently the sigmoid) and drives winner selection and all
geometric arbitration between agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import Hypercube
from .linear import OnlineLinearModel, _sigmoid


class Normalization(str, Enum):
    """Confidence-to-score squashing function."""

    SIGMOID = "sigmoid"


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
    normalization: Normalization = Normalization.SIGMOID
    resize_factor: float = 0.1
    reward_weight: float = 1.0
    penalty_weight: float = 0.5
    seed: int = 0
    epsilon_scale: float = 1e-6
    exploration_passes: int = 1
    train_on_correct: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "normalization", Normalization(self.normalization))
        if self.init_radius <= 0:
            raise ValueError("init_radius must be positive")
        if self.overlap_threshold is not None and not 0.0 <= self.overlap_threshold <= 1.0:
            raise ValueError("overlap_threshold must lie in [0, 1] or be None")
        if not 0.0 <= self.resize_factor < 1.0:
            raise ValueError("resize_factor must lie in [0, 1)")
        if self.reward_weight < 0 or self.penalty_weight < 0:
            raise ValueError("feedback weights must be non-negative")
        if not 0.0 < self.epsilon_scale < 0.5:
            raise ValueError("epsilon_scale must lie in (0, 0.5)")
        if self.exploration_passes < 1:
            raise ValueError("exploration_passes must be at least 1")

    def to_dict(self) -> dict:
        return {
            "init_radius": float(self.init_radius),
            "overlap_threshold": None if self.overlap_threshold is None else float(self.overlap_threshold),
            "exclude_points": bool(self.exclude_points),
            "normalization": self.normalization.value,
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
        return cls(**d)


@dataclass(slots=True)
class ContextAgent:
    """Hypercube region + local model + feedback-driven confidence."""

    id: int
    region: Hypercube
    model: OnlineLinearModel
    confidence: float = 0.0
    creation_cycle: int = 0
    alive: bool = True

    def score(self, cfg: EngineConfig) -> float:
        """Sigmoid of the confidence, in (0, 1); 0.5 for a fresh agent."""
        return _sigmoid(self.confidence)

    def propose(self, x) -> int:
        """The agent's class proposal at ``x`` (its model's prediction)."""
        return self.model.predict(x)

    def apply_feedback(self, correct: bool, x, y: int, cfg: EngineConfig) -> None:
        """React to the verdict on this agent's proposal for ``(x, y)``.

        Correct: confidence rises, the region grows, and (by default) the
        model also trains on the observation. Wrong with point exclusion
        on: confidence drops and the point is carved out of the region,
        model untouched. Wrong with exclusion off: confidence drops, the
        model trains on the observation, and the region shrinks.
        """
        if correct:
            self.confidence += cfg.reward_weight
            self.region = self.region.expand(cfg.resize_factor)
            if cfg.train_on_correct:
                self.model.partial_fit(x, y)
        elif cfg.exclude_points:
            self.confidence -= cfg.penalty_weight
            self.region = self.region.exclude(x, cfg.epsilon_scale)
        else:
            self.confidence -= cfg.penalty_weight
            self.model.partial_fit(x, y)
            self.region = self.region.retract(cfg.resize_factor)

    def to_dict(self) -> dict:
        return {
            "id": int(self.id),
            "region": self.region.to_dict(),
            "confidence": float(self.confidence),
            "creation_cycle": int(self.creation_cycle),
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ContextAgent":
        return cls(
            id=int(d["id"]),
            region=Hypercube.from_dict(d["region"]),
            model=OnlineLinearModel.from_dict(d["model"]),
            confidence=float(d["confidence"]),
            creation_cycle=int(d["creation_cycle"]),
        )


@dataclass
class PerceptTracker:
    """Per-dimension running min/max of all observed inputs."""

    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None
    count: int = 0

    def update(self, x) -> None:
        x = np.asarray(x, dtype=float)
        if self.mins is None:
            self.mins = x.copy()
            self.maxs = x.copy()
        else:
            if x.size != self.mins.size:
                raise ValueError(f"point has dimension {x.size}, tracker has {self.mins.size}")
            self.mins = np.minimum(self.mins, x)
            self.maxs = np.maximum(self.maxs, x)
        self.count += 1
