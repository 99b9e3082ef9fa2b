"""Online binary linear classifiers trained one observation at a time.

Four variants share the same state (weights, bias) and decision rule
``w . x + b >= 0 -> class 1``:

* ``LOGIT`` — single-sample gradient steps on the logistic loss
  ``log(1 + exp(-s * f(x)))`` plus a shrinkage term, where ``s = 2y - 1``.
* ``LINEAR_SVM`` — the same scheme on the hinge loss ``max(0, 1 - s * f(x))``.
* ``PA_I`` / ``PA_II`` — passive-aggressive closed-form updates with the
  bias folded in as an always-on unit feature: with ``loss`` the hinge loss
  and ``q = ||x||^2 + 1``, PA-I uses ``tau = min(C, loss / q)`` and PA-II
  uses ``tau = loss / (q + 1 / (2C))``; then ``w += tau * s * x`` and
  ``b += tau * s``.

Gradient steps use the decaying rate
``eta_t = lr0 / (1 + lr0 * alpha_reg * t)`` with ``t`` the number of
updates already applied. The shrinkage gradient is ``alpha_reg * w`` (L2),
``alpha_reg * sign(w)`` (L1, with ``sign(0) = 0``) or their ``l1_ratio``
mix (elastic net); the bias is never shrunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np


class ModelKind(str, Enum):
    LOGIT = "logit"
    LINEAR_SVM = "linear_svm"
    PA_I = "pa1"
    PA_II = "pa2"


class Penalty(str, Enum):
    L1 = "l1"
    L2 = "l2"
    ELASTICNET = "elasticnet"


#: Kinds updated by gradient steps (the others are passive-aggressive).
GRADIENT_KINDS = (ModelKind.LOGIT, ModelKind.LINEAR_SVM)


@dataclass(frozen=True)
class LinearModelConfig:
    """Hyperparameters of one online linear classifier.

    ``alpha_reg``/``penalty``/``l1_ratio``/``learning_rate0`` apply to the
    gradient kinds only; ``aggressiveness_c`` to the PA kinds only.
    """

    kind: ModelKind
    alpha_reg: float = 1e-4
    penalty: Penalty = Penalty.L2
    l1_ratio: float = 0.15
    aggressiveness_c: float = 1.0
    learning_rate0: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ModelKind(self.kind))
        object.__setattr__(self, "penalty", Penalty(self.penalty))
        if not 0 <= self.alpha_reg < math.inf:
            raise ValueError("alpha_reg must be non-negative and finite")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError("l1_ratio must lie in [0, 1]")
        if not self.aggressiveness_c > 0:  # inf is the unbounded classic PA update
            raise ValueError("aggressiveness_c must be positive")
        if not 0 < self.learning_rate0 < math.inf:
            raise ValueError("learning_rate0 must be positive and finite")

    def build(self, dim: int) -> "OnlineLinearModel":
        """Fresh zero-weight model of this configuration."""
        return OnlineLinearModel(self, dim)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "alpha_reg": float(self.alpha_reg),
            "penalty": self.penalty.value,
            "l1_ratio": float(self.l1_ratio),
            "aggressiveness_c": float(self.aggressiveness_c),
            "learning_rate0": float(self.learning_rate0),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearModelConfig":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def _sigmoid(z: float) -> float:
    # branch keeps exp() off large positive arguments
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def checked_points(X, ndim: int, dim: int | None, owner: str) -> np.ndarray:
    """``X`` as a float array, checked to be one point (``ndim`` 1) or rows of points (``ndim`` 2) of
    dimension ``dim`` (any, if None) holding finite values; ``owner`` names the checker in errors."""
    X = np.asarray(X, dtype=float)
    if X.ndim != ndim:
        raise ValueError(f"expected {'a 1-d point' if ndim == 1 else 'a 2-d matrix'}, got an array of shape {X.shape}")
    if dim is not None and X.shape[-1] != dim:
        raise ValueError(f"points have dimension {X.shape[-1]}, {owner} has {dim}")
    if not np.isfinite(X).all():
        raise ValueError("input holds a non-finite value (nan or inf)")
    return X


def checked_samples(X, Y, dim: int | None, owner: str) -> tuple[np.ndarray, list[int]]:
    """``checked_points`` rows ``X``, at least one, and their labels ``Y`` as a list, each 0 or 1."""
    X, Y = checked_points(X, 2, dim, owner), np.asarray(Y)
    if X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-d matrix")
    if Y.shape != (X.shape[0],):
        raise ValueError(f"Y must be a vector of {X.shape[0]} labels, one per row of X, got shape {Y.shape}")
    if not np.isin(Y, (0, 1)).all():
        raise ValueError("every label must be 0 or 1")
    return X, Y.astype(int).tolist()


def linear_update(cfg: LinearModelConfig, w: np.ndarray, b: float, t: int, x: np.ndarray, y: int) -> float:
    """Update weights ``w`` (in place) and bias ``b`` of a ``cfg`` model after ``t`` steps on the
    checked sample ``(x, y)``; returns the new bias. ``OnlineLinearModel`` and ``Population`` share it.

    The weights change element by element in Python floats, which round each operation as numpy's
    elementwise ufuncs do, without the per-call overhead of numpy temporaries on short vectors.
    """
    s = 2.0 * y - 1.0
    f = float(w.dot(x)) + b  # the BLAS dot of ``w @ x``, with less dispatch
    if cfg.kind in GRADIENT_KINDS:
        if cfg.kind is ModelKind.LOGIT:
            # d/df log(1 + exp(-s f)) = -s * sigmoid(-s f)
            g = -s * _sigmoid(-s * f)
        else:
            g = -s if s * f < 1.0 else 0.0
        eta = cfg.learning_rate0 / (1.0 + cfg.learning_rate0 * cfg.alpha_reg * t)
        ws, xs = w.tolist(), x.tolist()
        for i, p in enumerate(_penalty_gradient(cfg, ws)):
            w[i] = ws[i] - eta * (g * xs[i] + p)
        return b - eta * g
    loss = max(0.0, 1.0 - s * f)
    if loss == 0.0:
        return b  # nothing to correct
    norm_sq = float(x.dot(x))
    if norm_sq == 0.0:
        return b  # a degenerate sample with nothing informative to move along
    q = norm_sq + 1.0  # unit bias feature included
    if cfg.kind is ModelKind.PA_I:
        tau = min(cfg.aggressiveness_c, loss / q)
    else:
        tau = loss / (q + 0.5 / cfg.aggressiveness_c)
    step = tau * s
    for i, (wi, xi) in enumerate(zip(w.tolist(), x.tolist())):
        w[i] = wi + step * xi
    return b + step


def _penalty_gradient(cfg: LinearModelConfig, w: list[float]) -> list[float]:
    a = cfg.alpha_reg
    if a == 0.0:
        return [0.0] * len(w)
    if cfg.penalty is Penalty.L2:
        return [a * wi for wi in w]
    sign = [(wi > 0.0) - (wi < 0.0) for wi in w]  # sign(0) = 0
    if cfg.penalty is Penalty.L1:
        return [a * si for si in sign]
    r = cfg.l1_ratio
    return [a * (r * si + (1.0 - r) * wi) for si, wi in zip(sign, w)]


class OnlineLinearModel:
    """Mutable weights/bias updated one labeled sample at a time.

    Labels are 0/1. A model instance is owned by a single caller; distinct
    instances are fully independent.
    """

    __slots__ = ("config", "weights", "bias", "step_count")

    def __init__(self, config: LinearModelConfig, dim: int):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        self.config = config
        self.weights = np.zeros(dim, dtype=float)
        self.bias = 0.0
        self.step_count = 0

    @property
    def dim(self) -> int:
        return self.weights.size

    def decision_value(self, x) -> float:
        """Signed margin ``w . x + b``."""
        x = checked_points(x, 1, self.dim, "model")
        return float(self.weights @ x) + self.bias

    def predict(self, x) -> int:
        """Class 1 when the margin is >= 0 (ties go to class 1), else 0."""
        return 1 if self.decision_value(x) >= 0.0 else 0

    def predict_batch(self, X) -> np.ndarray:
        """``predict`` on every row of ``X``."""
        X = checked_points(X, 2, self.dim, "model")
        return (X @ self.weights + self.bias >= 0.0).astype(int)

    def partial_fit(self, x, y: int) -> "OnlineLinearModel":
        """Apply one update for the sample ``(x, y)`` and return self."""
        x = checked_points(x, 1, self.dim, "model")
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        self.bias = linear_update(self.config, self.weights, self.bias, self.step_count, x, y)
        self.step_count += 1
        return self

    def fit(self, X, Y, epochs: int = 100, seed: int = 0) -> "OnlineLinearModel":
        """Run ``epochs`` shuffled passes of single-sample updates, checking the samples once."""
        X, labels = checked_samples(X, Y, self.dim, "model")
        rows, rng = list(X), np.random.default_rng(seed)
        cfg, w, b, t = self.config, self.weights, self.bias, self.step_count
        for _ in range(epochs):
            for i in rng.permutation(len(rows)).tolist():
                b = linear_update(cfg, w, b, t, rows[i], labels[i])
                t += 1
        self.bias, self.step_count = b, t
        return self

    def to_dict(self) -> dict:
        d = self.config.to_dict()
        d.update(
            weights=[float(w) for w in self.weights],
            bias=float(self.bias),
            step_count=int(self.step_count),
        )
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "OnlineLinearModel":
        config = LinearModelConfig.from_dict(d)
        model = cls(config, len(d["weights"]))
        model.weights = np.asarray(d["weights"], dtype=float)
        model.bias = float(d["bias"])
        model.step_count = int(d.get("step_count", 0))
        return model
