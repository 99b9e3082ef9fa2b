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

``linear_update`` applies the one update rule to a sequence of samples,
each prepared once by ``sample``: ``OnlineLinearModel.fit`` calls it once
per epoch, ``partial_fit`` and the engine's agents with one sample.

Gradient steps use the decaying rate
``eta_t = lr0 / (1 + lr0 * alpha_reg * t)`` with ``t`` the number of
updates already applied. The shrinkage gradient is ``alpha_reg * w`` (L2),
``alpha_reg * sign(w)`` (L1, with ``sign(0) = 0``) or their ``l1_ratio``
mix (elastic net); the bias is never shrunk.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from numbers import Integral, Real
from pathlib import Path
from typing import NamedTuple

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
        store_floats(self)
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
        return {**vars(self), "kind": self.kind.value, "penalty": self.penalty.value}

    @classmethod
    def from_dict(cls, d: dict, path: str = "model_config") -> "LinearModelConfig":
        """The config of ``to_dict`` output, or of any of its keys but ``kind`` left to their defaults."""
        return read_config(cls, d, path)


def store_floats(cfg) -> None:
    """Check each number or bool field of the frozen dataclass ``cfg`` by ``checked_value`` (an ``int`` field is a
    count, and ``None`` passes where the annotation allows it), and store each float field as a Python float, so
    that equal configs, say of ``1`` and ``1.0``, compute and write alike."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        schema = {"float": Real, "float | None": Real, "int": int, "bool": bool}.get(f.type)
        if schema is not None and not (value is None and f.type == "float | None"):
            checked_value(value, schema, f.name)
            if schema is Real:
                object.__setattr__(cfg, f.name, float(value))


class Keys(NamedTuple):
    """``checked_value`` schema of a JSON object: the schema of each ``required`` and ``optional`` key, and the keys
    ``dropped`` unread, those of older files or of another reader."""

    required: dict
    optional: dict = {}
    dropped: tuple = ()


def checked_value(value, schema, path: str):
    """``value`` (as read from a saved file) checked against ``schema``, or ``ValueError`` naming the path of the
    first misfit, such as ``snapshot.agents[3].model.step_count``; an object comes back without its dropped keys.

    A schema is ``int`` (a non-negative integer), ``float`` (a finite number), ``Real`` (any number), ``str`` or
    ``bool``, a bool being no number; ``None`` for a value whose reader checks it; ``[item]`` for a JSON array of
    ``item``; or ``Keys``.
    """
    if schema is None or (type(value) is schema and (schema is not int or value >= 0)
                          and (schema is not float or math.isfinite(value))):
        return value  # a leaf of exactly its type, the common case, skips the checks below
    if isinstance(schema, Keys):
        if not isinstance(value, dict):
            raise ValueError(f"{path} must be a JSON object, got {type(value).__name__}")
        known = {**schema.required, **schema.optional}
        for key in [*schema.required, *value]:
            if key not in value:
                raise ValueError(f"{path} lacks the key {key!r}")
            if key not in known and key not in schema.dropped:
                keys = sorted([*known, *schema.dropped])
                raise ValueError(f"{path} holds the unknown key {key!r}; its keys are {keys}")
        return {key: checked_value(item, known[key], f"{path}.{key}") for key, item in value.items() if key in known}
    if isinstance(schema, list):
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a JSON array, got {type(value).__name__}")
        if schema[0] is float and all(type(item) is float and math.isfinite(item) for item in value):
            return value  # the commonest array, without a call per item
        return [checked_value(item, schema[0], f"{path}[{i}]") for i, item in enumerate(value)]
    kind = Integral if schema is int else Real if schema is float else schema
    if (isinstance(value, bool) is not (schema is bool) or not isinstance(value, kind)
            or (schema is int and value < 0) or (schema is float and not math.isfinite(value))):
        want = {int: "a non-negative integer", float: "a finite number", Real: "a number"}.get(schema)
        raise ValueError(f"{path} must be {want or 'a ' + schema.__name__}, got {value!r}")
    return value


def read_config(cls, d, path: str, dropped: tuple = (), **fixed):
    """The frozen dataclass ``cls`` of the saved object ``d``, which holds each field not ``fixed`` here (those
    with a default may be missing) and maybe the ``dropped`` keys; the constructor checks each value, and its
    ``ValueError`` names ``path``."""
    names = [f.name for f in fields(cls) if f.name not in fixed]
    required = [f.name for f in fields(cls) if f.name in names and f.default is MISSING]
    kwargs = checked_value(d, Keys(dict.fromkeys(required), dict.fromkeys(names), dropped), path)
    try:
        return cls(**kwargs, **fixed)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_json(path):
    """The JSON value of the file ``path``; a file that is not JSON raises ``ValueError`` naming it."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def opened(path):
    """The file ``path`` opened for writing, its directory created first; for no path, a context yielding None."""
    if path is None:
        return contextlib.nullcontext()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def write_json(path, payload) -> None:
    """Write ``payload`` to the file ``path`` as every saved JSON file is: indent 2, sorted keys, final newline."""
    with opened(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


#: ``checked_value`` schema of a saved model's state. It drops the keys of the model's config, which
#: ``OnlineLinearModel.from_dict`` reads by ``read_config``, and which older snapshots held in each agent's model.
MODEL_STATE = Keys({"weights": [float], "bias": float}, {"step_count": int},
                   tuple(f.name for f in fields(LinearModelConfig)))


def _sigmoid(z: float) -> float:
    # branch keeps exp() off large positive arguments
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def checked_points(X, ndim: int, dim: int, owner: str) -> np.ndarray:
    """``X`` as a float array, checked to be one point (``ndim`` 1) or rows of points (``ndim`` 2) of
    dimension ``dim`` holding finite values; ``owner`` names the checker in errors."""
    X = np.asarray(X, dtype=float)
    if X.ndim != ndim:
        raise ValueError(f"expected {'a 1-d point' if ndim == 1 else 'a 2-d matrix'}, got an array of shape {X.shape}")
    if X.shape[-1] != dim:
        raise ValueError(f"points have dimension {X.shape[-1]}, {owner} has {dim}")
    if not np.isfinite(X).all():
        raise ValueError("input holds a non-finite value (nan or inf)")
    return X


def checked_samples(X, Y, dim: int, owner: str) -> tuple[np.ndarray, list[int]]:
    """``checked_points`` rows ``X``, at least one, and their labels ``Y`` as a list, each 0 or 1."""
    X, Y = checked_points(X, 2, dim, owner), np.asarray(Y)
    if X.shape[0] == 0:
        raise ValueError("X must be a non-empty 2-d matrix")
    if Y.shape != (X.shape[0],):
        raise ValueError(f"Y must be a vector of {X.shape[0]} labels, one per row of X, got shape {Y.shape}")
    if not np.isin(Y, (0, 1)).all():
        raise ValueError("every label must be 0 or 1")
    return X, Y.astype(int).tolist()


def sample(cfg: LinearModelConfig, x: np.ndarray, y: int) -> tuple:
    """The checked sample ``(x, y)`` as ``linear_update`` reads it: ``(x, x as a list, s = 2y - 1, x . x)``,
    the last only for the passive-aggressive kinds (0.0 otherwise)."""
    return x, x.tolist(), 2.0 * y - 1.0, 0.0 if cfg.kind in GRADIENT_KINDS else float(x.dot(x))


def linear_update(cfg: LinearModelConfig, w: np.ndarray, b: float, t: int, samples) -> float:
    """Update the contiguous weights ``w`` (in place) and bias ``b`` of a ``cfg`` model after ``t`` steps on
    each ``sample`` of ``samples`` in turn; returns the new bias. ``OnlineLinearModel`` and ``Population``
    share it.

    The weights change element by element in Python floats, which round each operation as numpy's
    elementwise ufuncs do, through a memoryview, whose item assignment costs half an ndarray's.
    """
    mw = memoryview(w)
    if cfg.kind in GRADIENT_KINDS:
        logit, lr, a, r = cfg.kind is ModelKind.LOGIT, cfg.learning_rate0, cfg.alpha_reg, cfg.l1_ratio
        penalty = None if a == 0.0 else cfg.penalty
        for x, xs, s, _ in samples:
            f = float(w.dot(x)) + b  # the BLAS dot of ``w @ x``, with less dispatch
            # d/df log(1 + exp(-s f)) = -s * sigmoid(-s f)
            g = -s * _sigmoid(-s * f) if logit else (-s if s * f < 1.0 else 0.0)
            eta = lr / (1.0 + lr * a * t)
            # w_i -= eta * (loss gradient + shrinkage gradient at the old w_i), sign(0) = 0
            for i, xi in enumerate(xs):
                wi = mw[i]
                if penalty is None:
                    mw[i] = wi - eta * (g * xi + 0.0)  # a zero shrinkage gradient still turns -0.0 into 0.0
                elif penalty is Penalty.L2:
                    mw[i] = wi - eta * (g * xi + a * wi)
                elif penalty is Penalty.L1:
                    mw[i] = wi - eta * (g * xi + a * ((wi > 0.0) - (wi < 0.0)))
                else:
                    mw[i] = wi - eta * (g * xi + a * (r * ((wi > 0.0) - (wi < 0.0)) + (1.0 - r) * wi))
            b -= eta * g
            t += 1
        return b
    for x, xs, s, norm_sq in samples:
        loss = max(0.0, 1.0 - s * (float(w.dot(x)) + b))
        if loss == 0.0 or norm_sq == 0.0:
            continue  # nothing to correct, or a degenerate sample with nothing informative to move along
        q = norm_sq + 1.0  # unit bias feature included
        if cfg.kind is ModelKind.PA_I:
            tau = min(cfg.aggressiveness_c, loss / q)
        else:
            tau = loss / (q + 0.5 / cfg.aggressiveness_c)
        step = tau * s
        for i, xi in enumerate(xs):
            mw[i] += step * xi
        b += step
    return b


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
        cfg = self.config
        self.bias = linear_update(cfg, self.weights, self.bias, self.step_count, [sample(cfg, x, y)])
        self.step_count += 1
        return self

    def fit(self, X, Y, epochs: int = 100, seed: int = 0) -> "OnlineLinearModel":
        """Run ``epochs`` shuffled passes of single-sample updates, checking the samples once."""
        checked_value(epochs, int, "epochs")
        checked_value(seed, int, "seed")
        X, labels = checked_samples(X, Y, self.dim, "model")
        cfg, rng = self.config, np.random.default_rng(seed)
        samples = [sample(cfg, x, y) for x, y in zip(X, labels)]
        for _ in range(epochs):
            order = rng.permutation(len(samples)).tolist()
            self.bias = linear_update(cfg, self.weights, self.bias, self.step_count, [samples[i] for i in order])
            self.step_count += len(order)
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
    def from_dict(cls, d: dict, path: str = "model") -> "OnlineLinearModel":
        """The model of ``to_dict`` output: its state checked against ``MODEL_STATE`` (a missing ``step_count``
        reads as 0), its config read by ``read_config``."""
        state = checked_value(d, MODEL_STATE, path)
        model = cls(read_config(LinearModelConfig, d, path, ("weights", "bias", "step_count")), len(state["weights"]))
        model.weights, model.bias = np.array(state["weights"], dtype=float), float(state["bias"])
        model.step_count = state.get("step_count", 0)
        return model
