"""Reference computations the benchmark checks the program against.

``exploit`` re-derives the engine's exploitation decision from a
snapshot alone, with numpy and without calling into ``cooptile``:

* an agent is activated when the point lies inside its box, bounds
  included;
* an agent's score is ``sigmoid(confidence)``;
* activated agents whose score lies within ``TIE_TOL`` of the top score
  tie; tied agents vote with their linear models and a tied vote goes to
  the smaller label;
* an uncovered point goes to the nearest box (Euclidean gap), a tie in
  distance going to the lowest agent id;
* an agent's model says class 1 when ``w . x + b >= 0``.

``lstsq_baseline`` is the linear yardstick: ordinary least squares on
``+-1`` targets with a bias column, thresholded at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TIE_TOL = 1e-12

# rows per block: keeps the (rows, agents, dim) temporaries small
_BLOCK = 1024


@dataclass
class Exploitation:
    """Per-row reference decision plus the path that produced it."""

    labels: np.ndarray  # predicted class per row
    covered: np.ndarray  # row lies inside at least one box
    tied: np.ndarray  # covered row whose top score is shared by several agents


def _population(snap: dict):
    if snap["config"].get("normalization", "sigmoid") != "sigmoid":
        raise ValueError("reference knows only the sigmoid score")
    agents = sorted(snap["agents"], key=lambda a: a["id"])
    if not agents:
        raise ValueError("snapshot holds no agents")
    lower = np.array([a["region"]["lower"] for a in agents], dtype=float)
    upper = np.array([a["region"]["upper"] for a in agents], dtype=float)
    conf = np.array([a["confidence"] for a in agents], dtype=float)
    weights = np.array([a["model"]["weights"] for a in agents], dtype=float)
    bias = np.array([a["model"]["bias"] for a in agents], dtype=float)
    # sigmoid, with exp() kept off large positive arguments
    e = np.exp(-np.abs(conf))
    score = np.where(conf >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return lower, upper, score, weights, bias


def exploit(snap: dict, X) -> Exploitation:
    """Reference exploitation of every row of ``X`` by the snapshot's agents."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    lower, upper, score, weights, bias = _population(snap)
    labels = np.empty(X.shape[0], dtype=int)
    covered = np.empty(X.shape[0], dtype=bool)
    tied = np.zeros(X.shape[0], dtype=bool)
    for start in range(0, X.shape[0], _BLOCK):
        rows = X[start : start + _BLOCK]
        sl = slice(start, start + rows.shape[0])
        votes = (rows @ weights.T + bias[None, :]) >= 0.0  # (rows, agents)
        inside = np.all((rows[:, None, :] >= lower[None]) & (rows[:, None, :] <= upper[None]), axis=2)
        cov = inside.any(axis=1)
        covered[sl] = cov
        masked = np.where(inside, score[None, :], -np.inf)
        top = masked.max(axis=1)
        tie_set = inside & (masked >= top[:, None] - TIE_TOL)
        n_tied = tie_set.sum(axis=1)
        ones = (tie_set & votes).sum(axis=1)
        covered_label = (2 * ones > n_tied).astype(int)  # equal vote -> class 0
        gap = np.maximum(np.maximum(lower[None] - rows[:, None, :], rows[:, None, :] - upper[None]), 0.0)
        nearest = np.argmin((gap * gap).sum(axis=2), axis=1)  # first minimum = lowest id
        nearest_label = votes[np.arange(rows.shape[0]), nearest].astype(int)
        labels[sl] = np.where(cov, covered_label, nearest_label)
        tied[sl] = cov & (n_tied > 1)
    return Exploitation(labels=labels, covered=covered, tied=tied)


def lstsq_baseline(X_train, Y_train, X_test) -> np.ndarray:
    """Class predictions of a least-squares linear fit on ``+-1`` targets."""
    A = np.column_stack([np.asarray(X_train, dtype=float), np.ones(len(X_train))])
    t = 2.0 * np.asarray(Y_train, dtype=float) - 1.0
    coef, *_ = np.linalg.lstsq(A, t, rcond=None)
    B = np.column_stack([np.asarray(X_test, dtype=float), np.ones(len(X_test))])
    return (B @ coef >= 0.0).astype(int)
