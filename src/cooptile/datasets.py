"""Deterministic 2-d toy dataset generators, standardization and CSV I/O.

Three binary benchmark shapes with different degrees of linear
separability: two interleaved half-moons, two concentric circles, and two
Gaussian blobs separated along the first axis only. Generators are pure
functions of their arguments; per-class point counts split ``n`` as
evenly as possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linear import Keys, checked_value, opened, read_json, write_json


@dataclass
class Dataset:
    """Point matrix, 0/1 labels, optional standardization scaler."""

    X: np.ndarray
    Y: np.ndarray
    scaler: tuple[np.ndarray, np.ndarray] | None = None  # (mean, std) per column
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        if self.X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y row counts differ")
        labels = set(np.unique(Y).tolist())
        if not labels <= {0, 1}:  # checked before the cast to int, which would truncate 0.5 to 0
            raise ValueError(f"labels must be 0/1, got {sorted(labels)}")
        if labels != {0, 1}:
            raise ValueError("both classes must be present")
        self.Y = Y.astype(int)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _split(n: int) -> tuple[int, int]:
    if n < 2:
        raise ValueError("need at least 2 points (one per class)")
    return n - n // 2, n // 2


def _jitter(X: np.ndarray, noise: float, seed: int) -> np.ndarray:
    """``X`` plus Gaussian noise of standard deviation ``noise``; ``X`` itself at noise 0."""
    if not 0 <= noise < math.inf:
        raise ValueError("noise must be non-negative and finite")
    return X + np.random.default_rng(seed).normal(0.0, noise, X.shape) if noise > 0 else X


def gen_moons(n: int = 100, noise: float = 0.3, seed: int = 0) -> Dataset:
    """Two interleaved half-moon arcs with Gaussian jitter.

    Class 0 sits on the upper unit half-circle ``(cos t, sin t)``,
    class 1 on the shifted lower arc ``(1 - cos t, 0.5 - sin t)``,
    with ``t`` an even grid on [0, pi].
    """
    n0, n1 = _split(n)
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    X = np.concatenate(
        [
            np.column_stack([np.cos(t0), np.sin(t0)]),
            np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
        ]
    )
    Y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    X = _jitter(X, noise, seed)
    meta = {"generator": "moons", "n": n, "noise": noise, "seed": seed}
    return Dataset(X, Y, meta=meta)


def gen_circles(n: int = 100, noise: float = 0.2, factor: float = 0.5, seed: int = 0) -> Dataset:
    """A small circle (class 1) inside a unit ring (class 0), with jitter."""
    if not 0.0 < factor < 1.0:
        raise ValueError("factor must lie strictly between 0 and 1")
    n0, n1 = _split(n)
    t0 = np.linspace(0.0, 2.0 * np.pi, n0, endpoint=False)
    t1 = np.linspace(0.0, 2.0 * np.pi, n1, endpoint=False)
    X = np.concatenate(
        [
            np.column_stack([np.cos(t0), np.sin(t0)]),
            factor * np.column_stack([np.cos(t1), np.sin(t1)]),
        ]
    )
    Y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    X = _jitter(X, noise, seed)
    meta = {"generator": "circles", "n": n, "noise": noise, "factor": factor, "seed": seed}
    return Dataset(X, Y, meta=meta)


def gen_linear(n: int = 100, seed: int = 0) -> Dataset:
    """Two unit-variance Gaussian blobs at (-1.5, 0) and (+1.5, 0).

    Only the first variable carries class information.
    """
    n0, n1 = _split(n)
    rng = np.random.default_rng(seed)
    X = np.concatenate(
        [
            rng.normal(0.0, 1.0, (n0, 2)) + np.array([-1.5, 0.0]),
            rng.normal(0.0, 1.0, (n1, 2)) + np.array([1.5, 0.0]),
        ]
    )
    Y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    meta = {"generator": "linear", "n": n, "seed": seed}
    return Dataset(X, Y, meta=meta)


def standardize(ds: Dataset) -> Dataset:
    """Z-score every column with full-dataset mean and population std."""
    mean = ds.X.mean(axis=0)
    std = ds.X.std(axis=0)
    if np.any(std == 0.0):
        raise ValueError("cannot standardize a zero-variance column")
    meta = dict(ds.meta)
    meta["standardized"] = True
    return Dataset((ds.X - mean) / std, ds.Y.copy(), scaler=(mean, std), meta=meta)


def save_csv(ds: Dataset, path) -> None:
    """Write ``x1,x2,y`` rows (17 significant digits, lossless round-trip).

    Generator parameters, when present in ``ds.meta``, go to a sidecar
    ``<path>.json`` manifest.
    """
    path = Path(path)
    if ds.X.shape[1] != 2:
        raise ValueError("CSV schema is fixed to two features")
    with opened(path) as f:
        f.write("x1,x2,y\n")
        for (x1, x2), y in zip(ds.X, ds.Y):
            f.write(f"{x1:.17g},{x2:.17g},{int(y)}\n")
    if ds.meta:
        write_json(path.with_suffix(path.suffix + ".json"), ds.meta)


def load_csv(path) -> Dataset:
    """Read a ``x1,x2,y`` file written by :func:`save_csv`, and its manifest, if any, by ``checked_value``; a
    file that is not UTF-8 text of finite coordinates and 0/1 labels, or that ``Dataset`` refuses, raises
    ``ValueError`` naming it."""
    path = Path(path)
    xs, ys = [], []
    with open(path) as f:
        try:
            header = f.readline().strip()
            if header != "x1,x2,y":
                raise ValueError(f"{path}: line 1: expected header 'x1,x2,y', got {header!r}")
            for lineno, line in enumerate(f, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
                try:
                    x = (float(parts[0]), float(parts[1]))
                    if not (math.isfinite(x[0]) and math.isfinite(x[1])):
                        raise ValueError(f"coordinates must be finite, got {parts[0]!r} and {parts[1]!r}")
                    y = int(parts[2])
                    if y not in (0, 1):
                        raise ValueError(f"label must be 0 or 1, got {parts[2]!r}")
                    xs.append(x)
                    ys.append(y)
                except ValueError as err:
                    raise ValueError(f"{path}: line {lineno}: {err}") from None
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {err}") from None
    if not xs:
        raise ValueError(f"{path}: holds no points")
    manifest = path.with_suffix(path.suffix + ".json")
    meta = {}
    if manifest.exists():  # the generator parameters that save_csv writes
        params = {"generator": str, "n": int, "noise": float, "factor": float, "seed": int, "standardized": bool}
        meta = checked_value(read_json(manifest), Keys({}, params), str(manifest))
    try:
        return Dataset(np.asarray(xs, dtype=float), np.asarray(ys, dtype=int), meta=meta)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
