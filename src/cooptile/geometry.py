"""Axis-aligned box arithmetic for cooperative space tiling.

A box is the activation region of one tiling agent: bound vectors with
``lower[j] < upper[j]`` on every axis. Membership tests use closed bounds,
while overlap is measured by volume, so boxes sharing only a face are
disjoint. The functions take bound vectors, so the engine reshapes the rows
of its population arrays in place; each returns new bounds, checked to keep
``lower < upper`` (``ValueError`` otherwise). These functions are the box
API; :class:`Hypercube`, a checked read-only pair of bound vectors with a
membership test, remains only while ``perfbench/test_perfbench.py`` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: A box as its bound vectors ``(lower, upper)``.
Bounds = tuple[np.ndarray, np.ndarray]


def checked(lower: np.ndarray, upper: np.ndarray) -> Bounds:
    """The bounds themselves, after checking ``lower < upper`` on every axis."""
    if not (lower < upper).all():
        raise ValueError("every lower bound must lie strictly below its upper bound")
    return lower, upper


def around(center: np.ndarray, half_width: float) -> Bounds:
    """Bounds of the box of the given half-width centred on a point."""
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    return checked(center - half_width, center + half_width)


def volume(lower: np.ndarray, upper: np.ndarray) -> float:
    """Product of side lengths."""
    return float(np.prod(upper - lower))


def contains(lower: np.ndarray, upper: np.ndarray, x: np.ndarray) -> bool:
    """Closed-bounds membership: true on faces and corners too."""
    return bool((x >= lower).all() and (x <= upper).all())


def rescale(lower: np.ndarray, upper: np.ndarray, factor: float) -> Bounds:
    """Grow (``factor > 0``) or shrink (``factor < 0``) isotropically about the center, so that
    the volume becomes ``(1 + factor) * volume``; factor 0 returns the bounds themselves."""
    if factor == 0.0:
        return lower, upper
    half = (upper - lower) * ((1.0 + factor) ** (1.0 / lower.size) / 2.0)
    center = (lower + upper) / 2.0
    return checked(center - half, center + half)


def overlap_widths(lower: np.ndarray, upper: np.ndarray, other_lower: np.ndarray,
                   other_upper: np.ndarray) -> np.ndarray:
    """Per-axis extent of the intersection of two boxes, or of rows of boxes (broadcast)."""
    return np.minimum(upper, other_upper) - np.maximum(lower, other_lower)


def overlap_volume(widths: np.ndarray) -> float:
    """Intersection volume of ``overlap_widths``; 0.0 for disjoint or touching boxes, or on underflow."""
    return 0.0 if (widths <= 0.0).any() else float(np.prod(widths))


def overlap_index(iv: float, lower: np.ndarray, upper: np.ndarray, other_lower: np.ndarray,
                  other_upper: np.ndarray) -> float:
    """Intersection volume ``iv`` of two boxes over the smaller box's volume; symmetric, in [0, 1]."""
    if iv == 0.0:
        return 0.0
    return min(iv / min(volume(lower, upper), volume(other_lower, other_upper)), 1.0)


def push(lower: np.ndarray, upper: np.ndarray, other_lower: np.ndarray, other_upper: np.ndarray) -> Bounds | None:
    """Bounds of the overlapping box ``other`` after the one cut to this box's faces that separates
    them at the least volume (ties: lowest dimension, then the lower bound); ``None`` when no single
    cut can, because ``other``'s extent lies within this box's on every axis."""
    lo, up, other_lo, other_up = lower.tolist(), upper.tolist(), other_lower.tolist(), other_upper.tolist()
    # removed volume = other's volume * removed_width / extent, so comparing
    # removed_width / extent ranks the cuts (key, dimension, side) by removed volume
    cuts = []
    for j in range(len(lo)):
        extent = other_up[j] - other_lo[j]
        if other_up[j] > up[j]:  # side 0 keeps other's high part: raise its lower bound to our upper face
            cuts.append(((up[j] - other_lo[j]) / extent, j, 0))
        if other_lo[j] < lo[j]:  # side 1 keeps other's low part: drop its upper bound to our lower face
            cuts.append(((other_up[j] - lo[j]) / extent, j, 1))
    if not cuts:
        return None
    _, j, side = min(cuts)
    return _cut(other_lower, other_upper, j, side, up[j] if side == 0 else lo[j])


def exclude(lower: np.ndarray, upper: np.ndarray, x: np.ndarray, epsilon_scale: float) -> Bounds:
    """Bounds carved so that ``x`` falls strictly outside: one bound moves just past ``x``, by
    ``epsilon_scale`` times that side's length. The cut removing the least volume wins (ties:
    lowest dimension, then the lower bound). The bounds themselves when ``x`` is outside."""
    if not 0.0 < epsilon_scale < 0.5:
        raise ValueError("epsilon_scale must lie in (0, 0.5)")
    if not contains(lower, upper, x):
        return lower, upper
    lo, up, xs = lower.tolist(), upper.tolist(), x.tolist()
    # removed volume = volume * ((x - lower)/extent + eps_scale) for a lower
    # cut (mirrored for an upper cut), so that fraction ranks candidates;
    # this exact form keeps symmetric cases tied in float so they fall to
    # the (dimension, lower-bound-first) rule
    cuts = []
    for j in range(len(lo)):
        extent = up[j] - lo[j]
        eps = epsilon_scale * extent
        if xs[j] + eps < up[j]:
            cuts.append(((xs[j] - lo[j]) / extent + epsilon_scale, j, 0))
        if xs[j] - eps > lo[j]:
            cuts.append(((up[j] - xs[j]) / extent + epsilon_scale, j, 1))
    if not cuts:
        raise ValueError("epsilon_scale too large: no cut leaves a valid box")
    _, j, side = min(cuts)
    eps = epsilon_scale * (up[j] - lo[j])
    return _cut(lower, upper, j, side, xs[j] + eps if side == 0 else xs[j] - eps)


def _cut(lower: np.ndarray, upper: np.ndarray, j: int, side: int, bound: float) -> Bounds:
    """Checked copies of the bounds, with dimension ``j``'s lower (side 0) or upper (side 1) bound moved."""
    lower, upper = lower.copy(), upper.copy()
    (lower if side == 0 else upper)[j] = bound
    return checked(lower, upper)


def enclose(lower: np.ndarray, upper: np.ndarray, other_lower: np.ndarray, other_upper: np.ndarray) -> Bounds:
    """Bounds of the smallest box containing both boxes (componentwise min/max)."""
    return checked(np.minimum(lower, other_lower), np.maximum(upper, other_upper))


@dataclass(frozen=True, slots=True)
class Hypercube:
    """Box ``[lower[j], upper[j]]`` per axis, with ``lower[j] < upper[j]``: checked, read-only bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("bounds must be 1-d vectors of equal length")
        if lower.size == 0:
            raise ValueError("a hypercube needs at least one dimension")
        checked(lower, upper)
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def contains(self, x) -> bool:
        """Closed-bounds membership: true on faces and corners too."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != self.lower.size:
            raise ValueError(f"point has dimension {x.size}, box has {self.lower.size}")
        return contains(self.lower, self.upper, x)
