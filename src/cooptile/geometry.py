"""Axis-aligned hypercube arithmetic for cooperative space tiling.

A :class:`Hypercube` is the activation region of one tiling agent: a box
with strictly positive extent on every axis. Membership tests use closed
bounds, while overlap is measured by volume, so two boxes sharing only a
face count as disjoint.

Instances are immutable values; every operation returns a new box and is
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Hypercube:
    """Box ``[lower[j], upper[j]]`` per axis, with ``lower[j] < upper[j]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("bounds must be 1-d vectors of equal length")
        if lower.size == 0:
            raise ValueError("a hypercube needs at least one dimension")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must lie strictly below its upper bound")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def around(cls, center: np.ndarray, half_width: float) -> "Hypercube":
        """Box of the given half-width centred on a point."""
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        center = np.asarray(center, dtype=float)
        return cls(center - half_width, center + half_width)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def volume(self) -> float:
        """Product of side lengths; always strictly positive."""
        return float(np.prod(self.upper - self.lower))

    def contains(self, x) -> bool:
        """Closed-bounds membership: true on faces and corners too."""
        x = self._check_point(x)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def expand(self, factor: float) -> "Hypercube":
        """Grow isotropically about the center so volume becomes ``(1 + factor) * volume``."""
        if factor < 0:
            raise ValueError("expand factor must be non-negative")
        if factor == 0.0:
            return self
        return self._rescaled((1.0 + factor) ** (1.0 / self.dim))

    def retract(self, factor: float) -> "Hypercube":
        """Shrink isotropically about the center so volume becomes ``(1 - factor) * volume``."""
        if not 0.0 <= factor < 1.0:
            raise ValueError("retract factor must lie in [0, 1)")
        if factor == 0.0:
            return self
        return self._rescaled((1.0 - factor) ** (1.0 / self.dim))

    def _rescaled(self, scale: float) -> "Hypercube":
        half = (self.upper - self.lower) * (scale / 2.0)
        c = self.center
        return Hypercube(c - half, c + half)

    def intersection_volume(self, other: "Hypercube") -> float:
        """Volume of the overlap region; 0.0 for disjoint or merely touching boxes."""
        self._check_same_dim(other)
        widths = np.minimum(self.upper, other.upper) - np.maximum(self.lower, other.lower)
        if np.any(widths <= 0.0):
            return 0.0
        return float(np.prod(widths))

    def overlap_index(self, other: "Hypercube") -> float:
        """Intersection volume over the smaller box's volume; symmetric, in [0, 1].

        Equals 1 exactly when one box contains the other, 0 exactly when
        the intersection has zero volume.
        """
        iv = self.intersection_volume(other)
        if iv == 0.0:
            return 0.0
        return min(iv / min(self.volume(), other.volume()), 1.0)

    def push(self, other: "Hypercube") -> "Hypercube | None":
        """Separate ``other`` from this box by moving one of its bounds.

        Exactly one bound of ``other`` is moved to the matching face of this
        box, choosing the dimension and side that remove the least volume
        from ``other`` (ties: lowest dimension, then the lower bound). The
        result no longer overlaps this box.

        Returns ``None`` when ``other``'s extent lies within this box's
        extent on every axis, so no single-bound cut can separate them; the
        caller should absorb ``other`` instead. If the boxes do not overlap
        to begin with, ``other`` is returned unchanged.
        """
        self._check_same_dim(other)
        if self.intersection_volume(other) == 0.0:
            return other
        # removed volume = other.volume() * removed_width / side, so comparing
        # removed_width / side ranks candidates by removed volume
        sides = other.upper - other.lower
        best_key: tuple[float, int, int] | None = None
        for j in range(self.dim):
            # side 0 keeps other's high part: raise its lower bound to our upper face
            if other.upper[j] > self.upper[j]:
                key = (float((self.upper[j] - other.lower[j]) / sides[j]), j, 0)
                if best_key is None or key < best_key:
                    best_key = key
            # side 1 keeps other's low part: drop its upper bound to our lower face
            if other.lower[j] < self.lower[j]:
                key = (float((other.upper[j] - self.lower[j]) / sides[j]), j, 1)
                if best_key is None or key < best_key:
                    best_key = key
        if best_key is None:
            return None
        _, j, side = best_key
        if side == 0:
            lower = other.lower.copy()
            lower[j] = self.upper[j]
            return Hypercube(lower, other.upper)
        upper = other.upper.copy()
        upper[j] = self.lower[j]
        return Hypercube(other.lower, upper)

    def exclude(self, x, epsilon_scale: float = 1e-6) -> "Hypercube":
        """Carve the box so the point ``x`` falls strictly outside of it.

        One bound along one dimension is moved just past ``x``, offset by
        ``epsilon_scale`` times that dimension's side length (closed bounds
        require a strict offset). The cut removing the least volume wins;
        ties prefer the lowest dimension, then moving the lower bound.

        Returns the box unchanged when ``x`` is not inside it.
        """
        if not 0.0 < epsilon_scale < 0.5:
            raise ValueError("epsilon_scale must lie in (0, 0.5)")
        x = self._check_point(x)
        if not self.contains(x):
            return self
        # removed volume = volume * ((x - lower)/side + eps_scale) for a lower
        # cut (mirrored for an upper cut), so that fraction ranks candidates;
        # this exact form keeps symmetric cases tied in float so they fall to
        # the (dimension, lower-bound-first) rule
        sides = self.upper - self.lower
        best_key: tuple[float, int, int] | None = None
        for j in range(self.dim):
            eps = epsilon_scale * sides[j]
            if x[j] + eps < self.upper[j]:
                key = (float((x[j] - self.lower[j]) / sides[j]) + epsilon_scale, j, 0)
                if best_key is None or key < best_key:
                    best_key = key
            if x[j] - eps > self.lower[j]:
                key = (float((self.upper[j] - x[j]) / sides[j]) + epsilon_scale, j, 1)
                if best_key is None or key < best_key:
                    best_key = key
        if best_key is None:
            raise ValueError("epsilon_scale too large: no cut leaves a valid box")
        _, j, side = best_key
        eps = epsilon_scale * sides[j]
        if side == 0:
            lower = self.lower.copy()
            lower[j] = x[j] + eps
            return Hypercube(lower, self.upper)
        upper = self.upper.copy()
        upper[j] = x[j] - eps
        return Hypercube(self.lower, upper)

    def enclose(self, other: "Hypercube") -> "Hypercube":
        """Smallest box containing both inputs (componentwise min/max)."""
        self._check_same_dim(other)
        return Hypercube(
            np.minimum(self.lower, other.lower),
            np.maximum(self.upper, other.upper),
        )

    def distance_to(self, x) -> float:
        """Euclidean distance from ``x`` to the box; 0 iff the point is inside."""
        x = self._check_point(x)
        outside = np.maximum(np.maximum(self.lower - x, x - self.upper), 0.0)
        # hypot, not the root of summed squares: a tiny gap must not underflow to 0
        return float(np.hypot.reduce(outside))

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != self.dim:
            raise ValueError(f"point has dimension {x.size}, box has {self.dim}")
        return x

    def _check_same_dim(self, other: "Hypercube") -> None:
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
