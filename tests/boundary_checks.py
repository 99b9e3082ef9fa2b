"""Boundary shape measures for the tests: frontier points, their straightness, and enclosure of the origin."""

import numpy as np

from cooptile.bench import BoundaryGrid


def frontier_midpoints(grid: BoundaryGrid) -> np.ndarray:
    """Midpoints between lattice neighbours with differing labels."""
    points = []
    xs, ys, labels = grid.xs, grid.ys, grid.labels
    diff_x = labels[:-1, :] != labels[1:, :]
    for i, j in zip(*np.nonzero(diff_x)):
        points.append(((xs[i] + xs[i + 1]) / 2.0, ys[j]))
    diff_y = labels[:, :-1] != labels[:, 1:]
    for i, j in zip(*np.nonzero(diff_y)):
        points.append((xs[i], (ys[j] + ys[j + 1]) / 2.0))
    return np.asarray(points, dtype=float).reshape(-1, 2)


def max_line_residual(points: np.ndarray) -> float:
    """Largest orthogonal distance from the total-least-squares line.

    Two or fewer points are always collinear (residual 0); a straight
    frontier keeps this below the lattice step.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if points.shape[0] <= 2:
        return 0.0
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return float(np.abs(centered @ vt[-1]).max())


def encloses_origin(grid: BoundaryGrid) -> bool:
    """True when the origin's label component never reaches the lattice edge.

    Flood-fills same-label cells starting at the cell nearest (0, 0); a
    closed frontier around the origin keeps the fill interior.
    """
    i0 = int(np.abs(grid.xs).argmin())
    j0 = int(np.abs(grid.ys).argmin())
    labels = grid.labels
    target = labels[i0, j0]
    ni, nj = labels.shape
    seen = np.zeros_like(labels, dtype=bool)
    stack = [(i0, j0)]
    seen[i0, j0] = True
    while stack:
        i, j = stack.pop()
        if i == 0 or j == 0 or i == ni - 1 or j == nj - 1:
            return False
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if not seen[a, b] and labels[a, b] == target:
                seen[a, b] = True
                stack.append((a, b))
    return True
