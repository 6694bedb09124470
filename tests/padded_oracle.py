"""Reference arc-scan oracle batch: fourteen candidate indices on every row.

The batch oracle as first written.  Every row gets both endpoints plus four
grid neighbours for each of the three shifts of the critical angle, and a
shift with no interior critical point is padded with index 0, the first
endpoint again.  The library evaluates the neighbours only on the rows
whose shift lands inside the arc; this copy is the oracle it is checked
against, bit for bit.
"""

from __future__ import annotations

import numpy as np

from aabscreen.sphere import _arc_grid_points, great_circle_distance_batch


def arc_angles(G3: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the arc length psi and one critical angle of the distance
    to g3 along the arc's great circle; the others are pi apart."""
    x = np.einsum("ij,ij->i", G1, G3)
    y = np.einsum("ij,ij->i", G2, G3)
    z = np.einsum("ij,ij->i", G1, G2)
    psi = np.arccos(np.clip(z, -1.0, 1.0))
    return psi, np.arctan2(y - x * z, x * np.sin(psi))


def padded_oracle_batch(G3: np.ndarray, G1: np.ndarray, G2: np.ndarray, steps: int) -> np.ndarray:
    """Grid minimum over the padded (n, 14) candidate indices."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    psi, theta_star = arc_angles(G3, G1, G2)

    n = G3.shape[0]
    last = float(steps - 1)
    cands = [np.zeros(n), np.full(n, last)]
    for shift in (-np.pi, 0.0, np.pi):
        theta = theta_star + shift
        inside = (theta > 0.0) & (theta < psi)
        pos = np.where(inside, theta / psi * last, 0.0)
        base = np.floor(pos)
        for off in (-1.0, 0.0, 1.0, 2.0):
            cands.append(np.where(inside, np.clip(base + off, 0.0, last), 0.0))
    idx = np.stack(cands, axis=1)

    pts = _arc_grid_points(G1[:, None, :], G2[:, None, :], idx, steps)
    d = great_circle_distance_batch(np.broadcast_to(G3[:, None, :], pts.shape), pts)
    return d.min(axis=1)


def interior_shift_count(G3: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """Per row, how many of the three shifts of the critical angle fall
    strictly inside the arc, as the oracle decides it."""
    psi, theta_star = arc_angles(G3, G1, G2)
    return sum(
        ((theta_star + shift > 0.0) & (theta_star + shift < psi)).astype(int)
        for shift in (-np.pi, 0.0, np.pi)
    )
