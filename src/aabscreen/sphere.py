"""Geometry on the unit sphere S2.

Pairwise directions between camera locations live on S2.  Three directions
around a triangle are cycle-consistent exactly when the third one lies on the
consistency region Omega(g1, g2): the geodesic arc of unit vectors that are
positive combinations of -g1 and -g2.  The AAB inconsistency of g3 against
(g1, g2) is the great-circle distance from g3 to that arc.

Conventions used throughout:

* a unit vector is a float64 array of shape (3,) with Euclidean norm 1;
* angles are plain floats in radians, always in [0, pi];
* batch variants take (n, 3) arrays and skip per-row validation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UnitVector3",
    "Radians",
    "DegenerateBaseError",
    "UNIT_NORM_TOL",
    "DEGENERATE_BASE_TOL",
    "unit_rows",
    "as_unit_vector",
    "great_circle_distance",
    "great_circle_distance_batch",
    "sample_uniform_sphere_batch",
    "aab_inconsistency",
    "aab_inconsistency_batch",
    "aab_inconsistency_oracle",
    "aab_oracle_batch",
    "degenerate_base_mask",
]

UnitVector3 = np.ndarray
Radians = float

# Inputs may deviate from unit norm by at most this much before rejection,
# and by at most _RENORM_TOL before they are renormalized.
UNIT_NORM_TOL = 1e-6
_RENORM_TOL = 1e-12

# Base pair (g1, g2) with z = g1.g2 and z^2 > 1 - DEGENERATE_BASE_TOL is
# degenerate: the arc collapses to a point or covers a full great circle.
DEGENERATE_BASE_TOL = 1e-9

# Grid points the scan oracle evaluates per pass; bounds its temporaries.
_ORACLE_CHUNK = 262144


class DegenerateBaseError(ValueError):
    """The base pair is (anti)parallel, so the consistency arc is ill-defined."""


def unit_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one normalization of input directions: ``(rows, norms, unit)``
    for an (m, 3) array ``d``, with its row norms and the mask of rows within
    ``UNIT_NORM_TOL`` of unit norm.  Such a row is returned as given if it is
    within 1e-12 of unit norm, else divided by its norm.  The other rows,
    non-finite and zero ones among them, are left undivided for the caller
    to reject."""
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(over="ignore"):  # a huge row's norm is inf: not unit
        norms = np.linalg.norm(d, axis=1)
    off = np.abs(norms - 1.0)
    unit = off <= UNIT_NORM_TOL
    fix = unit & (off > _RENORM_TOL)
    if fix.any():
        d = d.copy()
        d[fix] /= norms[fix, None]
    return d, norms, unit


def as_unit_vector(v) -> UnitVector3:
    """Validate ``v`` as a float64 3-vector and return the one row of
    ``unit_rows``.

    Raises:
        ValueError: if the shape is not (3,) or the norm deviates from 1 by
            more than ``UNIT_NORM_TOL``.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    rows, norms, unit = unit_rows(v[None])
    if not unit[0]:
        raise ValueError(f"vector norm {norms[0]!r} deviates from 1 by more than {UNIT_NORM_TOL}")
    return rows[0].copy()


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, of length 3: the sum that
    ``np.linalg.norm`` forms, so the same bits, from the components
    instead of a strided reduction over squared rows."""
    x, y, z = np.moveaxis(v, -1, 0)
    return np.sqrt((x * x + y * y) + z * z)


def great_circle_distance(u: UnitVector3, v: UnitVector3) -> Radians:
    """Angle between two unit vectors, in [0, pi]: one row of
    ``great_circle_distance_batch`` after validating both inputs."""
    return float(great_circle_distance_batch(as_unit_vector(u), as_unit_vector(v)))


def great_circle_distance_batch(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise angles between two (..., 3) arrays of unit vectors.

    Uses the chord-based arcsine form, which stays accurate near 0 and pi
    where arccos of a clamped dot product loses half the significant digits:
    the chord U - V when the dot product is >= 0, else pi minus the angle of
    the chord U + V to the antipode.
    """
    near = np.einsum("...i,...i->...", U, V) >= 0.0
    chord = _norms(U - np.where(near, 1.0, -1.0)[..., None] * V)
    half = 2.0 * np.arcsin(np.minimum(1.0, chord / 2.0))
    return np.where(near, half, np.pi - half)


def sample_uniform_sphere_batch(stream: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` points uniformly from S2, shape (size, 3)."""
    v = stream.normal(size=(size, 3))
    n = np.linalg.norm(v, axis=1)
    bad = n == 0.0
    while bad.any():
        v[bad] = stream.normal(size=(int(bad.sum()), 3))
        n = np.linalg.norm(v, axis=1)
        bad = n == 0.0
    return v / n[:, None]


def degenerate_base_mask(G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose base pair is (anti)parallel."""
    z = np.einsum("ij,ij->i", G1, G2)
    return z * z > 1.0 - DEGENERATE_BASE_TOL


def _reject_degenerate_base(g1: UnitVector3, g2: UnitVector3) -> None:
    """``degenerate_base_mask`` applied to the one pair (g1, g2)."""
    if degenerate_base_mask(g1[None], g2[None])[0]:
        z = float(np.dot(g1, g2))
        raise DegenerateBaseError(f"base pair nearly (anti)parallel: g1.g2 = {z!r}")


def aab_inconsistency(g3: UnitVector3, g1: UnitVector3, g2: UnitVector3) -> Radians:
    """Great-circle distance from ``g3`` to the consistency arc of (g1, g2):
    one row of ``aab_inconsistency_batch`` after validating the inputs.

    Raises:
        DegenerateBaseError: if g1 and g2 are parallel or antiparallel
            (z^2 > 1 - DEGENERATE_BASE_TOL with z = g1.g2).
    """
    g3 = as_unit_vector(g3)
    g1 = as_unit_vector(g1)
    g2 = as_unit_vector(g2)
    _reject_degenerate_base(g1, g2)
    return float(aab_inconsistency_batch(g3[None], g1[None], g2[None])[0])


def aab_inconsistency_batch(G3: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """Row-wise AAB inconsistencies for (n, 3) arrays of unit vectors.

    With x = g1.g3, y = g2.g3, z = g1.g2, the orthogonal projection of g3
    onto span{g1, g2} points into the arc iff x < y*z and y < x*z.  On those
    rows the distance is the angle between g3 and its normalized projection,
    of cosine sqrt((x^2 + y^2 - 2xyz) / (1 - z^2)), evaluated as atan2 of the
    perpendicular and in-plane component norms; that keeps exactly
    consistent triples at ~1e-15 instead of the ~1e-8 floor of arccos near 1.

    Elsewhere it is the distance to the nearer arc endpoint, -g1 when x <= y
    and -g2 otherwise, through the one arcsine form the sign of its dot
    product selects.  On an exact tie x == y the two endpoint distances
    agree only up to rounding, and the value may differ from the smaller of
    the two in the last bits.

    No degeneracy check: callers must mask degenerate bases themselves
    (see ``degenerate_base_mask``); degenerate rows yield garbage.
    """
    x = np.einsum("ij,ij->i", G1, G3)
    y = np.einsum("ij,ij->i", G2, G3)
    z = np.einsum("ij,ij->i", G1, G2)
    inside = (x < y * z) & (y < x * z)
    out = np.empty(x.shape)

    rows = np.flatnonzero(inside)
    g1, g2, g3 = (np.take(a, rows, axis=0) for a in (G1, G2, G3))
    xi, yi, zi = x[rows], y[rows], z[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = 1.0 - zi * zi
        lam1 = (xi - yi * zi) / denom
        lam2 = (yi - xi * zi) / denom
    gp = lam1[:, None] * g1 + lam2[:, None] * g2
    out[rows] = np.arctan2(_norms(g3 - gp), _norms(gp))

    # the nearer endpoint is -g, g the base vector with the smaller dot
    # product with g3
    rows = np.flatnonzero(~inside)
    first = x[rows] <= y[rows]
    g = np.take(G2, rows, axis=0)
    g[first] = np.take(G1, rows[first], axis=0)
    out[rows] = great_circle_distance_batch(np.take(G3, rows, axis=0), -g)
    return out


def _arc_grid_points(g1: np.ndarray, g2: np.ndarray, idx: np.ndarray, steps: int) -> np.ndarray:
    """Points of the uniform slerp grid on the arc from -g1 to -g2.

    ``g1``/``g2`` broadcast against ``idx``; index i maps to parameter
    u = i / (steps - 1).  Shared by the scan oracle and its fast batch
    equivalent, so that both build the same point from the same vectors.
    """
    z = np.einsum("...i,...i->...", g1, g2)
    psi = np.arccos(np.clip(z, -1.0, 1.0))
    u = idx / (steps - 1.0)
    s1 = np.sin((1.0 - u) * psi)
    s2 = np.sin(u * psi)
    return (s1[..., None] * (-g1) + s2[..., None] * (-g2)) / np.sin(psi)[..., None]


def aab_inconsistency_oracle(
    g3: UnitVector3, g1: UnitVector3, g2: UnitVector3, steps: int
) -> Radians:
    """Brute-force AAB inconsistency: scan of ``steps`` slerp points.

    Evaluates the great-circle distance from ``g3`` to every point of the
    uniform grid on the arc from -g1 to -g2 (endpoints included) and returns
    the minimum.  Overestimates the true arc distance by at most
    (arc length) / (steps - 1).  Independent of the closed form: this is the
    reference the formula is checked against.
    """
    g3 = as_unit_vector(g3)
    g1 = as_unit_vector(g1)
    g2 = as_unit_vector(g2)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    _reject_degenerate_base(g1, g2)
    best = np.inf
    for lo in range(0, steps, _ORACLE_CHUNK):
        idx = np.arange(lo, min(lo + _ORACLE_CHUNK, steps), dtype=np.float64)
        pts = _arc_grid_points(g1, g2, idx, steps)
        d = great_circle_distance_batch(np.broadcast_to(g3, pts.shape), pts)
        best = min(best, float(d.min()))
    return best


def aab_oracle_batch(G3: np.ndarray, G1: np.ndarray, G2: np.ndarray, steps: int) -> np.ndarray:
    """Grid minimum of ``aab_inconsistency_oracle``, rows at once.

    Avoids scanning all ``steps`` points: along the arc the cosine of the
    distance to g3 is a sinusoid in the arc parameter, so on a window
    shorter than half a period the grid minimum is attained at an endpoint
    or at a grid neighbor of the single interior critical point.  Only those
    candidate indices are evaluated, with the same grid-point construction
    and distance formula as the full scan: the two endpoints on every row,
    the four neighbours only on rows with an interior critical point.

    Rows with a degenerate base are the caller's problem, as in
    ``aab_inconsistency_batch``.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    x = np.einsum("ij,ij->i", G1, G3)
    y = np.einsum("ij,ij->i", G2, G3)
    z = np.einsum("ij,ij->i", G1, G2)
    psi = np.arccos(np.clip(z, -1.0, 1.0))

    # cos d(theta) = -(x sin(psi - theta) + y sin(theta)) / sin(psi) for
    # theta = u * psi; critical points solve tan(theta) = (y - xz)/(x sin psi).
    theta_star = np.arctan2(y - x * z, x * np.sin(psi))

    def grid_min(rows, idx):
        # smallest distance from each row's g3 to its (rows, k) grid indices
        pts = _arc_grid_points(G1[rows, None, :], G2[rows, None, :], idx, steps)
        d = great_circle_distance_batch(np.broadcast_to(G3[rows, None, :], pts.shape), pts)
        return d.min(axis=1)

    last = float(steps - 1)
    best = grid_min(slice(None), np.tile([0.0, last], (G3.shape[0], 1)))
    # the neighbours of a shift are evaluated only on the rows where it lands
    # inside the arc; on uniform triples that is about half the rows, once
    for shift in (-np.pi, 0.0, np.pi):
        theta = theta_star + shift
        rows = np.flatnonzero((theta > 0.0) & (theta < psi))
        base = np.floor(theta[rows] / psi[rows] * last)
        idx = np.clip(base[:, None] + np.array([-1.0, 0.0, 1.0, 2.0]), 0.0, last)
        best[rows] = np.minimum(best[rows], grid_min(rows, idx))
    return best
