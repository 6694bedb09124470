"""Synthetic view graphs under the uniform corruption model UC(n, p, q, sigma).

Ground-truth locations are i.i.d. standard 3D Gaussians, the measurement
graph is Erdos-Renyi G(n, p), and each edge direction is independently
replaced by a uniform sphere vector with probability q, otherwise perturbed
by sigma-scaled uniform noise and renormalized.

Draw order is fixed: locations first, then one inclusion draw per vertex
pair in lexicographic order, then per-edge corruption draws from
counter-based streams keyed by the edge itself.  Changing p therefore never
reshuffles the corruption outcome of an edge present under both values of
p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Locations, ViewGraph
from .streams import (
    TAG_CORRUPTION,
    TAG_EDGE_PRESENCE,
    TAG_LOCATIONS,
    derive_rng,
    edge_hash,
    unit_interval,
)

__all__ = ["UCParams", "GroundTruth", "generate_uc"]

_COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class UCParams:
    """Parameters of the uniform corruption model."""

    n: int
    p: float
    q: float
    sigma: float
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")


@dataclass
class GroundTruth:
    """True locations, clean directions, and corruption provenance.

    ``clean_directions`` (m, 3) and ``corrupted_flags`` (m,) are aligned with
    the rows of ``edge_array``, the generated graph's canonical edges.
    ``corrupted_flags`` records which generator branch produced each
    measurement (exact, independent of any angle-based labeling rule applied
    at evaluation time).
    """

    locations: Locations
    edge_array: np.ndarray
    clean_directions: np.ndarray
    corrupted_flags: np.ndarray


def _draw_locations(params: UCParams) -> np.ndarray:
    rng = derive_rng(params.seed, TAG_LOCATIONS)
    while True:
        t = rng.normal(size=(params.n, 3))
        if not _has_coincident_rows(t):
            return t


def _has_coincident_rows(t: np.ndarray) -> bool:
    """Whether two rows of ``t`` lie closer than ``_COINCIDENT_TOL``.  Such
    a pair is as close in x, so in x order every gap between the rows it
    spans is below the tolerance; only pairs so joined are measured."""
    s = t[np.argsort(t[:, 0])]
    joined = np.diff(s[:, 0]) < _COINCIDENT_TOL
    # pairs[k]: rows k and k + w lie in one run, for w = 1, 2, ...
    pairs, w = joined, 1
    while pairs.any():
        if (np.linalg.norm(s[:-w][pairs] - s[w:][pairs], axis=1) < _COINCIDENT_TOL).any():
            return True
        pairs, w = pairs[:-1] & joined[w:], w + 1
    return False


def _draw_edge_set(params: UCParams) -> np.ndarray:
    rng = derive_rng(params.seed, TAG_EDGE_PRESENCE)
    iu, ju = np.triu_indices(params.n, k=1)
    u = rng.random(iu.size)
    keep = u < params.p
    return np.stack([iu[keep], ju[keep]], axis=1)


def generate_uc(params: UCParams) -> tuple[ViewGraph, GroundTruth]:
    """Generate one UC(n, p, q, sigma) instance, deterministic in the seed.

    Edge {i, j} uses draw indices 0..2 of its counter-based stream: u0 < q
    marks it corrupted, and (u1, u2) give the sphere point
    (sqrt(1 - z^2) cos phi, sqrt(1 - z^2) sin phi, z) with z = 1 - 2 u1 and
    phi = 2 pi u2, uniform on S2.  That point is the corrupted direction, or
    else the noise direction added at scale sigma.
    """
    t = _draw_locations(params)
    pairs = _draw_edge_set(params)
    i, j = pairs[:, 0], pairs[:, 1]
    clean = t[i] - t[j]
    clean /= np.linalg.norm(clean, axis=1)[:, None]

    u = unit_interval(edge_hash(params.seed, TAG_CORRUPTION, i[:, None], j[:, None], np.arange(3)))
    corrupted = u[:, 0] < params.q
    z = 1.0 - 2.0 * u[:, 1]
    phi = 2.0 * np.pi * u[:, 2]
    r = np.sqrt(1.0 - z * z)
    sphere = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    noisy = clean
    if params.sigma > 0.0:
        noisy = clean + params.sigma * sphere
        noisy /= np.linalg.norm(noisy, axis=1)[:, None]
    gamma = np.where(corrupted[:, None], sphere, noisy)

    # the pairs are in canonical order already, so the graph keeps their rows
    g = ViewGraph.from_arrays(params.n, i, j, gamma)
    gt = GroundTruth(
        locations=Locations(np.arange(params.n), t),
        edge_array=g.edge_array,
        clean_directions=clean,
        corrupted_flags=corrupted,
    )
    return g, gt
