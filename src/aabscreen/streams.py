"""Deterministic derived random streams.

Every randomized operation in the package draws from a user seed plus a
structural key: a purpose tag and, for per-edge draws, the canonical edge.
Draws therefore do not depend on iteration order or thread scheduling, and
identical seeds give identical results.

Whole-instance draws (locations, the edge set, Monte Carlo samples) come
from PCG64 generators made by ``derive_rng``.  Per-edge draws (triangle
picks, UC corruption) are counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): ``edge_hash`` is a stateless uint64
hash of (seed, tag, min, max, draw index) built from the SplitMix64
finalizer, so every edge's draws are computed in one array pass and still
depend only on the seed, the edge and the draw index.
"""

from __future__ import annotations

import operator

import numpy as np

_SEED_MASK = (1 << 64) - 1

# Purpose tags keeping the derived streams of different draws disjoint.
TAG_LOCATIONS = 1
TAG_EDGE_PRESENCE = 2
TAG_CORRUPTION = 3
TAG_TRIPLES = 4
TAG_MONTE_CARLO = 5

# SplitMix64 increment and finalizer multipliers (Steele, Lea and Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def require_integers(**values) -> None:
    """Raise ``ValueError`` naming the first of the keyword ``values`` that
    is not an integer (numpy integers are), e.g. s = 2.5."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator keyed by ``(seed, *key)``.

    The seed is reduced to its unsigned 64-bit value; key parts must be
    non-negative integers.
    """
    entropy = (int(seed) & _SEED_MASK, *(int(k) for k in key))
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def edge_rng(seed: int, tag: int, i: int, j: int) -> np.random.Generator:
    """PCG64 stream keyed by the canonical (min, max) vertex pair."""
    a, b = (i, j) if i < j else (j, i)
    return derive_rng(seed, tag, a, b)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def edge_hash(seed: int, tag: int, i, j, draw) -> np.ndarray:
    """uint64 draws keyed by (seed, tag, min(i, j), max(i, j), draw).

    ``i``, ``j`` and ``draw`` are non-negative integer arrays that broadcast
    together; the result has their broadcast shape.  Each key part is folded
    in as h <- mix((h ^ part) + gamma), the seed first, so the per-edge
    prefix is hashed at the shape of ``i`` and ``j`` and only the last step
    at the full shape.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    draw = np.asarray(draw, dtype=np.int64)
    shape = np.broadcast_shapes(i.shape, j.shape, draw.shape)
    # kept at least 1-d: numpy scalar arithmetic warns on the intended wrap
    h = np.full(1, int(seed) & _SEED_MASK, dtype=np.uint64)
    for part in (np.int64(tag), np.minimum(i, j), np.maximum(i, j), draw):
        h = _mix((h ^ np.asarray(part).astype(np.uint64)) + _GAMMA)
    return h.reshape(shape)


def bounded_index(h: np.ndarray, count) -> np.ndarray:
    """Map uint64 draws to integers in [0, count) as ((h >> 32) * count) >> 32.

    ``count`` must lie in [1, 2**32]; the product then fits in 64 bits and
    the result is always below ``count``.
    """
    count = np.asarray(count).astype(np.uint64)
    return (((h >> 32) * count) >> 32).astype(np.int64)


def unit_interval(h: np.ndarray) -> np.ndarray:
    """Map uint64 draws to floats in [0, 1) from their top 53 bits."""
    return (h >> 11).astype(np.float64) * (1.0 / (1 << 53))
