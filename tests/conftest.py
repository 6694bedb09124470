"""Shared helpers: small exact instances and an oracle-based quadrature."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aabscreen.aabstats import EdgeStatistics
from aabscreen.evaluation import EdgeLabels
from aabscreen.graph import ViewGraph
from aabscreen.sphere import aab_oracle_batch, great_circle_distance_batch


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_units(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def complete_graph_from_locations(t: np.ndarray) -> ViewGraph:
    """Exact directions of every pair, pointing from j toward i for i < j."""
    n = t.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = t[i] - t[j]
            edges.append((i, j, d / np.linalg.norm(d)))
    return ViewGraph(n, edges)


def edge_array_of(edges) -> np.ndarray:
    """Sorted (m, 2) array of the given vertex pairs."""
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def stats_of(values, unsupported=()) -> EdgeStatistics:
    """Statistics from a map of supported values and a set of unsupported edges."""
    table = {**dict(values), **{e: math.nan for e in unsupported}}
    return EdgeStatistics(
        edge_array=edge_array_of(table),
        value=np.array([table[e] for e in sorted(table)], dtype=np.float64),
    )


def labels_of(corrupted) -> EdgeLabels:
    """Labels from a map of edge to corruption flag."""
    flags = np.array([corrupted[e] for e in sorted(corrupted)], dtype=bool)
    return EdgeLabels(
        edge_array=edge_array_of(corrupted),
        angle=np.where(flags, 1.0, 0.0),
        corrupted=flags,
    )


def uniform_base_mean(
    x: float, n_theta: int = 200, n_phi: int = 400, nearer_endpoint: bool = False
) -> float:
    """Quadrature of the mean that ``verify.mc_estimate_f`` estimates.

    Averages the distance from the probe (cos x, sin x, 0) to the arc from
    (1, 0, 0) to -v over v uniform on S2, by the midpoint rule on an
    ``n_theta`` x ``n_phi`` grid of v = (cos t, sin t cos f, sin t sin f)
    weighted by sin t.  The polar axis runs through the fixed base vector, so
    no midpoint lands on a degenerate base.  The distance comes from the
    arc-scan oracle with 10^6 steps, never from the closed form, so the result
    is an independent reference.  With ``nearer_endpoint`` it is the distance
    to the nearer arc endpoint instead, whose exact mean is (x + sin x) / 2.
    """
    t = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
    f = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    tt, ff = np.meshgrid(t, f, indexing="ij")
    v = np.stack(
        [np.cos(tt), np.sin(tt) * np.cos(ff), np.sin(tt) * np.sin(ff)], axis=-1
    ).reshape(-1, 3)
    probe = np.broadcast_to(np.array([math.cos(x), math.sin(x), 0.0]), v.shape)
    if nearer_endpoint:
        d = np.minimum(x, great_circle_distance_batch(probe, -v))
    else:
        fixed = np.broadcast_to(np.array([-1.0, 0.0, 0.0]), v.shape)
        d = aab_oracle_batch(probe, fixed, v, 1_000_000)
    w = np.sin(tt).reshape(-1)
    return float((d * w).sum() / w.sum())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240601)
