"""Reference AAB triangle caches and statistics: per draw and exhaustive.

``all_neighbor_cache`` holds every usable triangle of every edge once, the
population the sampler draws from, so its plain average is the exact
statistic that the sampled one estimates.

``build_cache`` and the statistics here are the library's written out per
draw: s draws per edge over that population, one cache row per draw, in
draw order, repeats included.  The plain average and the reweighting
rounds run over those rows with unit weights and without a per-edge shift
of the exponent.  The library keeps one row per distinct (edge, common
neighbour) with a multiplicity; this copy is the oracle it is checked
against.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from aabscreen.aabstats import AABConfig, TripleCache
from aabscreen.graph import ViewGraph
from aabscreen.sphere import aab_inconsistency_batch, degenerate_base_mask
from aabscreen.streams import TAG_TRIPLES, bounded_index, edge_hash


def build_cache(g: ViewGraph, cfg: AABConfig) -> TripleCache:
    """Every draw as its own row, multiplicity 1, in draw order: draw
    ``slot`` of an edge with u usable triangles takes the
    ``bounded_index(h, u)``-th of its rows of ``all_neighbor_cache``, h
    keyed by (seed, edge, slot)."""
    pool = all_neighbor_cache(g)
    rows, first, usable = np.unique(pool.edge_rows, return_index=True, return_counts=True)
    ends = g.edge_array[rows]
    h = edge_hash(cfg.seed, TAG_TRIPLES, ends[:, :1], ends[:, 1:], np.arange(cfg.s))
    picks = (first[:, None] + bounded_index(h, usable[:, None])).reshape(-1)
    return TripleCache(*(getattr(pool, f.name)[picks] for f in fields(TripleCache)))


def all_neighbor_cache(g: ViewGraph) -> TripleCache:
    """Every triangle through every common neighbour, degenerate ones left
    out, in CSR order with multiplicity 1."""
    indptr, neighbors, _, _ = g.common_neighbor_csr
    edge_rows = np.repeat(np.arange(g.num_edges), np.diff(indptr))
    rows_jk = g.edge_rows_of_pairs(g.edge_array[edge_rows, 1], neighbors)
    rows_ki = g.edge_rows_of_pairs(neighbors, g.edge_array[edge_rows, 0])
    d = g.direction_array
    keep = ~degenerate_base_mask(d[rows_jk], d[rows_ki])
    edge_rows, neighbors, rows_jk, rows_ki = (
        a[keep] for a in (edge_rows, neighbors, rows_jk, rows_ki)
    )
    i_arr, j_arr = g.edge_array[edge_rows].T
    inc = aab_inconsistency_batch(
        g.direction_array[edge_rows],
        g.directions_of_rows(rows_jk, j_arr, neighbors),
        g.directions_of_rows(rows_ki, neighbors, i_arr),
    )
    return TripleCache(
        edge_rows=edge_rows,
        neighbors=neighbors,
        rows_jk=rows_jk,
        rows_ki=rows_ki,
        inconsistencies=inc,
        multiplicity=np.ones(edge_rows.size, dtype=np.int64),
    )


def segment_mean(cache: TripleCache, num_edges: int) -> np.ndarray:
    """Plain average of the rows of each edge; NaN on edges without rows."""
    counts = np.bincount(cache.edge_rows, minlength=num_edges)
    sums = np.bincount(cache.edge_rows, weights=cache.inconsistencies, minlength=num_edges)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def ir_per_iteration(cache: TripleCache, num_edges: int, T: int) -> np.ndarray:
    """(T + 1, num_edges) statistic after each reweighting round, row 0 the
    plain average; the single row of the plain average when every cached
    inconsistency is zero or there is none."""
    vals = segment_mean(cache, num_edges)
    if cache.inconsistencies.size == 0 or cache.inconsistencies.max() == 0.0:
        return vals[None]
    big = float(cache.inconsistencies.max())
    step = (big - float(cache.inconsistencies.min())) / T
    supported = ~np.isnan(vals)
    out = [vals]
    current = big
    for _ in range(T):
        tau = np.pi / current
        current -= step
        lookup = vals.copy()
        if not supported.all():
            lookup[~supported] = np.median(vals[supported])
        w = np.exp(-tau * np.maximum(lookup[cache.rows_ki], lookup[cache.rows_jk]))
        sums = np.bincount(cache.edge_rows, weights=w, minlength=num_edges)
        wn = w / sums[cache.edge_rows]
        new_vals = np.bincount(
            cache.edge_rows, weights=wn * cache.inconsistencies, minlength=num_edges
        )
        vals = np.where(supported, new_vals, np.nan)
        out.append(vals)
    return np.stack(out)
