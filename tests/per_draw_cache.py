"""Reference AAB triangle caches and statistics: per draw and exhaustive.

The sampler and the statistics as first written: one cache row per draw, in
draw order, each looked up and evaluated on its own, repeats included;
degenerate draws redrawn with draw index ``s * r + slot`` in round r, at
most 8 rounds, then dropped.  The plain average and the reweighting rounds
run over those rows with unit weights and without a per-edge shift of the
exponent.  The library keeps one row per distinct (edge, common neighbour)
with a multiplicity; this copy is the oracle it is checked against.

``all_neighbor_cache`` holds every usable triangle of every edge once, the
population the sampler draws from, so its plain average is the exact
statistic that the sampled one estimates.
"""

from __future__ import annotations

import numpy as np

from aabscreen.aabstats import AABConfig, TripleCache
from aabscreen.graph import ViewGraph
from aabscreen.sphere import aab_inconsistency_batch, degenerate_base_mask
from aabscreen.streams import TAG_TRIPLES, bounded_index, edge_hash

MAX_RESAMPLE_ROUNDS = 8


def pick_neighbors(g: ViewGraph, seed: int, rows, draws) -> np.ndarray:
    """Common neighbour of edge ``rows`` chosen by draw index ``draws``."""
    indptr, indices, _, _ = g.common_neighbor_csr
    ends = g.edge_array[rows]
    h = edge_hash(seed, TAG_TRIPLES, ends[..., 0], ends[..., 1], draws)
    start = indptr[rows]
    return indices[start + bounded_index(h, indptr[rows + 1] - start)]


def degenerate(g: ViewGraph, rows_jk: np.ndarray, rows_ki: np.ndarray) -> np.ndarray:
    d = g.direction_array
    return degenerate_base_mask(d[rows_jk], d[rows_ki])


def build_cache(g: ViewGraph, cfg: AABConfig) -> TripleCache:
    """Every retained draw as its own row, multiplicity 1, in draw order."""
    indptr = g.common_neighbor_csr[0]
    supported = np.flatnonzero(np.diff(indptr))
    edge_rows = np.repeat(supported, cfg.s)
    neighbors = pick_neighbors(g, cfg.seed, supported[:, None], np.arange(cfg.s)).reshape(-1)
    i_arr = g.edge_array[edge_rows, 0]
    j_arr = g.edge_array[edge_rows, 1]
    rows_jk = g.edge_rows_of_pairs(j_arr, neighbors)
    rows_ki = g.edge_rows_of_pairs(neighbors, i_arr)

    bad = np.flatnonzero(degenerate(g, rows_jk, rows_ki))
    for rnd in range(1, MAX_RESAMPLE_ROUNDS + 1):
        if bad.size == 0:
            break
        k = pick_neighbors(g, cfg.seed, edge_rows[bad], cfg.s * rnd + bad % cfg.s)
        neighbors[bad] = k
        rows_jk[bad] = g.edge_rows_of_pairs(j_arr[bad], k)
        rows_ki[bad] = g.edge_rows_of_pairs(k, i_arr[bad])
        bad = bad[degenerate(g, rows_jk[bad], rows_ki[bad])]
    keep = np.ones(edge_rows.size, dtype=bool)
    keep[bad] = False
    return evaluated(g, keep, edge_rows, neighbors, rows_jk, rows_ki)


def all_neighbor_cache(g: ViewGraph) -> TripleCache:
    """Every triangle through every common neighbour, degenerate ones left
    out, in CSR order with multiplicity 1."""
    indptr, neighbors, _, _ = g.common_neighbor_csr
    edge_rows = np.repeat(np.arange(g.num_edges), np.diff(indptr))
    rows_jk = g.edge_rows_of_pairs(g.edge_array[edge_rows, 1], neighbors)
    rows_ki = g.edge_rows_of_pairs(neighbors, g.edge_array[edge_rows, 0])
    keep = ~degenerate(g, rows_jk, rows_ki)
    return evaluated(g, keep, edge_rows, neighbors, rows_jk, rows_ki)


def evaluated(g: ViewGraph, keep, edge_rows, neighbors, rows_jk, rows_ki) -> TripleCache:
    """Cache of the triangles selected by ``keep``, each with multiplicity 1."""
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
