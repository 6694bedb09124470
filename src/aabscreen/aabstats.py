"""Per-edge AAB statistics: the sampled triangle average and its
iteratively reweighted refinement.

For an edge {i, j} the naive statistic averages, over s common neighbors k
drawn with replacement, the AAB inconsistency of the edge direction against
the two directions closing the triangle (i, j, k).  The reweighted variant
keeps those sampled triangles and their cached inconsistencies, and for a
fixed number of rounds replaces the plain average with a weighted one, the
weight of triangle k decaying exponentially in the larger of the current
statistics of edges {k, i} and {j, k}.  The decay rate increases each round,
so triangles through currently-suspicious edges lose influence first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import ViewGraph, edge_tuples
from .sphere import aab_inconsistency_batch, degenerate_base_mask
from .streams import TAG_TRIPLES, bounded_index, edge_hash

__all__ = [
    "AABConfig",
    "TripleCache",
    "IRDiagnostics",
    "EdgeStatistics",
    "naive_aab",
    "ir_aab",
]

# Retries per degenerate sampled triangle before it is dropped from the mean.
_MAX_RESAMPLE_ROUNDS = 8

# Triangles per block of geometry: bounds the transient (rows, 3) arrays.
_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class AABConfig:
    """Sampling/iteration configuration shared by both statistics."""

    s: int = 50
    T: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")


@dataclass
class TripleCache:
    """Flat record of every retained sampled triangle.

    Arrays are parallel; ``edge_rows``/``rows_jk``/``rows_ki`` index the
    graph's canonical edge arrays.
    """

    edge_rows: np.ndarray
    neighbors: np.ndarray
    rows_jk: np.ndarray
    rows_ki: np.ndarray
    inconsistencies: np.ndarray


@dataclass
class IRDiagnostics:
    """Reweighting internals of one ir_aab run."""

    initial_max: float
    initial_min: float
    step: float
    taus: list[float] = field(default_factory=list)
    weight_sums: list[np.ndarray] | None = None


@dataclass
class EdgeStatistics:
    """Statistic values aligned with the rows of ``edge_array``.

    ``edge_array`` holds sorted, unique vertex pairs, the canonical edge
    order of a ``ViewGraph``.  ``value`` is NaN on unsupported edges, those
    without a single usable triangle.  ``per_iteration`` (reweighted
    statistic only) stacks the values after each round, row 0 being the
    plain average.  ``cache`` carries the sampled triangles and their
    inconsistencies so reweighting never re-evaluates geometry.
    """

    edge_array: np.ndarray
    value: np.ndarray
    per_iteration: np.ndarray | None = None
    cache: TripleCache | None = None
    diagnostics: IRDiagnostics | None = None

    # Tuple-keyed views, derived on access for callers that want them.

    @property
    def edges(self) -> list[tuple[int, int]]:
        return edge_tuples(self.edge_array)

    @property
    def values(self) -> dict[tuple[int, int], float]:
        """Supported edges and their values."""
        keep = ~np.isnan(self.value)
        return dict(zip(edge_tuples(self.edge_array[keep]), self.value[keep].tolist()))

    @property
    def unsupported(self) -> set[tuple[int, int]]:
        return set(edge_tuples(self.edge_array[np.isnan(self.value)]))


def _blocks(size: int):
    return (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, size, _BLOCK_ROWS))


def _pick_neighbors(g: ViewGraph, seed: int, rows, draws) -> np.ndarray:
    """Common neighbour of edge ``rows`` chosen by draw index ``draws``.

    Both broadcast; every draw is keyed by (seed, canonical edge, index).
    """
    indptr, indices = g.common_neighbor_csr
    ends = g.edge_array[rows]
    h = edge_hash(seed, TAG_TRIPLES, ends[..., 0], ends[..., 1], draws)
    start = indptr[rows]
    return indices[start + bounded_index(h, indptr[rows + 1] - start)]


def _degenerate(g: ViewGraph, rows_jk: np.ndarray, rows_ki: np.ndarray) -> np.ndarray:
    # the test depends on the squared dot product only, so orientation is moot
    d = g.direction_array
    out = np.empty(rows_jk.size, dtype=bool)
    for sl in _blocks(out.size):
        out[sl] = degenerate_base_mask(d[rows_jk[sl]], d[rows_ki[sl]])
    return out


def _build_cache(g: ViewGraph, cfg: AABConfig) -> TripleCache:
    """Sample triangles, redraw degenerate ones, evaluate inconsistencies.

    Sample ``slot`` of an edge uses draw index ``slot`` and, in redraw round
    r, draw index ``s * r + slot``.
    """
    indptr, _ = g.common_neighbor_csr
    supported = np.flatnonzero(np.diff(indptr))
    edge_rows = np.repeat(supported, cfg.s)
    neighbors = _pick_neighbors(g, cfg.seed, supported[:, None], np.arange(cfg.s)).reshape(-1)
    i_arr = g.edge_array[edge_rows, 0]
    j_arr = g.edge_array[edge_rows, 1]
    rows_jk = g.edge_rows_of_pairs(j_arr, neighbors)
    rows_ki = g.edge_rows_of_pairs(neighbors, i_arr)

    bad = np.flatnonzero(_degenerate(g, rows_jk, rows_ki))
    for rnd in range(1, _MAX_RESAMPLE_ROUNDS + 1):
        if bad.size == 0:
            break
        k = _pick_neighbors(g, cfg.seed, edge_rows[bad], cfg.s * rnd + bad % cfg.s)
        neighbors[bad] = k
        rows_jk[bad] = g.edge_rows_of_pairs(j_arr[bad], k)
        rows_ki[bad] = g.edge_rows_of_pairs(k, i_arr[bad])
        bad = bad[_degenerate(g, rows_jk[bad], rows_ki[bad])]
    if bad.size:
        keep = np.ones(edge_rows.size, dtype=bool)
        keep[bad] = False
        edge_rows, neighbors, rows_jk, rows_ki, i_arr, j_arr = (
            a[keep] for a in (edge_rows, neighbors, rows_jk, rows_ki, i_arr, j_arr)
        )

    inc = np.empty(edge_rows.size)
    d = g.direction_array
    for sl in _blocks(inc.size):
        k = neighbors[sl]
        inc[sl] = aab_inconsistency_batch(
            d[edge_rows[sl]],
            g.directions_of_rows(rows_jk[sl], j_arr[sl], k),
            g.directions_of_rows(rows_ki[sl], k, i_arr[sl]),
        )

    return TripleCache(
        edge_rows=edge_rows,
        neighbors=neighbors,
        rows_jk=rows_jk,
        rows_ki=rows_ki,
        inconsistencies=inc,
    )


def _segment_mean(cache: TripleCache, num_edges: int) -> np.ndarray:
    """Plain average per edge row; NaN on edges without common neighbours
    or whose every sample stayed degenerate."""
    counts = np.bincount(cache.edge_rows, minlength=num_edges)
    sums = np.bincount(cache.edge_rows, weights=cache.inconsistencies, minlength=num_edges)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def naive_aab(g: ViewGraph, cfg: AABConfig) -> EdgeStatistics:
    """Sampled triangle-average AAB statistic for every edge.

    Edges without common neighbors are flagged unsupported; sampled
    triangles with an (anti)parallel base pair are redrawn with fresh draw
    indices of the edge a bounded number of times, then dropped from the
    average.
    """
    cache = _build_cache(g, cfg)
    return EdgeStatistics(g.edge_array, _segment_mean(cache, g.num_edges), cache=cache)


def ir_aab(g: ViewGraph, cfg: AABConfig, keep_weight_sums: bool = False) -> EdgeStatistics:
    """Iteratively reweighted AAB statistic.

    Runs the naive stage once (same seed, same samples), then performs
    cfg.T synchronous reweighting rounds over the cached inconsistencies.
    Round t uses rate tau = pi / M_t where M_t descends linearly from the
    largest cached inconsistency toward the smallest.  Lookups of a
    neighboring edge's previous statistic fall back to the median supported
    statistic when that edge is unsupported.

    If every cached inconsistency is zero the naive (all-zero) statistic is
    returned unchanged, avoiding a division by zero in the rate.
    """
    cache = _build_cache(g, cfg)
    m_edges = g.num_edges
    vals = _segment_mean(cache, m_edges)
    if cache.inconsistencies.size == 0:
        return EdgeStatistics(g.edge_array, vals, per_iteration=vals[None], cache=cache)

    big = float(cache.inconsistencies.max())
    small = float(cache.inconsistencies.min())
    if big == 0.0:
        diag = IRDiagnostics(initial_max=0.0, initial_min=0.0, step=0.0)
        return EdgeStatistics(
            g.edge_array, vals, per_iteration=vals[None], cache=cache, diagnostics=diag
        )

    step = (big - small) / cfg.T
    diag = IRDiagnostics(
        initial_max=big,
        initial_min=small,
        step=step,
        weight_sums=[] if keep_weight_sums else None,
    )

    supported_mask = ~np.isnan(vals)
    per_iter = np.empty((cfg.T + 1, m_edges))
    per_iter[0] = vals

    current = big
    for t in range(1, cfg.T + 1):
        tau = np.pi / current
        diag.taus.append(float(tau))
        current -= step

        lookup = vals.copy()
        if not supported_mask.all():
            lookup[~supported_mask] = np.median(vals[supported_mask])
        worst = np.maximum(lookup[cache.rows_ki], lookup[cache.rows_jk])
        w = np.exp(-tau * worst)
        sums = np.bincount(cache.edge_rows, weights=w, minlength=m_edges)
        wn = w / sums[cache.edge_rows]
        if keep_weight_sums:
            diag.weight_sums.append(np.bincount(cache.edge_rows, weights=wn, minlength=m_edges))
        new_vals = np.bincount(
            cache.edge_rows, weights=wn * cache.inconsistencies, minlength=m_edges
        )
        vals = np.where(supported_mask, new_vals, np.nan)
        per_iter[t] = vals

    return EdgeStatistics(
        g.edge_array, vals, per_iteration=per_iter, cache=cache, diagnostics=diag
    )
