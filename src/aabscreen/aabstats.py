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

Draws often repeat a triangle on sparse graphs, so the cache holds each
distinct sampled triangle once with the number of draws that picked it, and
both statistics weight it by that multiplicity.
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

# Draws per block of sampling and geometry (at least one edge's s draws):
# bounds the transient per-draw and per-triangle arrays.
_BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class AABConfig:
    """Sampling/iteration configuration shared by both statistics."""

    s: int = 50
    T: int = 10
    seed: int = 0

    def __post_init__(self):
        # the cache's int32 multiplicities count up to s draws
        if not 1 <= self.s <= 2**31 - 1:
            raise ValueError("s must be in [1, 2**31 - 1]")
        if self.T < 1:
            raise ValueError("T must be >= 1")


@dataclass
class TripleCache:
    """Flat record of the distinct retained sampled triangles.

    One row per distinct (edge, common neighbour k) that a retained draw
    picked; ``multiplicity`` counts those draws, so an edge's
    multiplicities sum to s less its dropped draws.  Arrays are parallel;
    ``edge_rows``/``rows_jk``/``rows_ki`` index the graph's canonical edge
    arrays.  Rows are ordered by edge row, then by k.

    ``inconsistencies`` is float64 and the five integer fields are int32,
    as the graph's row map is (s is at most 2**31 - 1), so a row takes 28
    bytes.
    """

    edge_rows: np.ndarray
    neighbors: np.ndarray
    rows_jk: np.ndarray
    rows_ki: np.ndarray
    inconsistencies: np.ndarray
    multiplicity: np.ndarray


@dataclass
class IRDiagnostics:
    """Reweighting internals of one ir_aab run: the rate of each round."""

    taus: list[float] = field(default_factory=list)


@dataclass
class EdgeStatistics:
    """Statistic values aligned with the rows of ``edge_array``.

    ``edge_array`` holds sorted, unique vertex pairs, the canonical edge
    order of a ``ViewGraph``.  ``value`` is NaN on unsupported edges, those
    without a single usable triangle.  ``per_iteration`` (reweighted
    statistic only) stacks the values after each round, row 0 being the
    plain average.  ``cache`` carries the distinct sampled triangles, their
    multiplicities and inconsistencies, so reweighting never re-evaluates
    geometry.
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


def _draw_positions(g: ViewGraph, seed: int, rows, draws) -> np.ndarray:
    """Position in ``g.common_neighbor_csr`` of the common neighbour of edge
    ``rows`` chosen by draw index ``draws``.

    Both broadcast; every draw is keyed by (seed, canonical edge, index).
    A position names one (edge, common neighbour) pair.
    """
    indptr, _ = g.common_neighbor_csr
    ends = g.edge_array[rows]
    h = edge_hash(seed, TAG_TRIPLES, ends[..., 0], ends[..., 1], draws)
    start = indptr[rows]
    return start + bounded_index(h, indptr[rows + 1] - start)


def _triangles(g: ViewGraph, pos: np.ndarray):
    """Edge row, neighbour k, row of {j, k} and row of {k, i} of the
    triangles at CSR positions ``pos``."""
    indptr, indices = g.common_neighbor_csr
    edge_rows = np.searchsorted(indptr, pos, side="right") - 1
    k = indices[pos]
    rows_jk = g.edge_rows_of_pairs(g.edge_array[edge_rows, 1], k)
    rows_ki = g.edge_rows_of_pairs(k, g.edge_array[edge_rows, 0])
    return edge_rows, k, rows_jk, rows_ki


def _degenerate(g: ViewGraph, tri) -> np.ndarray:
    # the test depends on the squared dot product only, so orientation is moot
    _, _, rows_jk, rows_ki = tri
    d = g.direction_array
    return degenerate_base_mask(d[rows_jk], d[rows_ki])


def _sample_block(g: ViewGraph, cfg: AABConfig, rows: np.ndarray):
    """Distinct retained triangles of the supported edge ``rows`` and the
    number of retained draws of each.

    Sample ``slot`` of an edge uses draw index ``slot`` and, in redraw round
    r, draw index ``s * r + slot``.  Whether a triangle is degenerate
    depends on (edge, k) alone, so the first draws are tested once per
    distinct position, and only redrawn draws again.  ``rows`` are
    increasing and consecutive among the supported edges, so their common
    neighbours fill one CSR slice; counts and marks span that slice only.
    """
    indptr, _ = g.common_neighbor_csr
    lo = indptr[rows[0]]
    size = indptr[rows[-1] + 1] - lo
    pos = (_draw_positions(g, cfg.seed, rows[:, None], np.arange(cfg.s)) - lo).reshape(-1)
    counts = np.bincount(pos, minlength=size)
    seen = np.flatnonzero(counts)
    tri = _triangles(g, seen + lo)
    degenerate = _degenerate(g, tri)
    if not degenerate.any():
        return tri, counts[seen]

    bad_at = np.zeros(size, dtype=bool)
    bad_at[seen] = degenerate
    bad = np.flatnonzero(bad_at[pos])
    for rnd in range(1, _MAX_RESAMPLE_ROUNDS + 1):
        if bad.size == 0:
            break
        draws = cfg.s * rnd + bad % cfg.s
        pos[bad] = _draw_positions(g, cfg.seed, rows[bad // cfg.s], draws) - lo
        bad_at[pos[bad]] = _degenerate(g, _triangles(g, pos[bad] + lo))
        bad = bad[bad_at[pos[bad]]]
    # every draw still on a degenerate triangle is dropped
    counts = np.bincount(pos, minlength=size)
    counts[bad_at] = 0
    seen = np.flatnonzero(counts)
    return _triangles(g, seen + lo), counts[seen]


def _build_cache(g: ViewGraph, cfg: AABConfig) -> TripleCache:
    """Sample triangles, redraw degenerate ones, evaluate each distinct
    retained triangle once.

    Each field is concatenated from its per-block parts on its own, and
    those parts are released before the next field is, so the parts and
    the finished cache overlap by one field only.
    """
    indptr, _ = g.common_neighbor_csr
    supported = np.flatnonzero(np.diff(indptr))
    per_block = max(1, _BLOCK_ROWS // cfg.s)
    d = g.direction_array
    # edge_rows, neighbors, rows_jk, rows_ki, inconsistencies, multiplicity
    dtypes = (np.int32,) * 4 + (np.float64, np.int32)
    parts = tuple([] for _ in dtypes)
    for b in range(0, supported.size, per_block):
        tri, mult = _sample_block(g, cfg, supported[b : b + per_block])
        edge_rows, k, rows_jk, rows_ki = tri
        i_arr, j_arr = g.edge_array[edge_rows].T
        inc = aab_inconsistency_batch(
            d[edge_rows],
            g.directions_of_rows(rows_jk, j_arr, k),
            g.directions_of_rows(rows_ki, k, i_arr),
        )
        for field_parts, a, dtype in zip(parts, (*tri, inc, mult), dtypes):
            field_parts.append(a.astype(dtype, copy=False))

    def joined(field_parts, dtype):
        # the empty array fixes the dtype when no edge is supported
        whole = np.concatenate([np.zeros(0, dtype), *field_parts])
        field_parts.clear()
        return whole

    return TripleCache(*(joined(p, dtype) for p, dtype in zip(parts, dtypes)))


def _segment_mean(cache: TripleCache, num_edges: int) -> np.ndarray:
    """Average per edge row over the retained draws; NaN on edges without
    common neighbours or whose every sample stayed degenerate."""
    counts = np.bincount(cache.edge_rows, weights=cache.multiplicity, minlength=num_edges)
    sums = np.bincount(
        cache.edge_rows, weights=cache.multiplicity * cache.inconsistencies, minlength=num_edges
    )
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


def ir_aab(g: ViewGraph, cfg: AABConfig) -> EdgeStatistics:
    """Iteratively reweighted AAB statistic.

    Runs the naive stage once (same seed, same samples), then performs
    cfg.T synchronous reweighting rounds over the cached inconsistencies.
    Round t uses rate tau = pi / M_t where M_t descends linearly from the
    largest cached inconsistency toward the smallest.  A triangle's weight
    is its multiplicity times exp(-tau * worst), worst being the larger
    previous statistic of its two other edges; each edge's weights are
    normalized to sum to one.  Lookups of a neighboring edge's previous
    statistic fall back to the median supported statistic when that edge
    is unsupported.

    If no cached inconsistency is positive (none cached, or all zero), the
    naive statistic is returned as the only round, avoiding a division by
    zero in the rate.
    """
    cache = _build_cache(g, cfg)
    m_edges = g.num_edges
    vals = _segment_mean(cache, m_edges)
    diag = IRDiagnostics()
    big = float(cache.inconsistencies.max(initial=0.0))
    if big == 0.0:
        return EdgeStatistics(
            g.edge_array, vals, per_iteration=vals[None], cache=cache, diagnostics=diag
        )

    step = (big - float(cache.inconsistencies.min())) / cfg.T

    supported_mask = ~np.isnan(vals)
    per_iter = np.empty((cfg.T + 1, m_edges))
    per_iter[0] = vals
    rows = cache.edge_rows
    # cache rows come grouped by edge: group starts and their edges, for
    # the per-edge minimum
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    supported_rows = rows[starts]
    # each round runs in two row buffers and one edge buffer; the gathers
    # use mode="clip" (every index is in range) so that they write to
    # ``out`` directly instead of through a temporary, and the integer
    # multiplicities are cast in the ufunc's chunks, not copied whole
    w = np.empty(rows.size)
    per_row = np.empty(rows.size)
    edge_min = np.empty(m_edges)

    current = big
    for t in range(1, cfg.T + 1):
        tau = np.pi / current
        diag.taus.append(float(tau))
        current -= step

        lookup = vals.copy()
        if not supported_mask.all():
            lookup[~supported_mask] = np.median(vals[supported_mask])
        # z = tau * max(previous of {k, i}, previous of {j, k}), shifted by
        # the edge's smallest z: that row keeps weight mult >= 1, so an
        # edge's weights never all underflow
        np.take(lookup, cache.rows_ki, out=w, mode="clip")
        np.take(lookup, cache.rows_jk, out=per_row, mode="clip")
        np.maximum(w, per_row, out=w)
        w *= tau
        edge_min[supported_rows] = np.minimum.reduceat(w, starts)
        w -= np.take(edge_min, rows, out=per_row, mode="clip")
        # w = mult * exp(-z), then normalized per edge
        np.negative(w, out=w)
        np.exp(w, out=w)
        w *= cache.multiplicity
        sums = np.bincount(rows, weights=w, minlength=m_edges)
        w /= np.take(sums, rows, out=per_row, mode="clip")
        w *= cache.inconsistencies
        new_vals = np.bincount(rows, weights=w, minlength=m_edges)
        vals = np.where(supported_mask, new_vals, np.nan)
        per_iter[t] = vals

    return EdgeStatistics(
        g.edge_array, vals, per_iteration=per_iter, cache=cache, diagnostics=diag
    )
