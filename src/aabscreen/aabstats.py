"""Per-edge AAB statistics: the sampled triangle average and its
iteratively reweighted refinement.

For an edge {i, j} the naive statistic averages, over s common neighbors k
drawn with replacement, the AAB inconsistency of the edge direction against
the two directions closing the triangle (i, j, k).  The reweighted variant
keeps those sampled triangles and their cached inconsistencies, and for a
fixed number of rounds replaces the plain average with a weighted one, the
weight of triangle k decaying exponentially in the larger of the current
statistics of edges {k, i} and {j, k}: the minimum of those two edges'
exponentials, under one shift per round, so a round takes one exponential
per edge, not per triangle.  The decay rate increases each round, so
triangles through currently-suspicious edges lose influence first.

A triangle whose base pair is (anti)parallel has no consistency arc, so
each draw picks uniformly among the edge's usable triangles, the others
left out; an edge without one is unsupported and gets no draws.  Draws
often repeat a triangle on sparse graphs, so the cache holds each distinct
sampled triangle once with the number of draws that picked it, and both
statistics weight it by that multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import ViewGraph, block_bounds, concat_parts, edge_tuples
from .sphere import aab_inconsistency_batch, degenerate_base_mask
from .streams import TAG_TRIPLES, bounded_index, edge_hash, require_integers

__all__ = [
    "AABConfig",
    "TripleCache",
    "IRDiagnostics",
    "EdgeStatistics",
    "naive_aab",
    "ir_aab",
]

# Most draws, and most common neighbours tested for degeneracy, in a block
# of sampling and geometry, beyond those of its first edge: bounds the
# transient arrays.
_BLOCK_ROWS = 1 << 16

# Largest tau * (max - min) of a round's lookup whose per-edge weights,
# shifted by the smallest lookup, all stay normal floats (e^-600 is about
# 3e-261); a round past it takes the per-row shifted form.
_MAX_EXPONENT_SPREAD = 600.0


@dataclass(frozen=True)
class AABConfig:
    """Sampling/iteration configuration shared by both statistics."""

    s: int = 50
    T: int = 10
    seed: int = 0

    def __post_init__(self):
        require_integers(s=self.s, T=self.T, seed=self.seed)
        # the cache's int32 multiplicities count up to s draws
        if not 1 <= self.s <= 2**31 - 1:
            raise ValueError("s must be in [1, 2**31 - 1]")
        if self.T < 1:
            raise ValueError("T must be >= 1")


@dataclass
class TripleCache:
    """Flat record of the distinct sampled triangles.

    One row per distinct (edge, common neighbour k) that a draw picked;
    ``multiplicity`` counts those draws, so the multiplicities of every
    supported edge sum to s.  Arrays are parallel;
    ``edge_rows``/``rows_jk``/``rows_ki`` index the graph's canonical edge
    arrays.  Rows are ordered by edge row, then by k.

    ``inconsistencies`` is float64 and the five integer fields are int32,
    as the side-edge rows of ``ViewGraph.common_neighbor_csr`` are (s is at
    most 2**31 - 1), so a row takes 28 bytes.
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


def _sample_block(g: ViewGraph, cfg: AABConfig, rows: np.ndarray):
    """Edge row, neighbour k, row of {j, k} and row of {k, i} of the
    distinct sampled triangles of the edges ``rows``, and the number of
    draws of each.

    Draw ``slot`` of an edge with u usable triangles takes the
    ``bounded_index(h, u)``-th of them in CSR order, h keyed by (seed,
    canonical edge, slot).  ``rows`` are increasing and consecutive among
    the edges with common neighbours, so these fill one CSR slice; whether
    a triangle is degenerate depends on its position alone, so it is
    tested once over that slice.
    """
    indptr, indices, rows_jk, rows_ki = g.common_neighbor_csr
    lo, hi = indptr[rows[0]], indptr[rows[-1] + 1]
    d = g.direction_array
    # the test depends on the squared dot product only, so orientation is
    # moot; np.take gathers whole rows about twice as fast as indexing does
    usable = np.flatnonzero(
        ~degenerate_base_mask(
            np.take(d, rows_jk[lo:hi], axis=0), np.take(d, rows_ki[lo:hi], axis=0)
        )
    )
    # each edge's usable triangles are usable[start:start + count], as
    # offsets into the slice
    start = np.searchsorted(usable, indptr[rows] - lo)
    count = np.searchsorted(usable, indptr[rows + 1] - lo) - start
    drawn = count > 0
    rows, start, count = rows[drawn], start[drawn], count[drawn]
    ends = g.edge_array[rows]
    h = edge_hash(cfg.seed, TAG_TRIPLES, ends[:, :1], ends[:, 1:], np.arange(cfg.s))
    pos = np.take(usable, start[:, None] + bounded_index(h, count[:, None]))
    counts = np.bincount(pos.reshape(-1), minlength=hi - lo)
    seen = np.flatnonzero(counts)
    at = seen + lo
    edge_rows = np.searchsorted(indptr, at, side="right") - 1
    return (edge_rows, indices[at], rows_jk[at], rows_ki[at]), counts[seen]


def _build_cache(g: ViewGraph, cfg: AABConfig) -> TripleCache:
    """Sample s usable triangles per edge, evaluate each distinct one once."""
    neighbors = np.diff(g.common_neighbor_csr[0])
    supported = np.flatnonzero(neighbors)
    d = g.direction_array
    # edge_rows, neighbors, rows_jk, rows_ki, inconsistencies, multiplicity
    dtypes = (np.int32,) * 4 + (np.float64, np.int32)
    parts = tuple([] for _ in dtypes)
    for b0, b1 in block_bounds(np.maximum(neighbors[supported], cfg.s), _BLOCK_ROWS):
        tri, mult = _sample_block(g, cfg, supported[b0:b1])
        edge_rows, k, rows_jk, rows_ki = tri
        i_arr, j_arr = g.edge_array[edge_rows].T
        inc = aab_inconsistency_batch(
            np.take(d, edge_rows, axis=0),
            g.directions_of_rows(rows_jk, j_arr, k),
            g.directions_of_rows(rows_ki, k, i_arr),
        )
        for field_parts, a, dtype in zip(parts, (*tri, inc, mult), dtypes):
            field_parts.append(a.astype(dtype, copy=False))
    return TripleCache(*(concat_parts(p, dtype) for p, dtype in zip(parts, dtypes)))


def _segment_mean(cache: TripleCache, num_edges: int, s: int) -> np.ndarray:
    """Average per edge row over its s draws; NaN on edges without a
    usable triangle."""
    sums = np.bincount(
        cache.edge_rows, weights=cache.multiplicity * cache.inconsistencies, minlength=num_edges
    )
    vals = np.full(num_edges, np.nan)
    vals[cache.edge_rows] = sums[cache.edge_rows] / s
    return vals


def naive_aab(g: ViewGraph, cfg: AABConfig) -> EdgeStatistics:
    """Sampled triangle-average AAB statistic for every edge.

    Each edge averages its s draws, taken uniformly with replacement from
    its triangles whose base pair is not (anti)parallel; edges without such
    a triangle are flagged unsupported.
    """
    cache = _build_cache(g, cfg)
    return EdgeStatistics(g.edge_array, _segment_mean(cache, g.num_edges, cfg.s), cache=cache)


def _shifted_row_weights(cache: TripleCache, lookup, tau: float, w, buf) -> None:
    """Write exp(-(z - z_min)) into the row buffer ``w``, with z = tau *
    max(lookup of {k, i}, lookup of {j, k}) and z_min the smallest z of the
    row's edge: that row keeps weight 1, so an edge's weights never all
    underflow, however large tau grows."""
    rows = cache.edge_rows
    # cache rows come grouped by edge: group starts and sizes, so a
    # per-edge value reaches its rows by np.repeat, not a gather
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    counts = np.diff(starts, append=rows.size)
    np.take(lookup, cache.rows_ki, out=w, mode="clip")
    np.take(lookup, cache.rows_jk, out=buf, mode="clip")
    np.maximum(w, buf, out=w)
    w *= tau
    w -= np.repeat(np.minimum.reduceat(w, starts), counts)
    np.negative(w, out=w)
    np.exp(w, out=w)


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

    As exp is decreasing, exp(-tau * worst) is the smaller of the two
    edges' exponentials, so a round computes one exponential per edge,
    shifted by the round's smallest lookup, and gathers them.  Once tau
    times the spread of the lookups exceeds ``_MAX_EXPONENT_SPREAD`` (600;
    only schedules far longer than T = 10 get there) those could underflow,
    and the round instead shifts each row's exponent by its edge's
    smallest, one exponential per cached triangle.

    If no cached inconsistency is positive (none cached, or all zero), the
    naive statistic is returned as the only round, avoiding a division by
    zero in the rate.
    """
    cache = _build_cache(g, cfg)
    m_edges = g.num_edges
    vals = _segment_mean(cache, m_edges, cfg.s)
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
    # each round runs in two row buffers; the gathers use mode="clip"
    # (every index is in range) so that they write to ``out`` directly
    # instead of through a temporary, and the integer multiplicities are
    # cast in the ufunc's chunks, not copied whole
    w = np.empty(rows.size)
    per_row = np.empty(rows.size)

    current = big
    for t in range(1, cfg.T + 1):
        tau = np.pi / current
        diag.taus.append(float(tau))
        current -= step

        lookup = vals.copy()
        if not supported_mask.all():
            lookup[~supported_mask] = np.median(vals[supported_mask])
        low = lookup.min()
        if tau * (lookup.max() - low) <= _MAX_EXPONENT_SPREAD:
            # exp(-tau * max(a, b)) = min(exp(-tau * a), exp(-tau * b))
            e = np.exp(-tau * (lookup - low))
            np.take(e, cache.rows_ki, out=w, mode="clip")
            np.take(e, cache.rows_jk, out=per_row, mode="clip")
            np.minimum(w, per_row, out=w)
        else:
            _shifted_row_weights(cache, lookup, tau, w, per_row)
        # w = mult * weight; the statistic is the weighted mean per edge
        w *= cache.multiplicity
        sums = np.bincount(rows, weights=w, minlength=m_edges)
        w *= cache.inconsistencies
        new_vals = np.bincount(rows, weights=w, minlength=m_edges)
        vals = np.full(m_edges, np.nan)
        np.divide(new_vals, sums, out=vals, where=supported_mask)
        per_iter[t] = vals

    return EdgeStatistics(
        g.edge_array, vals, per_iteration=per_iter, cache=cache, diagnostics=diag
    )
