"""Undirected view graph with oriented pairwise directions.

Vertices are 0..n-1.  Each undirected edge {i, j} carries one unit direction
stored for the canonical order i < j, pointing from j toward i; querying the
reversed order negates it.  The graph is immutable after construction:
screening builds new graphs instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sphere import UNIT_NORM_TOL, unit_rows

__all__ = [
    "MAX_VERTICES", "Locations", "ViewGraph", "edge_tuples", "first_fault", "match_edge_rows",
    "pair_checks", "repeats",
]

# Most vertices a graph may have: every pair key i * n + j is then exact in int64.
MAX_VERTICES = 2**31 - 1

# Neighbour-list entries walked per block while building the common-neighbour
# lists; bounds the transient memory at a few tens of MB.
_WEDGE_BLOCK = 1 << 20


def first_fault(checks) -> tuple[int, int] | None:
    """(row, k): the earliest row that fails one of ``checks``, boolean
    masks over the same rows listed in the order a row is checked, and the
    first check it fails; None if every row passes."""
    failed = np.logical_or.reduce(checks)
    if not failed.any():
        return None
    row = int(np.argmax(failed))
    return row, next(k for k, check in enumerate(checks) if check[row])


def repeats(keys, valid) -> np.ndarray:
    """Mask of the ``valid`` rows whose nonnegative key is an earlier one's."""
    m = valid.size
    keys = np.where(valid, keys, -1 - np.arange(m)).astype(np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse] != np.arange(m)


def pair_checks(n: int, i, j) -> list[np.ndarray]:
    """Masks of the rows whose vertex pair (i[k], j[k]) breaks i < j, has an
    id outside [0, n), or repeats the pair of an earlier row.  The ids may
    be an object array of ints too large for int64."""
    order = i >= j
    in_range = (i >= 0) & (j < n)  # both ids, given i < j
    # i * n + j may wrap in int64 on a row failing the first two checks;
    # repeats ignores those rows
    return [order, ~in_range, repeats(i * n + j, ~order & in_range)]


def _first_invalid(n: int, i, j, d, norms, unit, not_vec) -> str | None:
    """Message for the first offending edge in input order, or None.

    An edge is checked for, in this order: self-loop, vertex range, an
    earlier edge on the same pair, a direction that is not a 3-vector (rows
    listed in ``not_vec``), non-finite components, and unit norm (``norms``
    and ``unit`` as ``sphere.unit_rows`` returns them for ``d``).
    """
    bad_vec = np.zeros(i.size, dtype=bool)
    bad_vec[list(not_vec)] = True
    finite = np.isfinite(d).all(axis=1)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    fault = first_fault([*pair_checks(n, lo, hi), bad_vec, ~finite, ~unit])
    if fault is None:
        return None
    e, k = fault
    a, b = int(i[e]), int(j[e])
    messages = [
        f"self-loop at vertex {a}",
        f"vertex pair ({a}, {b}) out of range for n={n}",
        f"duplicate edge ({min(a, b)}, {max(a, b)})",
        f"direction of edge ({a}, {b}) is not a 3-vector",
        f"direction of edge ({a}, {b}) has a non-finite component",
        f"direction of edge ({a}, {b}) has norm {float(norms[e])!r}, "
        f"deviating from 1 by more than {UNIT_NORM_TOL}",
    ]
    return messages[k]


def edge_tuples(edge_array: np.ndarray) -> list[tuple[int, int]]:
    """Rows of an (m, 2) vertex-pair array as tuples of ints."""
    return list(zip(edge_array[:, 0].tolist(), edge_array[:, 1].tolist()))


def match_edge_rows(have: np.ndarray, want: np.ndarray, missing: str) -> np.ndarray:
    """Row in ``have`` of each row of ``want``.

    Both are (m, 2) arrays of vertex pairs with nonnegative ids; the rows of
    ``have`` must be sorted and unique, as canonical edge arrays are.  A
    ``want`` row absent from ``have`` raises ``ValueError(missing.format(edge))``
    for the first such row.
    """
    base = max(int(have.max(initial=0)), int(want.max(initial=0))) + 1
    # the -1 sentinel past the end matches no key, so a search that lands
    # there counts as missing
    keys = np.append(have[:, 0] * base + have[:, 1], -1)
    wanted = want[:, 0] * base + want[:, 1]
    rows = np.searchsorted(keys[:-1], wanted)
    missing_rows = keys[rows] != wanted
    if missing_rows.any():
        a, b = want[np.argmax(missing_rows)]
        raise ValueError(missing.format((int(a), int(b))))
    return rows


@dataclass(frozen=True, eq=False)
class Locations:
    """3D points of a vertex set: row k of the (N, 3) float64 ``coords``
    belongs to ``vertices[k]``, and ``vertices`` is sorted, unique int64.
    ``coords`` is kept in C order, as numpy's sums round in memory order."""

    vertices: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.ascontiguousarray(self.coords))
        v = self.vertices
        if v.ndim != 1 or self.coords.shape != (v.size, 3) or (v[1:] <= v[:-1]).any():
            raise ValueError("locations need sorted unique vertices and one 3-vector each")

    def values(self) -> np.ndarray:
        """``coords``, as perfbench's location check reads them."""
        return self.coords


class ViewGraph:
    """Measurement graph over n vertices with per-edge unit directions."""

    def __init__(self, n: int, edges):
        """Build from an iterable of (i, j, direction) triples.

        The direction is interpreted in the order given: it points from j
        toward i.  Rejects self-loops, duplicate pairs, out-of-range ids,
        non-finite directions and directions whose norm deviates from 1 by
        more than ``UNIT_NORM_TOL``, naming the first offending edge in
        input order.  The others are normalized by ``sphere.unit_rows``.
        """
        ids = []
        dirs = []
        not_vec = []
        for i, j, d in edges:
            ids.append((int(i), int(j)))
            d = np.asarray(d, dtype=np.float64)
            if d.shape != (3,):
                not_vec.append(len(dirs))
                d = np.full(3, np.nan)
            dirs.append(d)
        ij = np.array(ids, dtype=np.int64).reshape(-1, 2)
        self._build(n, ij[:, 0], ij[:, 1], np.array(dirs).reshape(-1, 3), not_vec)

    @classmethod
    def from_arrays(cls, n: int, i, j, directions) -> "ViewGraph":
        """Build from parallel arrays: edge k joins i[k] and j[k] and its
        direction points from j[k] toward i[k].  Validation and error
        messages are those of the constructor."""
        g = cls.__new__(cls)
        g._build(n, i, j, directions, ())
        return g

    def _build(self, n, i, j, d, not_vec) -> None:
        if n < 2:
            raise ValueError("a view graph needs at least 2 vertices")
        if n > MAX_VERTICES:
            raise ValueError(f"a view graph has at most {MAX_VERTICES} vertices")
        n = int(n)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        d = np.asarray(d, dtype=np.float64)
        if i.ndim != 1 or j.shape != i.shape or d.shape != (i.size, 3):
            raise ValueError("edge arrays must have shapes (m,), (m,) and (m, 3)")
        d, norms, unit = unit_rows(d)
        msg = _first_invalid(n, i, j, d, norms, unit, not_vec)
        if msg is not None:
            raise ValueError(msg)

        d = d * np.where(i > j, -1.0, 1.0)[:, None]
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        order = np.argsort(lo * n + hi)

        self._n = n
        self._edges = np.stack([lo[order], hi[order]], axis=1)
        self._dirs = d[order]

        # adjacency in CSR form: sorted neighbours of v are _nbr[_nbr_ptr[v]:_nbr_ptr[v + 1]]
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        self._nbr = dst[np.argsort(src * n + dst)]
        self._nbr_ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])

        for arr in (self._edges, self._dirs, self._nbr, self._nbr_ptr):
            arr.setflags(write=False)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._edges.shape[0]

    @property
    def edge_array(self) -> np.ndarray:
        """(m, 2) canonical vertex pairs, lexicographically sorted."""
        return self._edges

    @property
    def direction_array(self) -> np.ndarray:
        """(m, 3) directions aligned with ``edge_array`` rows."""
        return self._dirs

    def edges(self) -> list[tuple[int, int]]:
        """Canonical edge list as tuples."""
        return edge_tuples(self._edges)

    def subgraph(self, row_mask) -> "ViewGraph":
        """Graph on the same vertices keeping the edge rows where ``row_mask`` is set."""
        row_mask = np.asarray(row_mask, dtype=bool)
        if row_mask.shape != (self.num_edges,):
            raise ValueError(f"row mask must have shape ({self.num_edges},)")
        e = self._edges[row_mask]
        return ViewGraph.from_arrays(self._n, e[:, 0], e[:, 1], self._dirs[row_mask])

    @cached_property
    def _row_map(self) -> np.ndarray:
        """Dense (n, n) int32 map from a vertex pair, either order, to its
        edge row; -1 where there is no edge.  Built on first use."""
        rm = np.full((self._n, self._n), -1, dtype=np.int32)
        rows = np.arange(self.num_edges, dtype=np.int32)
        rm[self._edges[:, 0], self._edges[:, 1]] = rows
        rm[self._edges[:, 1], self._edges[:, 0]] = rows
        rm.setflags(write=False)
        return rm

    def neighbors(self, i: int) -> np.ndarray:
        return self._nbr[self._nbr_ptr[i] : self._nbr_ptr[i + 1]]

    # -- triangle machinery --------------------------------------------------

    @cached_property
    def common_neighbor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): the sorted common neighbours of edge row r are
        ``indices[indptr[r]:indptr[r + 1]]``.  Built on first use.

        Walks the neighbour list of each edge's lower-degree endpoint and
        keeps the vertices adjacent to the other endpoint, so the cost is
        the sum over edges of that smaller degree.
        """
        n = self._n
        ptr = self._nbr_ptr
        deg = np.diff(ptr)
        lo, hi = self._edges[:, 0], self._edges[:, 1]
        swap = deg[lo] > deg[hi]
        walk = np.where(swap, hi, lo)
        other_base = np.where(swap, lo, hi) * n
        flat_map = self._row_map.reshape(-1)
        cnt = deg[walk]
        ends = np.cumsum(cnt)
        total = int(ends[-1]) if ends.size else 0
        cuts = np.searchsorted(ends, np.arange(_WEDGE_BLOCK, total, _WEDGE_BLOCK))
        counts = [np.zeros(0, dtype=np.int64)]
        found = [np.zeros(0, dtype=np.int64)]
        for e0, e1 in zip([0, *cuts], [*cuts, self.num_edges]):
            if e1 <= e0:
                continue
            c = cnt[e0:e1]
            stop = np.cumsum(c)
            start = stop - c
            k = self._nbr[np.arange(stop[-1]) + np.repeat(ptr[walk[e0:e1]] - start, c)]
            hit = flat_map[np.repeat(other_base[e0:e1], c) + k] >= 0
            running = np.concatenate([[0], np.cumsum(hit)])
            counts.append(running[stop] - running[start])
            found.append(k[hit])
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        indices = np.concatenate(found)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    def common_neighbors(self, i: int, j: int) -> np.ndarray:
        """Sorted vertices adjacent to both i and j (never includes i or j)."""
        row = self.edge_rows_of_pairs(i, j)
        indptr, indices = self.common_neighbor_csr
        return indices[indptr[row] : indptr[row + 1]]

    def edge_rows_of_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row in the canonical arrays of each edge {a[k], b[k]}, either
        orientation; a pair that is not an edge raises ``KeyError``."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        if lo.size and (lo.min() < 0 or hi.max() >= self._n):
            bad = int(np.argmax((lo < 0) | (hi >= self._n)))
            raise KeyError(f"edge ({int(lo.flat[bad])}, {int(hi.flat[bad])}) not in graph")
        rows = self._row_map.reshape(-1)[lo * self._n + hi]
        missing = rows < 0
        if missing.any():
            bad = int(np.argmax(missing))
            raise KeyError(f"edge ({int(lo.flat[bad])}, {int(hi.flat[bad])}) not in graph")
        return rows.astype(np.intp)

    def directions_of_rows(self, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Directions of edge ``rows``, row k pointing from b[k] toward a[k]."""
        return self._dirs[rows] * np.where(a < b, 1.0, -1.0)[:, None]

    def directions_of_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Directions of edges {a[k], b[k]}, row k pointing from b[k] toward a[k]."""
        return self.directions_of_rows(self.edge_rows_of_pairs(a, b), a, b)

    # -- connectivity --------------------------------------------------------

    def active_vertices(self) -> np.ndarray:
        """Sorted vertices with degree >= 1."""
        return np.flatnonzero(np.diff(self._nbr_ptr) > 0)

    def components(self) -> list[list[int]]:
        """Connected components of the vertices with an edge.

        Each component lists its smallest vertex first, and components come
        in increasing order of that vertex.
        """
        seen = [False] * self._n
        comps = []
        for start in self.active_vertices().tolist():
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            stack = [start]
            while stack:
                for w in self.neighbors(stack.pop()).tolist():
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    def is_connected_over_active(self) -> bool:
        """True if every vertex with an edge is in one connected component."""
        return len(self.components()) == 1
