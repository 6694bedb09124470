"""Turn edge statistics into a pruned view graph.

Removal keeps either a fixed fraction of the lowest-statistic edges or all
edges below a threshold.  Unsupported edges (no triangles, hence no
statistic) are kept by default: absence of evidence is not treated as
corruption.  A cheap solvability surrogate then extracts the largest
connected component of the min-degree core so a location solver gets a
usable graph.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .aabstats import EdgeStatistics
from .graph import ViewGraph, match_edge_rows
from .streams import require_integers

__all__ = ["ScreeningPolicy", "filter_edges", "solvable_component"]


@dataclass(frozen=True)
class ScreeningPolicy:
    """Edge-removal policy.

    Without a ``threshold`` it keeps the ``keep_fraction`` of supported
    edges with the lowest statistics; with one it keeps the supported edges
    whose statistic is <= threshold, and ``keep_fraction`` is ignored.
    """

    keep_fraction: float = 0.5
    threshold: float | None = None
    min_degree: int = 2
    drop_unsupported: bool = False

    def __post_init__(self):
        require_integers(min_degree=self.min_degree)
        if not isinstance(self.keep_fraction, numbers.Real):
            raise ValueError(f"keep_fraction must be a real number, got {self.keep_fraction!r}")
        if not isinstance(self.threshold, (numbers.Real, type(None))):
            raise ValueError(f"threshold must be a real number or None, got {self.threshold!r}")
        if self.mode == "keep_fraction" and not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")
        if self.min_degree < 0:
            raise ValueError("min_degree must be >= 0")

    @property
    def mode(self) -> str:
        """The criterion in force: ``"keep_fraction"`` or ``"threshold"``."""
        return "keep_fraction" if self.threshold is None else "threshold"


def filter_edges(g: ViewGraph, stats: EdgeStatistics, policy: ScreeningPolicy) -> ViewGraph:
    """New graph with high-statistic supported edges removed.

    Ties in keep_fraction mode are broken by canonical edge order, lower
    (i, j) kept first.  Unsupported edges survive unless the policy drops
    them.  An empty survivor set is an error.
    """
    rows = match_edge_rows(stats.edge_array, g.edge_array, "statistics do not cover edge {}")
    vals = stats.value[rows]
    unsupported = np.isnan(vals)
    supported = np.flatnonzero(~unsupported)

    kept = np.zeros(g.num_edges, dtype=bool)
    if policy.mode == "keep_fraction":
        # rows are in canonical edge order, so a stable sort breaks ties by edge
        ranked = supported[np.argsort(vals[supported], kind="stable")]
        # f * N within a relative 1e-12 of an integer keeps it: 0.07 * 100 > 7
        kept[ranked[: math.ceil(policy.keep_fraction * supported.size * (1 - 1e-12))]] = True
    else:
        kept[supported[vals[supported] <= policy.threshold]] = True

    survivors = kept | (unsupported & (not policy.drop_unsupported))
    if not survivors.any():
        raise ValueError("screening removed every edge")
    return g.subgraph(survivors)


def solvable_component(g: ViewGraph, min_degree: int = 2) -> ViewGraph:
    """Largest connected component of the min-degree core.

    Iteratively strips vertices of degree < min_degree, then keeps the
    connected component with the most vertices (ties broken toward the
    component containing the smallest vertex id).  Idempotent.  Raises if
    nothing survives.
    """
    require_integers(min_degree=min_degree)
    if g.num_edges == 0:
        raise ValueError("graph has no edges")

    # only the peeled vertices and their neighbours are visited one by one
    deg = np.bincount(g.edge_array.ravel(), minlength=g.n)
    alive = deg > 0
    pending = deque(np.flatnonzero(alive & (deg < min_degree)).tolist())
    while pending:
        v = pending.popleft()
        if not alive[v]:
            continue
        alive[v] = False
        for w in g.neighbors(v).tolist():
            if alive[w]:
                deg[w] -= 1
                if deg[w] < min_degree:
                    pending.append(w)

    core = g.subgraph(alive[g.edge_array[:, 0]] & alive[g.edge_array[:, 1]])
    comps = core.components()
    if not comps:
        raise ValueError(f"no vertices survive the {min_degree}-core reduction")
    keep = np.zeros(g.n, dtype=bool)
    keep[max(comps, key=len)] = True
    # an edge of the core lies in the component of either of its ends
    return core.subgraph(keep[core.edge_array[:, 0]])
