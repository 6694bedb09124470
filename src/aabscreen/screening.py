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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .aabstats import EdgeStatistics
from .graph import ViewGraph, match_edge_rows

__all__ = ["ScreeningPolicy", "filter_edges", "solvable_component"]


@dataclass(frozen=True)
class ScreeningPolicy:
    """Edge-removal policy.

    ``mode`` selects exactly one of the two criteria: ``"keep_fraction"``
    keeps the given fraction of supported edges with the lowest statistics;
    ``"threshold"`` keeps supported edges with statistic <= threshold.
    """

    mode: str = "keep_fraction"
    keep_fraction: float = 0.5
    threshold: float | None = None
    min_degree: int = 2
    drop_unsupported: bool = False

    def __post_init__(self):
        if self.mode not in ("keep_fraction", "threshold"):
            raise ValueError(f"unknown screening mode {self.mode!r}")
        if self.mode == "keep_fraction" and not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if self.mode == "threshold" and self.threshold is None:
            raise ValueError("threshold mode requires a threshold value")
        if self.min_degree < 0:
            raise ValueError("min_degree must be >= 0")


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
        kept[ranked[: math.ceil(policy.keep_fraction * supported.size)]] = True
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
    if g.num_edges == 0:
        raise ValueError("graph has no edges")

    alive = [True] * g.n
    deg = [g.degree(v) for v in range(g.n)]
    pending = deque(v for v in range(g.n) if 0 < deg[v] < min_degree)
    dead = set(v for v in range(g.n) if deg[v] == 0)
    for v in range(g.n):
        if deg[v] == 0:
            alive[v] = False
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

    remaining = [v for v in range(g.n) if alive[v] and v not in dead]
    if not remaining:
        raise ValueError(f"no vertices survive the {min_degree}-core reduction")

    seen: set[int] = set()
    best: list[int] = []
    for start in remaining:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v).tolist():
                if alive[w] and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        if len(comp) > len(best) or (len(comp) == len(best) and min(comp) < min(best)):
            best = comp

    keep = np.zeros(g.n, dtype=bool)
    keep[best] = True
    survivors = keep[g.edge_array[:, 0]] & keep[g.edge_array[:, 1]]
    if not survivors.any():
        raise ValueError("largest component has no edges")
    return g.subgraph(survivors)
