"""solvable_component and ViewGraph.components against networkx's k-core and
connected components, on graphs with isolated vertices."""

from __future__ import annotations

import numpy as np
import pytest

from aabscreen.graph import ViewGraph
from aabscreen.screening import solvable_component

nx = pytest.importorskip("networkx")

EZ = np.array([0.0, 0.0, 1.0])
SEEDS = range(24)


def random_graph(seed: int) -> ViewGraph:
    """Sparse graph on a random subset of n vertices; the rest are isolated.

    The density varies with the seed, so cores range from the whole graph
    to empty, with several components and pendant chains between.  Every
    third seed doubles its edges onto the upper half of the vertices, so the
    two largest components tie and the one with the smaller vertex must win.
    """
    rng = np.random.default_rng(seed)
    half = int(rng.integers(20, 60))
    used = rng.permutation(half)[: int(rng.integers(4, half))].tolist()
    density = rng.uniform(0.8, 3.0) / len(used)
    pairs = {(min(a, b), max(a, b)) for a in used for b in used if a < b and rng.random() < density}
    pairs.add((min(used[:2]), max(used[:2])))
    if seed % 3 == 0:
        pairs |= {(a + half, b + half) for a, b in pairs}
    i, j = np.array(sorted(pairs)).T
    return ViewGraph.from_arrays(2 * half, i, j, np.tile(EZ, (i.size, 1)))


def as_networkx(g: ViewGraph):
    h = nx.Graph()
    h.add_edges_from(g.edges())
    return h


def reference_component(g: ViewGraph, min_degree: int):
    """Edges of the largest component of networkx's min_degree-core, the
    one with the smallest vertex on a tie; None if the core is empty."""
    core = nx.k_core(as_networkx(g), min_degree)
    comps = [c for c in nx.connected_components(core) if len(c) > 1]
    if not comps:
        return None
    best = max(sorted(comps, key=min), key=len)
    return sorted(tuple(sorted(e)) for e in core.subgraph(best).edges())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("min_degree", [0, 1, 2, 3])
def test_solvable_component_matches_k_core(seed, min_degree):
    g = random_graph(seed)
    expected = reference_component(g, min_degree)
    if expected is None:
        with pytest.raises(ValueError, match="survive"):
            solvable_component(g, min_degree)
    else:
        out = solvable_component(g, min_degree)
        assert out.edges() == expected
        assert out.n == g.n


@pytest.mark.parametrize("seed", SEEDS)
def test_components_match_networkx(seed):
    g = random_graph(seed)
    expected = sorted((sorted(c) for c in nx.connected_components(as_networkx(g))), key=min)
    comps = g.components()
    assert [sorted(c) for c in comps] == expected
    # the smallest vertex leads each component; isolated vertices are in none
    assert [c[0] for c in comps] == [c[0] for c in expected]


class TestMostlyIsolated:
    """A triangle on two million vertices: only the three vertices with an
    edge are ever visited one at a time."""

    N = 2_000_000

    @pytest.fixture(scope="class")
    def triangle(self):
        return ViewGraph.from_arrays(self.N, [0, 0, 1], [1, 2, 2], np.tile(EZ, (3, 1)))

    @pytest.mark.parametrize("min_degree", [0, 1, 2])
    def test_keeps_the_triangle(self, triangle, min_degree):
        out = solvable_component(triangle, min_degree)
        assert out.edges() == reference_component(triangle, min_degree)
        assert out.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_everything_peeled(self, triangle):
        assert reference_component(triangle, 3) is None
        with pytest.raises(ValueError, match="survive"):
            solvable_component(triangle, 3)

    def test_components(self, triangle):
        assert triangle.components() == [[0, 1, 2]]

    @pytest.mark.parametrize("min_degree", [2, 3])
    def test_visits_only_vertices_with_edges(self, triangle, monkeypatch, min_degree):
        calls = []
        neighbors = ViewGraph.neighbors
        monkeypatch.setattr(
            ViewGraph, "neighbors", lambda self, v: calls.append(v) or neighbors(self, v)
        )
        try:
            solvable_component(triangle, min_degree)
        except ValueError:
            pass
        # peeling at most three vertices, then one search over at most three
        assert len(calls) <= 6
