"""Tests of statistic-based edge filtering and the solvable-component step."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from aabscreen.aabstats import EdgeStatistics
from aabscreen.graph import ViewGraph
from aabscreen.screening import ScreeningPolicy, filter_edges, solvable_component

from conftest import stats_of

EZ = np.array([0.0, 0.0, 1.0])


def star_of_edges(n, pairs):
    return ViewGraph(n, [(i, j, EZ) for i, j in pairs])


def path_with_statistics(m):
    """A path of m edges with distinct statistics in shuffled order."""
    i = np.arange(m)
    g = ViewGraph.from_arrays(m + 1, i, i + 1, np.tile(EZ, (m, 1)))
    value = np.random.default_rng(m).permutation(m) / m
    return g, EdgeStatistics(edge_array=g.edge_array, value=value)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScreeningPolicy(keep_fraction=0.0)
        with pytest.raises(ValueError):
            ScreeningPolicy(keep_fraction=1.2)
        with pytest.raises(ValueError):
            ScreeningPolicy(min_degree=-1)

    @pytest.mark.parametrize("value", [2.5, "2"])
    def test_min_degree_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match=f"^min_degree must be an integer, got {value!r}$"):
            ScreeningPolicy(min_degree=value)

    @pytest.mark.parametrize(
        "field, value",
        [("keep_fraction", "0.5"), ("keep_fraction", None), ("threshold", "0.3"), ("threshold", [0.3])],
    )
    def test_fraction_and_threshold_must_be_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            ScreeningPolicy(**{field: value})

    def test_numpy_floats_are_numbers(self):
        assert ScreeningPolicy(keep_fraction=np.float32(0.25)).keep_fraction == np.float32(0.25)
        assert ScreeningPolicy(threshold=np.float64(0.3)).mode == "threshold"

    def test_numpy_integer_is_a_min_degree(self):
        assert ScreeningPolicy(min_degree=np.int64(3)).min_degree == 3

    def test_mode_follows_threshold(self):
        assert ScreeningPolicy().mode == "keep_fraction"
        # with a threshold the fraction is ignored, so it is not validated
        assert ScreeningPolicy(threshold=0.0, keep_fraction=0.0).mode == "threshold"
        with pytest.raises(TypeError):
            ScreeningPolicy(mode="threshold")


class TestFilterEdges:
    def test_keep_all_is_identity(self):
        g = star_of_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        stats = stats_of({e: 0.1 for e in g.edges()})
        out = filter_edges(g, stats, ScreeningPolicy(keep_fraction=1.0))
        assert out.edges() == g.edges()
        assert np.array_equal(out.direction_array, g.direction_array)

    def test_keeps_lowest_half(self):
        g = star_of_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        stats = stats_of({(0, 1): 0.1, (1, 2): 0.2, (2, 3): 0.3, (3, 4): 0.4})
        out = filter_edges(g, stats, ScreeningPolicy(keep_fraction=0.5))
        assert out.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "m, fraction, kept",
        [
            # f * m lands just above an integer in floating point
            (100, 0.07, 7), (100, 0.14, 14), (100, 0.28, 28), (100, 0.55, 55),
            # ... just below one, or on one
            (100, 0.29, 29), (100, 0.5, 50), (7, 1.0, 7),
            (101, 0.5, 51), (100, 0.001, 1), (100, 0.015, 2),
        ],
    )
    def test_kept_count_table(self, m, fraction, kept):
        g, stats = path_with_statistics(m)
        out = filter_edges(g, stats, ScreeningPolicy(keep_fraction=fraction))
        assert out.num_edges == kept
        # the kept edges are those with the lowest statistics
        assert np.array_equal(out.edge_array[:, 0], np.sort(np.argsort(stats.value)[:kept]))

    def test_kept_count_is_exact_ceiling(self):
        # every percentage on these sizes keeps ceil(f * m) of exact decimal f
        for m in (10, 100, 1000, 10000):
            g, stats = path_with_statistics(m)
            for k in range(1, 100):
                out = filter_edges(g, stats, ScreeningPolicy(keep_fraction=k / 100))
                assert out.num_edges == math.ceil(Fraction(k, 100) * m), (m, k)

    def test_zero_threshold_keeps_zero_stats(self):
        g = star_of_edges(4, [(0, 1), (1, 2), (2, 3)])
        stats = stats_of({e: 0.0 for e in g.edges()})
        out = filter_edges(g, stats, ScreeningPolicy(threshold=0.0))
        assert out.edges() == g.edges()

    def test_empty_survivors_is_error(self):
        g = star_of_edges(3, [(0, 1), (1, 2)])
        stats = stats_of({e: 1.0 for e in g.edges()})
        with pytest.raises(ValueError, match="every edge"):
            filter_edges(g, stats, ScreeningPolicy(threshold=0.5))

    def test_tie_break_by_canonical_order(self):
        g = star_of_edges(4, [(0, 1), (0, 2), (0, 3)])
        stats = stats_of({e: 0.5 for e in g.edges()})
        out = filter_edges(g, stats, ScreeningPolicy(keep_fraction=1 / 3))
        assert out.edges() == [(0, 1)]

    def test_unsupported_kept_by_default(self):
        g = star_of_edges(4, [(0, 1), (1, 2), (2, 3)])
        stats = stats_of({(0, 1): 0.1, (1, 2): 0.9}, unsupported=[(2, 3)])
        out = filter_edges(g, stats, ScreeningPolicy(keep_fraction=0.5))
        assert out.edges() == [(0, 1), (2, 3)]
        strict = ScreeningPolicy(keep_fraction=0.5, drop_unsupported=True)
        assert filter_edges(g, stats, strict).edges() == [(0, 1)]

    def test_missing_statistic_is_error(self):
        g = star_of_edges(3, [(0, 1), (1, 2)])
        stats = stats_of({(0, 1): 0.1})
        with pytest.raises(ValueError, match="cover"):
            filter_edges(g, stats, ScreeningPolicy())

    def test_missing_statistic_names_first_edge(self):
        g = star_of_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        stats = stats_of({(0, 1): 0.1, (3, 4): 0.2})
        with pytest.raises(ValueError, match=r"statistics do not cover edge \(1, 2\)"):
            filter_edges(g, stats, ScreeningPolicy())

    def test_statistics_may_cover_more_edges(self):
        g = star_of_edges(5, [(0, 1), (2, 3), (3, 4)])
        stats = stats_of(
            {(0, 1): 0.4, (1, 2): 0.0, (2, 3): 0.1, (3, 4): 0.3}, unsupported=[(0, 4)]
        )
        out = filter_edges(g, stats, ScreeningPolicy(keep_fraction=0.5))
        assert out.edges() == [(2, 3), (3, 4)]

    def test_survivor_count_never_grows(self):
        g = star_of_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        values = {e: float(k) for k, e in enumerate(g.edges())}
        stats = stats_of(values)
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            out = filter_edges(g, stats, ScreeningPolicy(keep_fraction=frac))
            assert out.num_edges <= g.num_edges
            kept_vals = sorted(values[e] for e in out.edges())
            assert kept_vals == sorted(values.values())[: len(kept_vals)]


class TestSolvableComponent:
    def test_triangle_unchanged(self):
        g = star_of_edges(3, [(0, 1), (1, 2), (0, 2)])
        out = solvable_component(g, 2)
        assert out.edges() == g.edges()

    def test_pendant_pruned(self):
        g = star_of_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        out = solvable_component(g, 2)
        assert out.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_largest_component_wins(self):
        pairs = [(0, 1), (1, 2), (0, 2)]
        pairs += [(3, 4), (4, 5), (3, 5)]
        pairs += [(6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)]
        g = star_of_edges(10, pairs)
        out = solvable_component(g, 2)
        assert out.edges() == [(6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)]

    def test_idempotent(self):
        g = star_of_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)])
        once = solvable_component(g, 2)
        twice = solvable_component(once, 2)
        assert once.edges() == twice.edges()

    def test_degrees_and_connectivity(self):
        rng = np.random.default_rng(2)
        pairs = {(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.25}
        g = star_of_edges(12, sorted(pairs))
        out = solvable_component(g, 2)
        active = out.active_vertices()
        assert (np.bincount(out.edge_array.ravel(), minlength=out.n)[active] >= 2).all()
        assert out.is_connected_over_active()

    def test_everything_peeled_is_error(self):
        g = star_of_edges(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="survive"):
            solvable_component(g, 2)

    @pytest.mark.parametrize("value", [2.5, 2.0])
    def test_min_degree_must_be_an_integer(self, value):
        g = star_of_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match=f"^min_degree must be an integer, got {value!r}$"):
            solvable_component(g, value)
        assert solvable_component(g, np.int32(2)).edges() == g.edges()
