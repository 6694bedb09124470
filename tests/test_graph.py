"""Unit tests for the view graph container."""

from __future__ import annotations

import numpy as np
import pytest

from aabscreen import graph as graph_module
from aabscreen.graph import Locations, ViewGraph, block_bounds, match_edge_rows

from conftest import unit

EZ = np.array([0.0, 0.0, 1.0])


def triangle() -> ViewGraph:
    return ViewGraph(
        3,
        [
            (0, 1, unit([1, 0, 0])),
            (0, 2, unit([0, 1, 0])),
            (1, 2, unit([0, 0, 1])),
        ],
    )


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            ViewGraph(3, [(1, 1, EZ)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            ViewGraph(3, [(0, 1, EZ), (1, 0, EZ)])

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            ViewGraph(3, [(0, 1, np.array([2.0, 0.0, 0.0]))])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ViewGraph(3, [(0, 3, EZ)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_direction(self, bad):
        with pytest.raises(ValueError, match=r"edge \(2, 1\) has a non-finite component"):
            ViewGraph(3, [(0, 1, EZ), (2, 1, np.array([bad, 0.0, 0.0]))])

    def test_reports_first_offending_edge_in_input_order(self):
        cases = [
            ([(0, 1, EZ), (2, 2, EZ), (0, 7, EZ)], "self-loop at vertex 2"),
            ([(0, 7, EZ), (2, 2, EZ)], r"vertex pair \(0, 7\) out of range"),
            ([(0, 1, EZ), (1, 0, [1.0, 2.0]), (3, 3, EZ)], r"duplicate edge \(0, 1\)"),
            ([(0, 1, [1.0, 2.0]), (0, 1, EZ)], r"edge \(0, 1\) is not a 3-vector"),
            ([(0, 1, 2 * EZ), (1, 2, [np.nan, 0, 0])], r"edge \(0, 1\) has norm 2.0"),
        ]
        for edges, message in cases:
            with pytest.raises(ValueError, match=message):
                ViewGraph(4, edges)

    def test_from_arrays_matches_constructor(self, rng):
        t = rng.normal(size=(7, 3))
        pairs = [(3, 1), (0, 6), (5, 2), (1, 4), (6, 5)]
        dirs = np.array([(t[i] - t[j]) / np.linalg.norm(t[i] - t[j]) for i, j in pairs])
        a = ViewGraph(7, [(i, j, d) for (i, j), d in zip(pairs, dirs)])
        i, j = np.array(pairs).T
        b = ViewGraph.from_arrays(7, i, j, dirs)
        assert np.array_equal(a.edge_array, b.edge_array)
        assert np.array_equal(a.direction_array, b.direction_array)
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 3\)"):
            ViewGraph.from_arrays(7, np.append(i, 1), np.append(j, 3), np.vstack([dirs, EZ]))

    def test_directions_renormalized(self):
        g = ViewGraph(2, [(0, 1, EZ * (1 + 5e-7))])
        assert abs(np.linalg.norm(g.direction_array[0]) - 1.0) <= 1e-12

    def test_stored_directions_unit(self, rng):
        t = rng.normal(size=(6, 3))
        edges = [
            (i, j, (t[i] - t[j]) / np.linalg.norm(t[i] - t[j]))
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        g = ViewGraph(6, edges)
        norms = np.linalg.norm(g.direction_array, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12


class TestDirection:
    def test_canonical_orientation(self):
        g = ViewGraph(2, [(0, 1, EZ)])
        assert np.array_equal(g.direction_array, [EZ])
        assert np.array_equal(g.directions_of_pairs(np.array([0]), np.array([1])), [EZ])

    def test_antisymmetry(self):
        g = ViewGraph(2, [(0, 1, EZ)])
        assert np.array_equal(g.directions_of_pairs(np.array([1]), np.array([0])), [-EZ])

    def test_missing_edge(self):
        g = ViewGraph(4, [(0, 1, EZ), (1, 2, EZ), (2, 3, EZ)])
        with pytest.raises(KeyError, match=r"edge \(1, 3\) not in graph"):
            g.directions_of_pairs(np.array([1]), np.array([3]))

    def test_reversed_input_is_negated(self):
        g = ViewGraph(2, [(1, 0, EZ)])
        assert np.array_equal(g.direction_array, [-EZ])
        assert np.array_equal(g.directions_of_pairs(np.array([1, 0]), np.array([0, 1])), [EZ, -EZ])

    def test_vectorized_lookup_matches(self, rng):
        t = rng.normal(size=(8, 3))
        edges = [
            (i, j, (t[i] - t[j]) / np.linalg.norm(t[i] - t[j]))
            for i in range(8)
            for j in range(i + 1, 8)
        ]
        g = ViewGraph(8, edges)
        a = np.array([3, 0, 7, 5])
        b = np.array([1, 6, 2, 4])
        given = {(i, j): d for i, j, d in edges}
        batch = g.directions_of_pairs(a, b)
        for k in range(4):
            i, j = int(a[k]), int(b[k])
            expected = given[(i, j)] if i < j else -given[(j, i)]
            assert np.array_equal(batch[k], expected)

    def test_vectorized_lookup_missing_edge(self):
        g = triangle()
        with pytest.raises(KeyError):
            g.edge_rows_of_pairs(np.array([0]), np.array([0]))

    def test_vectorized_lookup_out_of_range(self):
        g = ViewGraph(3, [(1, 2, EZ)])
        # pair key 0 * 3 + 5 equals that of (1, 2): range is checked first
        with pytest.raises(KeyError):
            g.edge_rows_of_pairs(np.array([0]), np.array([5]))


class TestCommonNeighbors:
    def test_triangle(self):
        assert list(triangle().common_neighbors(0, 1)) == [2]

    def test_path_has_none(self):
        g = ViewGraph(3, [(0, 1, EZ), (1, 2, EZ)])
        assert g.common_neighbors(0, 1).size == 0

    def test_complete_graph(self, rng):
        t = rng.normal(size=(4, 3))
        edges = [
            (i, j, (t[i] - t[j]) / np.linalg.norm(t[i] - t[j]))
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        g = ViewGraph(4, edges)
        assert list(g.common_neighbors(0, 1)) == [2, 3]

    def test_requires_edge(self):
        g = ViewGraph(3, [(0, 1, EZ), (1, 2, EZ)])
        with pytest.raises(KeyError):
            g.common_neighbors(0, 2)

    def test_symmetric(self):
        g = triangle()
        assert np.array_equal(g.common_neighbors(0, 1), g.common_neighbors(1, 0))


class TestCommonNeighborCsr:
    def test_matches_intersection(self, rng, monkeypatch):
        # blocks of 64 neighbour-list entries exercise the block boundaries;
        # vertices 0-3 join every vertex, so the walk starts at j on each
        # edge {i, j} with i < 4 <= j, and at i on the edges among them
        t = rng.normal(size=(40, 3))
        edges = [
            (i, j, (t[i] - t[j]) / np.linalg.norm(t[i] - t[j]))
            for i in range(40)
            for j in range(i + 1, 40)
            if i < 4 or rng.random() < 0.3
        ]
        for block in (graph_module._WEDGE_BLOCK, 64):
            monkeypatch.setattr(graph_module, "_WEDGE_BLOCK", block)
            g = ViewGraph(40, edges)
            indptr, indices, rows_jk, rows_ki = g.common_neighbor_csr
            assert indptr.size == g.num_edges + 1
            assert rows_jk.dtype == rows_ki.dtype == np.int32
            walked_from_j = 0
            for row, (i, j) in enumerate(g.edges()):
                expected = np.intersect1d(g.neighbors(i), g.neighbors(j))
                entries = slice(indptr[row], indptr[row + 1])
                assert np.array_equal(indices[entries], expected)
                assert np.array_equal(rows_jk[entries], g.edge_rows_of_pairs(j, expected))
                assert np.array_equal(rows_ki[entries], g.edge_rows_of_pairs(expected, i))
                walked_from_j += g.neighbors(i).size > g.neighbors(j).size and expected.size > 0
            assert 0 < walked_from_j < g.num_edges

    def test_edgeless_graph(self):
        g = ViewGraph(3, [])
        indptr, indices, rows_jk, rows_ki = g.common_neighbor_csr
        assert list(indptr) == [0]
        assert indices.size == rows_jk.size == rows_ki.size == 0


class TestSubgraph:
    def test_keeps_masked_rows(self, rng):
        t = rng.normal(size=(6, 3))
        g = ViewGraph(
            6,
            [
                (i, j, (t[i] - t[j]) / np.linalg.norm(t[i] - t[j]))
                for i in range(6)
                for j in range(i + 1, 6)
            ],
        )
        mask = np.arange(g.num_edges) % 3 == 0
        sub = g.subgraph(mask)
        assert sub.n == g.n
        assert np.array_equal(sub.edge_array, g.edge_array[mask])
        assert np.array_equal(sub.direction_array, g.direction_array[mask])

    def test_rejects_misshapen_mask(self):
        with pytest.raises(ValueError, match="row mask"):
            triangle().subgraph(np.ones(2, dtype=bool))


class TestBlockBounds:
    def test_runs_cover_the_items_within_the_limit(self, rng):
        for limit in (1, 7, 50):
            sizes = rng.integers(1, 20, size=200)
            runs = block_bounds(sizes, limit)
            assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]]
            assert runs[-1][1] == sizes.size
            assert all(sizes[a:b].sum() <= limit + sizes[a] for a, b in runs)
        # at limit 1 every item has its own run
        assert len(block_bounds(sizes, 1)) == sizes.size

    def test_no_items_no_runs(self):
        assert block_bounds(np.zeros(0, dtype=np.int64), 8) == []


class TestMatchEdgeRows:
    def test_rows_of_a_subset(self):
        have = np.array([[0, 1], [0, 4], [2, 3], [3, 9]])
        want = np.array([[0, 4], [3, 9], [0, 1]])
        assert match_edge_rows(have, want, "missing {}").tolist() == [1, 3, 0]

    def test_first_missing_row_is_named(self):
        have = np.array([[0, 1], [2, 3]])
        want = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
        with pytest.raises(ValueError, match=r"^missing \(1, 2\)$"):
            match_edge_rows(have, want, "missing {}")

    def test_past_the_last_key_is_missing(self):
        have = np.array([[0, 1]])
        with pytest.raises(ValueError, match=r"\(5, 6\)"):
            match_edge_rows(have, np.array([[5, 6]]), "missing {}")

    def test_empty_sides(self):
        none = np.zeros((0, 2), dtype=np.int64)
        assert match_edge_rows(triangle().edge_array, none, "missing {}").size == 0
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            match_edge_rows(none, triangle().edge_array, "missing {}")


class TestChecks:
    def test_first_fault_is_earliest_row_then_first_check(self):
        checks = [np.array([False, False, True, True]), np.array([False, True, True, False])]
        assert graph_module.first_fault(checks) == (1, 1)
        assert graph_module.first_fault([checks[0]]) == (2, 0)
        assert graph_module.first_fault([np.zeros(4, dtype=bool)]) is None
        assert graph_module.first_fault([np.zeros(0, dtype=bool)] * 2) is None

    def test_pair_checks_take_ids_beyond_int64(self):
        huge = 10**20
        i = np.array([0, 2, huge, 0, 0], dtype=object)
        j = np.array([1, 1, huge + 1, huge, 1], dtype=object)
        order, out_of_range, repeated = graph_module.pair_checks(3, i, j)
        assert order.tolist() == [False, True, False, False, False]
        assert out_of_range[[0, 2, 3]].tolist() == [False, True, True]
        assert repeated.tolist() == [False, False, False, False, True]

    @pytest.mark.parametrize("n", [graph_module.MAX_VERTICES + 1, 10**20])
    def test_rejects_vertex_count_beyond_bound(self, n):
        # the count is checked before anything of size n is allocated
        with pytest.raises(ValueError, match="at most 2147483647 vertices"):
            ViewGraph.from_arrays(n, [], [], np.zeros((0, 3)))
        with pytest.raises(ValueError, match="at most 2147483647 vertices"):
            ViewGraph(n, [])

    @pytest.mark.parametrize("n", [3.5, 3.0, "3", None])
    def test_vertex_count_must_be_an_integer(self, n):
        # a float count used to be truncated, a string to fail on n < 2
        edges = [(0, 1, EZ), (1, 2, EZ)]
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            ViewGraph(n, edges)
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            ViewGraph.from_arrays(n, [0, 1], [1, 2], np.tile(EZ, (2, 1)))

    def test_numpy_integer_is_a_vertex_count(self):
        g = ViewGraph.from_arrays(np.int32(3), [0, 1], [1, 2], np.tile(EZ, (2, 1)))
        assert g.n == 3 and type(g.n) is int


class TestLocations:
    def test_holds_rows_of_sorted_vertices(self):
        coords = np.arange(9.0).reshape(3, 3)
        locs = Locations(np.array([2, 5, 7]), coords)
        assert locs.vertices.tolist() == [2, 5, 7]
        assert locs.coords is coords and locs.values() is coords

    def test_empty(self):
        assert Locations(np.zeros(0, dtype=np.int64), np.zeros((0, 3))).vertices.size == 0

    @pytest.mark.parametrize(
        "vertices, shape",
        [([2, 1, 3], (3, 3)), ([1, 1, 3], (3, 3)), ([1, 2, 3], (2, 3)), ([1, 2, 3], (3, 2))],
        ids=["unsorted", "repeated", "too_few_rows", "not_3d"],
    )
    def test_rejects(self, vertices, shape):
        with pytest.raises(ValueError, match="sorted unique vertices and one 3-vector each"):
            Locations(np.array(vertices), np.zeros(shape))
