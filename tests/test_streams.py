"""Tests of the counter-based per-edge draws."""

from __future__ import annotations

import numpy as np

from aabscreen.streams import TAG_TRIPLES, bounded_index, edge_hash, unit_interval


class TestEdgeHash:
    def test_keyed_by_canonical_edge(self):
        draws = np.arange(20)
        a = edge_hash(7, TAG_TRIPLES, 3, 9, draws)
        assert np.array_equal(a, edge_hash(7, TAG_TRIPLES, 9, 3, draws))
        assert a.dtype == np.uint64 and a.shape == (20,)
        # every other key part changes every draw
        for other in (
            edge_hash(8, TAG_TRIPLES, 3, 9, draws),
            edge_hash(7, TAG_TRIPLES + 1, 3, 9, draws),
            edge_hash(7, TAG_TRIPLES, 3, 10, draws),
            edge_hash(7, TAG_TRIPLES, 2, 9, draws),
            edge_hash(7, TAG_TRIPLES, 3, 9, draws + 20),
        ):
            assert not np.any(a == other)

    def test_broadcast_equals_elementwise(self):
        lo = np.array([0, 4, 11])
        hi = np.array([5, 9, 12])
        grid = edge_hash(3, TAG_TRIPLES, lo[:, None], hi[:, None], np.arange(6))
        for r in range(3):
            for k in range(6):
                assert grid[r, k] == edge_hash(3, TAG_TRIPLES, lo[r], hi[r], k)

    def test_negative_seed_reduced_to_64_bits(self):
        assert np.array_equal(
            edge_hash(-1, TAG_TRIPLES, 0, 1, np.arange(4)),
            edge_hash((1 << 64) - 1, TAG_TRIPLES, 0, 1, np.arange(4)),
        )


class TestBoundedIndex:
    def test_always_below_count(self):
        h = np.concatenate(
            [
                edge_hash(11, TAG_TRIPLES, 0, 1, np.arange(100_000)),
                np.array([0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1], dtype=np.uint64),
            ]
        )
        for count in (1, 2, 3, 50, 1000, (1 << 31) - 1):
            r = bounded_index(h, count)
            assert r.min() >= 0 and r.max() < count
        assert np.all(bounded_index(h, 1) == 0)
        # the largest draw lands in the top bucket
        top = np.array([(1 << 64) - 1], dtype=np.uint64)
        assert bounded_index(top, (1 << 31) - 1)[0] == (1 << 31) - 2

    def test_per_row_counts(self):
        h = edge_hash(5, TAG_TRIPLES, np.arange(4)[:, None], 10, np.arange(1000))
        counts = np.array([[1], [2], [7], [(1 << 31) - 1]])
        r = bounded_index(h, counts)
        assert np.all(r < counts) and np.all(r >= 0)


class TestUnitInterval:
    def test_range_and_extremes(self):
        h = np.array([0, (1 << 64) - 1], dtype=np.uint64)
        u = unit_interval(h)
        assert u[0] == 0.0 and u[1] < 1.0 and u[1] == 1.0 - 2.0**-53
        v = unit_interval(edge_hash(2, TAG_TRIPLES, 0, 1, np.arange(100_000)))
        assert v.min() >= 0.0 and v.max() < 1.0
        # mean of 1e5 uniforms: standard error 0.29 / sqrt(1e5) ~ 9.1e-4
        assert abs(v.mean() - 0.5) < 5 * 9.2e-4
