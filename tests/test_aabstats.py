"""Tests of the naive and iteratively reweighted AAB statistics."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from scipy.stats import chi2

from aabscreen import aabstats
from aabscreen import graph as graph_module
from aabscreen.aabstats import AABConfig, TripleCache, ir_aab, naive_aab
from aabscreen.graph import ViewGraph
from aabscreen.sphere import aab_inconsistency, aab_inconsistency_batch, degenerate_base_mask
from aabscreen.streams import TAG_TRIPLES, edge_rng
from aabscreen.synthetic import UCParams, generate_uc

import per_draw_cache
from conftest import complete_graph_from_locations, random_rotation, unit

EZ = np.array([0.0, 0.0, 1.0])


def exact_zero_triangle_plus_noise() -> ViewGraph:
    """Four vertices: one triangle whose sampled inconsistencies are exactly
    0.0 (its third edge has only a degenerate base), plus a second
    triangle with inconsistency pi/2 through vertex 3."""
    dirs = {
        (0, 1): np.array([1.0, 0.0, 0.0]),
        (1, 2): np.array([-1.0, 0.0, 0.0]),
        (0, 2): np.array([0.0, -1.0, 0.0]),
        (0, 3): np.array([0.0, 0.0, 1.0]),
        (1, 3): np.array([0.0, 1.0, 0.0]),
    }
    return ViewGraph(4, [(i, j, v) for (i, j), v in dirs.items()])


def mostly_degenerate_edge() -> ViewGraph:
    """Edge {0, 1} with common neighbours 2..6: the triangles through 2..5
    have parallel base pairs and the one through 6 does not, so every draw
    of the edge picks 6."""
    edges = [(0, 1, np.array([1.0, 0.0, 0.0]))]
    edges += [(k, v, EZ) for k in range(2, 6) for v in (0, 1)]
    edges += [(6, 0, np.array([0.0, 1.0, 0.0])), (6, 1, unit([1.0, 1.0, 0.0]))]
    return ViewGraph(7, edges)


def picks_of(stats, g, edge) -> np.ndarray:
    """Common-neighbour picks of one edge's draws, sorted."""
    cache = stats.cache
    mask = cache.edge_rows == g.edge_rows_of_pairs(*edge)
    return np.repeat(cache.neighbors[mask], cache.multiplicity[mask])


def pcg64_inconsistencies(g: ViewGraph, cfg: AABConfig) -> dict[int, np.ndarray]:
    """Per-edge-row cached inconsistencies under the sampler the counter-based
    draws replaced, kept as a distributional oracle: s picks with replacement
    from a PCG64 stream per edge, degenerate triangles redrawn from the same
    stream for at most 8 rounds and then dropped."""
    out = {}
    for row, (i, j) in enumerate(g.edges()):
        cands = g.common_neighbors(i, j)
        if cands.size == 0:
            continue
        rng = edge_rng(cfg.seed, TAG_TRIPLES, i, j)
        picks = cands[rng.integers(0, cands.size, size=cfg.s)]
        ii = np.full(cfg.s, i)
        jj = np.full(cfg.s, j)

        def degenerate():
            return degenerate_base_mask(
                g.directions_of_pairs(jj, picks), g.directions_of_pairs(picks, ii)
            )

        for _ in range(8):
            bad = degenerate()
            if not bad.any():
                break
            for pos in np.flatnonzero(bad):
                picks[pos] = cands[int(rng.integers(0, cands.size))]
        keep = ~degenerate()
        if keep.any():
            out[row] = aab_inconsistency_batch(
                g.directions_of_pairs(ii[keep], jj[keep]),
                g.directions_of_pairs(jj[keep], picks[keep]),
                g.directions_of_pairs(picks[keep], ii[keep]),
            )
    return out


def expanded_inconsistencies(cache, row) -> np.ndarray:
    """Cached inconsistencies of edge ``row``, one per draw."""
    mask = cache.edge_rows == row
    return np.repeat(cache.inconsistencies[mask], cache.multiplicity[mask])


def mean_statistic(per_edge: dict[int, np.ndarray]) -> tuple[float, float]:
    """Mean naive statistic over supported edges and its sampling variance,
    from each edge's sample variance over its s picks."""
    means = np.array([v.mean() for v in per_edge.values()])
    var = sum(v.var(ddof=1) / v.size for v in per_edge.values()) / means.size**2
    return float(means.mean()), float(var)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AABConfig(s=0)
        with pytest.raises(ValueError, match=r"s must be in \[1, 2\*\*31 - 1\]"):
            AABConfig(s=2**31)
        AABConfig(s=2**31 - 1)
        with pytest.raises(ValueError):
            AABConfig(T=0)

    UC = dict(n=10, p=0.5, q=0.2, sigma=0.05, seed=0)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (AABConfig, "s", 2.5),
            (AABConfig, "T", 2.5),
            (AABConfig, "seed", 1.5),
            (AABConfig, "s", "50"),
            (UCParams, "n", 10.5),
            (UCParams, "seed", 1.5),
        ],
    )
    def test_counts_and_seeds_must_be_integers(self, cls, field, value):
        base = self.UC if cls is UCParams else {}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            cls(**{**base, field: value})

    def test_numpy_integers_are_counts(self):
        AABConfig(s=np.int64(5), T=np.int32(2), seed=np.uint64(3))
        UCParams(**{**self.UC, "n": np.int64(10), "seed": np.int32(1)})


class TestNaive:
    def test_exact_triangle_is_zero(self, rng):
        g = complete_graph_from_locations(rng.normal(size=(3, 3)))
        stats = naive_aab(g, AABConfig(s=10, seed=1))
        assert not np.isnan(stats.value).any()
        assert stats.value.max() <= 1e-9

    def test_corrupted_edge_ranks_highest(self, rng):
        # K4 from exact locations with direction (0,1) replaced by an
        # orthogonal unit vector: that edge's statistic dominates
        t = np.random.default_rng(0).normal(size=(4, 3))
        edges = {}
        for i in range(4):
            for j in range(i + 1, 4):
                d = t[i] - t[j]
                edges[(i, j)] = d / np.linalg.norm(d)
        perp = np.cross(edges[(0, 1)], EZ)
        edges[(0, 1)] = perp / np.linalg.norm(perp)
        g = ViewGraph(4, [(i, j, v) for (i, j), v in edges.items()])
        stats = naive_aab(g, AABConfig(s=50, seed=17))
        row = g.edge_rows_of_pairs(0, 1)
        assert np.all(stats.value[row] > np.delete(stats.value, row))

    def test_path_graph_all_unsupported(self):
        g = ViewGraph(4, [(0, 1, EZ), (1, 2, EZ), (2, 3, EZ)])
        stats = naive_aab(g, AABConfig(s=5, seed=0))
        assert np.array_equal(stats.edge_array, g.edge_array)
        assert np.isnan(stats.value).all()

    def test_values_in_range(self):
        g, _ = generate_uc(UCParams(n=40, p=0.5, q=0.4, sigma=0.1, seed=6))
        stats = naive_aab(g, AABConfig(s=20, seed=7))
        vals = stats.value[~np.isnan(stats.value)]
        assert np.all((vals >= 0) & (vals <= math.pi))

    def test_cost_scaling(self):
        # s draws per supported edge
        g, _ = generate_uc(UCParams(n=30, p=0.6, q=0.3, sigma=0.0, seed=9))
        cfg = AABConfig(s=13, seed=2)
        stats = naive_aab(g, cfg)
        supported = int((~np.isnan(stats.value)).sum())
        assert stats.cache.multiplicity.sum() == cfg.s * supported

    def test_deterministic(self):
        g, _ = generate_uc(UCParams(n=30, p=0.5, q=0.3, sigma=0.05, seed=10))
        cfg = AABConfig(s=15, seed=11)
        a = naive_aab(g, cfg)
        b = naive_aab(g, cfg)
        assert np.array_equal(a.value, b.value, equal_nan=True)

    def test_tuple_views_follow_the_value_array(self):
        g = exact_zero_triangle_plus_noise()
        stats = naive_aab(g, AABConfig(s=6, seed=1))
        assert stats.edges == g.edges()
        assert stats.unsupported == {(0, 2)}
        supported = ~np.isnan(stats.value)
        assert list(stats.values) == [e for e, ok in zip(g.edges(), supported) if ok]
        assert list(stats.values.values()) == stats.value[supported].tolist()


class TestTrianglePicks:
    def test_single_candidate_repeats(self):
        g = ViewGraph(
            3,
            [
                (0, 1, np.array([1.0, 0.0, 0.0])),
                (0, 2, np.array([0.0, 1.0, 0.0])),
                (1, 2, np.array([0.0, 0.0, 1.0])),
            ],
        )
        stats = naive_aab(g, AABConfig(s=50, seed=42))
        row = g.edge_rows_of_pairs(0, 1)
        assert not np.isnan(stats.value[row])
        cache = stats.cache
        mask = cache.edge_rows == row
        assert cache.neighbors[mask].tolist() == [2]
        assert cache.multiplicity[mask].tolist() == [50]

    def test_no_triangles_flagged(self):
        g = ViewGraph(3, [(0, 1, EZ), (1, 2, EZ)])
        stats = naive_aab(g, AABConfig(s=50, seed=42))
        assert np.isnan(stats.value[g.edge_rows_of_pairs(0, 1)])
        assert picks_of(stats, g, (0, 1)).size == 0

    def test_deterministic_in_either_orientation(self, rng):
        t = rng.normal(size=(10, 3))
        edges = [
            (i, j, (t[i] - t[j]) / np.linalg.norm(t[i] - t[j]))
            for i in range(10)
            for j in range(i + 1, 10)
        ]
        g = ViewGraph(10, edges)
        # the same measurement of edge {2, 7} given in the reversed order
        flipped = ViewGraph(
            10, [(j, i, -d) if (i, j) == (2, 7) else (i, j, d) for i, j, d in edges]
        )
        cfg = AABConfig(s=25, seed=9)
        a = picks_of(naive_aab(g, cfg), g, (2, 7))
        b = picks_of(naive_aab(g, cfg), g, (2, 7))
        c = picks_of(naive_aab(flipped, cfg), flipped, (7, 2))
        assert a.size == 25
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_samples_are_common_neighbors(self):
        g, _ = generate_uc(UCParams(n=40, p=0.4, q=0.2, sigma=0.05, seed=3))
        cache = naive_aab(g, AABConfig(s=40, seed=3)).cache
        edges = g.edges()
        for row, k in zip(cache.edge_rows.tolist(), cache.neighbors.tolist()):
            assert k in g.common_neighbors(*edges[row])

    def test_picks_uniform_over_common_neighbors(self, rng):
        # K9: every edge has the 7 other vertices as common neighbours.  Each
        # edge's pick counts give a chi-square statistic with 6 degrees of
        # freedom; over 36 edges x 3000 = 108000 draws the bound is its upper
        # 1e-6 / 36 quantile per edge, and the pooled sum (216 degrees of
        # freedom) stays under its upper 1e-6 quantile.
        g = complete_graph_from_locations(rng.normal(size=(9, 3)))
        s = 3000
        cache = naive_aab(g, AABConfig(s=s, seed=123)).cache
        assert cache.multiplicity.sum() == 36 * s
        total = 0.0
        for row, (i, j) in enumerate(g.edges()):
            mask = cache.edge_rows == row
            picks, mult = cache.neighbors[mask], cache.multiplicity[mask]
            cands = g.common_neighbors(i, j)
            observed = np.array([mult[picks == k].sum() for k in cands])
            assert observed.sum() == s
            stat = float(((observed - s / 7) ** 2 / (s / 7)).sum())
            assert stat < chi2.isf(1e-6 / 36, 6)
            total += stat
        assert total < chi2.isf(1e-6, 36 * 6)

    def test_picks_ignore_edges_elsewhere(self):
        # an edge's picks depend only on the seed, the edge and its common
        # neighbours: dropping an edge {u, v} leaves every edge touching
        # neither u nor v with the same picks
        g, _ = generate_uc(UCParams(n=40, p=0.3, q=0.2, sigma=0.05, seed=8))
        cfg = AABConfig(s=20, seed=8)
        full = naive_aab(g, cfg)
        for drop in (0, g.num_edges // 2, g.num_edges - 1):
            u, v = (int(x) for x in g.edge_array[drop])
            sub = g.subgraph(np.arange(g.num_edges) != drop)
            reduced = naive_aab(sub, cfg)
            for edge in sub.edges():
                if u not in edge and v not in edge:
                    assert np.array_equal(picks_of(reduced, sub, edge), picks_of(full, g, edge))

    def test_agrees_with_pcg64_sampler(self):
        # mean naive statistic over 4 seeds, both samplers on one instance;
        # the difference must lie within 4 standard errors
        g, _ = generate_uc(UCParams(n=60, p=0.5, q=0.2, sigma=0.05, seed=4))
        new_mean = old_mean = new_var = old_var = 0.0
        seeds = range(4)
        for seed in seeds:
            cfg = AABConfig(s=50, seed=seed)
            cache = naive_aab(g, cfg).cache
            rows = np.unique(cache.edge_rows)
            m, v = mean_statistic({r: expanded_inconsistencies(cache, r) for r in rows})
            new_mean += m / len(seeds)
            new_var += v / len(seeds) ** 2
            m, v = mean_statistic(pcg64_inconsistencies(g, cfg))
            old_mean += m / len(seeds)
            old_var += v / len(seeds) ** 2
        assert abs(new_mean - old_mean) <= 4.0 * math.sqrt(new_var + old_var)

    def test_geometry_blocks_do_not_change_values(self, monkeypatch):
        # a block of 7 draws holds one edge's s draws: every edge is sampled
        # and evaluated on its own, and the cache and both statistics stay
        # bit-identical
        uc, _ = generate_uc(UCParams(n=30, p=0.5, q=0.3, sigma=0.05, seed=5))
        cases = [
            (uc, AABConfig(s=10, seed=5)),
            (mostly_degenerate_edge(), AABConfig(s=20, seed=5)),
        ]
        whole = [(naive_aab(g, cfg), ir_aab(g, cfg)) for g, cfg in cases]
        monkeypatch.setattr(aabstats, "_BLOCK_ROWS", 7)
        for (g, cfg), (naive, ir) in zip(cases, whole):
            blocked_naive, blocked_ir = naive_aab(g, cfg), ir_aab(g, cfg)
            for f in fields(TripleCache):
                a = getattr(blocked_naive.cache, f.name)
                assert np.array_equal(a, getattr(naive.cache, f.name))
                assert np.array_equal(getattr(blocked_ir.cache, f.name), a)
            assert np.array_equal(blocked_naive.value, naive.value, equal_nan=True)
            assert np.array_equal(blocked_ir.per_iteration, ir.per_iteration, equal_nan=True)

        cache = whole[0][0].cache
        rows = np.repeat(cache.edge_rows, cache.multiplicity)
        i = uc.edge_array[rows, 0]
        j = uc.edge_array[rows, 1]
        k = np.repeat(cache.neighbors, cache.multiplicity)
        direct = aab_inconsistency_batch(
            uc.directions_of_pairs(i, j), uc.directions_of_pairs(j, k), uc.directions_of_pairs(k, i)
        )
        assert np.array_equal(np.repeat(cache.inconsistencies, cache.multiplicity), direct)


class TestIrAab:
    def test_exact_graph_stays_zero(self):
        g, _ = generate_uc(UCParams(n=30, p=0.6, q=0.0, sigma=0.0, seed=1))
        stats = ir_aab(g, AABConfig(s=10, seed=2))
        assert stats.value.max() <= 1e-12

    def test_all_zero_guard_returns_naive(self):
        # the sampled triangles of this graph evaluate to exactly 0.0, so
        # the rate would divide by zero; the guard returns the plain average
        dirs = {
            (0, 1): np.array([1.0, 0.0, 0.0]),
            (1, 2): np.array([-1.0, 0.0, 0.0]),
            (0, 2): np.array([0.0, -1.0, 0.0]),
        }
        g = ViewGraph(3, [(i, j, v) for (i, j), v in dirs.items()])
        cfg = AABConfig(s=8, seed=3)
        naive = naive_aab(g, cfg)
        ir = ir_aab(g, cfg)
        # rows (0, 1), (0, 2), (1, 2); (0, 2) is left without a triangle
        assert np.array_equal(naive.value, [0.0, np.nan, 0.0], equal_nan=True)
        assert np.array_equal(ir.value, naive.value, equal_nan=True)
        assert np.array_equal(ir.per_iteration, naive.value[None], equal_nan=True)
        assert ir.diagnostics.taus == []

    def test_triangle_free_graph_takes_the_same_exit(self):
        # no cached triangle: the same single-round result as all-zero ones
        g = ViewGraph(4, [(0, 1, EZ), (1, 2, EZ), (2, 3, EZ)])
        ir = ir_aab(g, AABConfig(s=5, seed=0))
        assert np.isnan(ir.value).all()
        assert ir.per_iteration.shape == (1, 3)
        assert np.isnan(ir.per_iteration).all()
        assert ir.diagnostics.taus == []

    def test_uniform_inconsistencies_preserved(self):
        # all cached inconsistencies equal: weights are uniform, so every
        # round reproduces the plain average
        g = exact_zero_triangle_plus_noise()
        cfg = AABConfig(s=6, seed=1)
        ir = ir_aab(g, cfg)
        for e in ((0, 3), (1, 3)):
            # single-triangle edges have constant caches; value never moves
            row = g.edge_rows_of_pairs(*e)
            assert ir.value[row] == pytest.approx(ir.per_iteration[0, row], abs=1e-15)

    def test_iteration_zero_is_naive(self):
        g, _ = generate_uc(UCParams(n=30, p=0.5, q=0.3, sigma=0.05, seed=12))
        cfg = AABConfig(s=10, T=4, seed=13)
        naive = naive_aab(g, cfg)
        ir = ir_aab(g, cfg)
        assert ir.per_iteration.shape == (5, g.num_edges)
        assert np.array_equal(ir.per_iteration[0], naive.value, equal_nan=True)
        assert np.array_equal(ir.per_iteration[-1], ir.value, equal_nan=True)

    def test_values_within_cached_range(self):
        g, _ = generate_uc(UCParams(n=25, p=0.6, q=0.4, sigma=0.05, seed=16))
        ir = ir_aab(g, AABConfig(s=10, T=10, seed=17))
        cache = ir.cache
        for row in range(g.num_edges):
            mask = cache.edge_rows == row
            if not mask.any():
                assert np.isnan(ir.per_iteration[:, row]).all()
                continue
            lo = cache.inconsistencies[mask].min() - 1e-12
            hi = cache.inconsistencies[mask].max() + 1e-12
            assert np.all((lo <= ir.per_iteration[:, row]) & (ir.per_iteration[:, row] <= hi))

    def test_rate_strictly_increases(self):
        g, _ = generate_uc(UCParams(n=30, p=0.5, q=0.4, sigma=0.0, seed=18))
        cfg = AABConfig(s=10, T=10, seed=19)
        ir = ir_aab(g, cfg)
        taus = ir.diagnostics.taus
        assert len(taus) == cfg.T
        assert all(b > a for a, b in zip(taus, taus[1:]))
        # final divisor (M + (T-1) m) / T stays positive
        inc = ir.cache.inconsistencies
        expected_last = math.pi * cfg.T / (inc.max() + (cfg.T - 1) * inc.min())
        assert taus[-1] == pytest.approx(expected_last, rel=1e-12)

    def test_unsupported_neighbor_uses_median(self):
        # edge (0,2) drops out with a degenerate base yet appears as a
        # neighbor edge of (0,1); the reweighting must still run
        g = exact_zero_triangle_plus_noise()
        ir = ir_aab(g, AABConfig(s=10, seed=0))
        assert np.isnan(ir.value[g.edge_rows_of_pairs(0, 2)])
        assert len(ir.diagnostics.taus) == 10
        # the clean triangle dominates once the noisy one is down-weighted
        assert ir.value[g.edge_rows_of_pairs(0, 1)] <= 1e-3

    def test_reweighting_recovers_clean_edge(self):
        # a clean edge polluted by one corrupted triangle drops to zero once
        # the corrupted neighbors are down-weighted
        g = exact_zero_triangle_plus_noise()
        cfg = AABConfig(s=10, seed=0)
        naive = naive_aab(g, cfg)
        ir = ir_aab(g, cfg)
        assert naive.value[g.edge_rows_of_pairs(0, 1)] > 0.1
        assert ir.value[g.edge_rows_of_pairs(0, 1)] <= 1e-3

    def test_deterministic(self):
        g, _ = generate_uc(UCParams(n=30, p=0.5, q=0.3, sigma=0.05, seed=20))
        cfg = AABConfig(seed=21)
        a = ir_aab(g, cfg)
        b = ir_aab(g, cfg)
        assert np.array_equal(a.value, b.value, equal_nan=True)
        assert np.array_equal(a.per_iteration, b.per_iteration, equal_nan=True)

    def test_long_schedule_keeps_every_supported_edge(self):
        # the last rate is about pi * T / (M + (T - 1) m): at T = 3000 every
        # raw weight exp(-tau * worst) of some edges underflows to zero, and
        # without a per-edge shift of the exponent 87 of the 364 supported
        # edges came out NaN
        g, _ = generate_uc(UCParams(n=40, p=0.5, q=0.4, sigma=0.05, seed=1))
        ir = ir_aab(g, AABConfig(s=20, T=3000, seed=1))
        cache = ir.cache
        supported = ~np.isnan(ir.per_iteration[0])
        assert not np.isnan(ir.per_iteration[:, supported]).any()
        lo = np.full(g.num_edges, np.inf)
        hi = np.full(g.num_edges, -np.inf)
        np.minimum.at(lo, cache.edge_rows, cache.inconsistencies)
        np.maximum.at(hi, cache.edge_rows, cache.inconsistencies)
        vals = ir.per_iteration[:, supported]
        assert np.all((lo[supported] - 1e-12 <= vals) & (vals <= hi[supported] + 1e-12))

    @pytest.mark.parametrize("name", ["uc-dense", "uc-sparse", "mostly-degenerate-s20-0"])
    def test_per_row_weights_agree_with_per_edge_ones(self, name, monkeypatch):
        # a bound of 0 sends every round through the per-row shifted form;
        # the two forms differ in the order of rounding only
        g, cfg = oracle_case(name)
        fast = ir_aab(g, cfg).per_iteration
        monkeypatch.setattr(aabstats, "_MAX_EXPONENT_SPREAD", 0.0)
        slow = ir_aab(g, cfg).per_iteration
        assert np.array_equal(np.isnan(slow), np.isnan(fast))
        ok = ~np.isnan(fast)
        assert np.all(np.abs(slow[ok] - fast[ok]) <= 1e-13 * np.abs(fast[ok]))

    @pytest.mark.parametrize("name", ["uc-dense", "uc-sparse"])
    def test_ordinary_schedules_take_one_exponential_per_edge(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-row weights at T = 10")

        monkeypatch.setattr(aabstats, "_shifted_row_weights", refuse)
        g, cfg = oracle_case(name)
        assert cfg.T == 10
        assert len(ir_aab(g, cfg).diagnostics.taus) == 10


class TestRotationInvariance:
    @pytest.mark.parametrize("stat", [naive_aab, ir_aab], ids=["naive", "ir"])
    def test_global_rotation_leaves_statistics_unchanged(self, stat):
        """Rotating every direction by one rotation keeps every triangle's
        geometry, and the picks depend on the edges only, so the statistics
        agree up to rounding, with the same unsupported edges.

        On UC n=60, p=0.5, q=0.3, sigma=0.05, s=20, T=10, seeds 0-39, one
        rotation per seed, the largest difference measured was 2.5e-13 for
        the naive statistic and 1.3e-12 for the reweighted one; the
        reweighting rounds feed each round's rounding into the next
        round's weights.  The bounds leave 40x and 75x of room.
        """
        bound = 1e-11 if stat is naive_aab else 1e-10
        for seed in range(40):
            g, _ = generate_uc(UCParams(n=60, p=0.5, q=0.3, sigma=0.05, seed=seed))
            r = random_rotation(np.random.default_rng(seed))
            i, j = g.edge_array.T
            rotated = ViewGraph.from_arrays(g.n, i, j, g.direction_array @ r.T)
            cfg = AABConfig(s=20, T=10, seed=seed)
            a, b = stat(g, cfg).value, stat(rotated, cfg).value
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.nanmax(np.abs(a - b)) <= bound


def oracle_case(name: str) -> tuple[ViewGraph, AABConfig]:
    if name == "uc-dense":
        g, _ = generate_uc(UCParams(n=40, p=0.5, q=0.3, sigma=0.05, seed=1))
        return g, AABConfig(s=30, seed=1)
    if name == "uc-sparse":
        # about 2 common neighbours per edge: most draws repeat a triangle
        g, _ = generate_uc(UCParams(n=80, p=0.15, q=0.2, sigma=0.05, seed=2))
        return g, AABConfig(seed=2)
    if name == "exact-zero":
        # edge (0, 2) has one common neighbour, through a degenerate base,
        # so it gets no draws
        return exact_zero_triangle_plus_noise(), AABConfig(s=10, seed=0)
    if name == "k9":
        points = np.random.default_rng(20240601).normal(size=(9, 3))
        return complete_graph_from_locations(points), AABConfig(s=3000, seed=123)
    s, seed = (int(x) for x in name.removeprefix("mostly-degenerate-s").split("-"))
    return mostly_degenerate_edge(), AABConfig(s=s, seed=seed)


MOSTLY_DEGENERATE = [f"mostly-degenerate-s{s}-{seed}" for s in (2, 20) for seed in range(4)]
ORACLE_CASES = ["uc-dense", "uc-sparse", "exact-zero", "k9", *MOSTLY_DEGENERATE]


def assert_expanded_cache_is(cache: TripleCache, ref: TripleCache, g: ViewGraph) -> None:
    """``cache``, each row repeated by its multiplicity, is the per-draw
    cache ``ref`` up to row order."""
    assert np.all(cache.multiplicity >= 1)
    # one row per distinct (edge, k), ordered by edge and then k
    key = cache.edge_rows * g.n + cache.neighbors
    assert np.all(np.diff(key) > 0)
    order = np.lexsort((ref.neighbors, ref.edge_rows))
    for f in ("edge_rows", "neighbors", "rows_jk", "rows_ki", "inconsistencies"):
        expanded = np.repeat(getattr(cache, f), cache.multiplicity)
        assert np.array_equal(expanded, getattr(ref, f)[order])


def assert_statistics_match(naive, ir, expected: np.ndarray) -> None:
    """The naive and reweighted statistics equal the per-draw rounds
    ``expected`` up to the order of floating-point sums."""
    for got, want in ((naive.value, expected[0]), (ir.per_iteration, expected)):
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.all(np.abs(got[ok] - want[ok]) <= 1e-13 * np.abs(want[ok]))


class TestPerDrawOracle:
    """The distinct-triangle cache against the per-draw sampler it replaced
    (``per_draw_cache``): the same multiset of draws, and the same
    statistics up to the order of floating-point sums."""

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_expanded_cache_is_the_per_draw_cache(self, name):
        g, cfg = oracle_case(name)
        assert_expanded_cache_is(naive_aab(g, cfg).cache, per_draw_cache.build_cache(g, cfg), g)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_statistics_match_per_draw_statistics(self, name):
        g, cfg = oracle_case(name)
        expected = per_draw_cache.ir_per_iteration(
            per_draw_cache.build_cache(g, cfg), g.num_edges, cfg.T
        )
        assert_statistics_match(naive_aab(g, cfg), ir_aab(g, cfg), expected)

    def test_draws_skip_degenerate_triangles(self):
        # every draw of edge {0, 1} lands on its one usable triangle, and
        # every supported edge keeps all s draws
        for name in MOSTLY_DEGENERATE:
            g, cfg = oracle_case(name)
            stats = naive_aab(g, cfg)
            assert picks_of(stats, g, (0, 1)).tolist() == [6] * cfg.s
            cache = stats.cache
            supported = np.flatnonzero(~np.isnan(stats.value))
            assert np.unique(cache.edge_rows).tolist() == supported.tolist()
            per_edge = np.bincount(cache.edge_rows, weights=cache.multiplicity)
            assert per_edge[supported].tolist() == [cfg.s] * supported.size


class TestExactStatistic:
    def test_sampled_mean_approaches_the_all_neighbour_statistic(self):
        """Averaged over seeds, the sampled naive statistic of each edge is
        the mean of N = s * seeds independent uniform draws from the edge's
        triangles (no triangle of this instance is degenerate, so none is
        left out), whose exact mean and central moments come from the
        all-neighbour cache.  With Y_e the standardized error of edge e,
        E[Y_e^2] = 1 and Var[Y_e^2] = 2 + (kurtosis_e - 3) / N exactly, so
        the sum of Y_e^2 over the edges must lie within 5 of its standard
        deviations of the edge count (normal approximation over edges)."""
        g, _ = generate_uc(UCParams(n=60, p=0.5, q=0.2, sigma=0.05, seed=4))
        exact = per_draw_cache.all_neighbor_cache(g)
        assert exact.edge_rows.size == g.common_neighbor_csr[1].size
        m = g.num_edges
        rows, inc = exact.edge_rows, exact.inconsistencies
        count = np.bincount(rows, minlength=m)
        mu = per_draw_cache.segment_mean(exact, m)
        dev = inc - mu[rows]
        var = np.bincount(rows, weights=dev**2, minlength=m) / np.maximum(count, 1)
        mu4 = np.bincount(rows, weights=dev**4, minlength=m) / np.maximum(count, 1)

        s, seeds = 50, range(8)
        n_draws = s * len(seeds)
        runs = [naive_aab(g, AABConfig(s=s, seed=seed)).value for seed in seeds]
        sampled = np.mean(runs, axis=0)
        assert np.array_equal(np.isnan(sampled), count == 0)

        flat = (count > 0) & (var <= 1e-24)
        assert np.abs(sampled[flat] - mu[flat]).max(initial=0.0) <= 1e-12
        spread = (count > 0) & ~flat
        y2 = (sampled[spread] - mu[spread]) ** 2 / (var[spread] / n_draws)
        var_y2 = 2.0 + (mu4[spread] / var[spread] ** 2 - 3.0) / n_draws
        assert abs(y2.sum() - y2.size) <= 5.0 * math.sqrt(var_y2.sum())


class TestMemory:
    def test_naive_peak_stays_below_8_bytes_per_draw(self):
        # 1.75M draws: sampled in blocks, no array holds one entry per draw
        # of the whole run, so the peak stays below one int64 per draw
        g, _ = generate_uc(UCParams(n=60, p=0.5, q=0.2, sigma=0.05, seed=3))
        cfg = AABConfig(s=2000)
        g.common_neighbor_csr
        tracemalloc.start()
        try:
            stats = naive_aab(g, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        draws = cfg.s * int((~np.isnan(stats.value)).sum())
        assert peak < 8 * draws

    @pytest.mark.parametrize("s", [1, 5])
    def test_few_draws_keep_blocks_small(self, s):
        """At small s a block of _BLOCK_ROWS draws would span many more
        common neighbours, each tested for degeneracy; blocks are cut by
        the larger count, so the peak stays at the cache plus about 67
        bytes per block entry (measured at both s)."""
        g, _ = generate_uc(UCParams(n=200, p=0.5, q=0.2, sigma=0.05, seed=7))
        g.common_neighbor_csr
        tracemalloc.start()
        try:
            stats = naive_aab(g, AABConfig(s=s, seed=7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.common_neighbor_csr[1].size > 4 * aabstats._BLOCK_ROWS
        assert peak < 28 * stats.cache.edge_rows.size + 96 * aabstats._BLOCK_ROWS

    def test_csr_build_peak_is_the_result_plus_one_block(self):
        """Building the common-neighbour lists holds at most one block of
        walked wedges at a time, each below 64 bytes, next to the finished
        lists (16.4 of 23.7 MiB measured here, 7.7 MiB of them the lists)."""
        g, _ = generate_uc(UCParams(n=200, p=0.5, q=0.2, sigma=0.05, seed=7))
        tracemalloc.start()
        try:
            csr = g.common_neighbor_csr
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # more common neighbours than one block walks: several blocks ran
        assert csr[1].size > graph_module._WEDGE_BLOCK
        assert peak < sum(a.nbytes for a in csr) + 64 * graph_module._WEDGE_BLOCK

    def test_ir_peak_per_cache_row(self):
        """The cache takes 28 bytes a row, and each reweighting round runs
        in two float buffers plus one transient int64 copy of an index
        field: with the per-edge arrays, 8 (T + 12) bytes an edge, the peak
        stays below 64 bytes a row (50 measured on this instance)."""
        g, _ = generate_uc(UCParams(n=300, p=0.3, q=0.2, sigma=0.05, seed=3))
        cfg = AABConfig(s=50, T=10, seed=3)
        g.common_neighbor_csr
        tracemalloc.start()
        try:
            stats = ir_aab(g, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = stats.cache.edge_rows.size
        assert rows > 200_000
        assert peak < 64 * rows + 8 * (cfg.T + 12) * g.num_edges


class TestCacheDtype:
    # edge_rows, neighbors, rows_jk, rows_ki, inconsistencies, multiplicity
    DTYPES = [np.int32] * 4 + [np.float64, np.int32]

    def test_integer_fields_are_int32(self):
        g, _ = generate_uc(UCParams(n=40, p=0.5, q=0.3, sigma=0.05, seed=1))
        cache = ir_aab(g, AABConfig(s=30, seed=1)).cache
        assert cache.edge_rows.size > 0
        assert [getattr(cache, f.name).dtype for f in fields(cache)] == self.DTYPES

    def test_no_supported_edge(self):
        g = ViewGraph(3, [(0, 1, EZ), (1, 2, EZ)])
        cache = ir_aab(g, AABConfig()).cache
        assert [getattr(cache, f.name).dtype for f in fields(cache)] == self.DTYPES
        assert all(getattr(cache, f.name).size == 0 for f in fields(cache))


def test_scalar_inconsistency_equals_cache_row():
    # the scalar API is one row of the batch form after validation, which
    # keeps a graph's stored directions as they are
    g, _ = generate_uc(UCParams(n=40, p=0.5, q=0.3, sigma=0.05, seed=3))
    cache = ir_aab(g, AABConfig(s=20, seed=3)).cache
    i, j = g.edge_array[cache.edge_rows].T
    k = cache.neighbors
    g1 = g.directions_of_rows(cache.rows_jk, j, k)
    g2 = g.directions_of_rows(cache.rows_ki, k, i)
    g3 = g.direction_array[cache.edge_rows]
    assert cache.inconsistencies.size > 1000
    assert [aab_inconsistency(*row) for row in zip(g3, g1, g2)] == cache.inconsistencies.tolist()


def digest(a, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()[:16]


# sha256 prefixes of every cache field (as int64 or float64) and of both
# statistics, recorded before the cache fields were narrowed and the rounds
# moved into reused buffers (numpy 2.4, x86-64): the values are the same to
# the bit.  ir_per_iteration was recorded again once a round took one
# exponential per edge and divided per edge, which moves the reweighted
# values by at most 2e-14 relative.  The float digests rest on numpy's exp,
# arctan2 and arcsine rounding the same way, which a different CPU or numpy
# build need not do.
GOLDEN = {
    "uc-dense": dict(
        rows=2894,
        edge_rows="438ac17b38eecd26",
        neighbors="304697ef00225764",
        rows_jk="8ba3e6c8955828e0",
        rows_ki="eb19a743ccb82065",
        multiplicity="69803dd1176840a1",
        inconsistencies="4de12aaeca4435cc",
        naive="2d2210982691f8ca",
        ir_per_iteration="fdb6ec01afab1c35",
        taus="d73b8afc7e6ad566",
    ),
    # 94 of its 451 edges are unsupported: the median fallback runs
    "uc-sparse": dict(
        rows=726,
        edge_rows="127bba812455964a",
        neighbors="77c3627a6ed03e52",
        rows_jk="3b7d9cc431afc224",
        rows_ki="62712f6439c8415e",
        multiplicity="c233994c04b094a4",
        inconsistencies="2127f68f98e06cb1",
        naive="5f24080450e23b8e",
        ir_per_iteration="efdcac5d46d23e5a",
        taus="2b00acf78375d246",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_statistics_and_cache(name):
    g, cfg = oracle_case(name)
    naive = naive_aab(g, cfg)
    ir = ir_aab(g, cfg)
    cache = ir.cache
    got = {"rows": int(cache.edge_rows.size)}
    for f in ("edge_rows", "neighbors", "rows_jk", "rows_ki", "multiplicity"):
        got[f] = digest(getattr(cache, f), np.int64)
    got["inconsistencies"] = digest(cache.inconsistencies, np.float64)
    got["naive"] = digest(naive.value, np.float64)
    got["ir_per_iteration"] = digest(ir.per_iteration, np.float64)
    got["taus"] = digest(np.array(ir.diagnostics.taus), np.float64)
    assert got == GOLDEN[name]
    for f in fields(cache):
        assert np.array_equal(getattr(naive.cache, f.name), getattr(cache, f.name))


@pytest.mark.parametrize("name", [*GOLDEN, "mostly-degenerate-s20-0"])
def test_sampling_looks_no_pair_up(name, monkeypatch):
    """Sampling reads both side-edge rows of a triangle from the
    common-neighbour CSR; the per-draw oracle, built first, looks them up
    on its own."""
    g, cfg = oracle_case(name)
    ref = per_draw_cache.build_cache(g, cfg)
    expected = per_draw_cache.ir_per_iteration(ref, g.num_edges, cfg.T)

    def refuse(self, a, b):
        raise AssertionError("pair lookup while sampling")

    monkeypatch.setattr(ViewGraph, "edge_rows_of_pairs", refuse)
    g, cfg = oracle_case(name)
    naive, ir = naive_aab(g, cfg), ir_aab(g, cfg)
    assert_expanded_cache_is(ir.cache, ref, g)
    assert_statistics_match(naive, ir, expected)
    if name in GOLDEN:
        test_golden_statistics_and_cache(name)
