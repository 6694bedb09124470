"""Tests of the uniform corruption generator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aabscreen import synthetic
from aabscreen.sphere import great_circle_distance_batch
from aabscreen.streams import TAG_LOCATIONS, derive_rng
from aabscreen.synthetic import UCParams, generate_uc


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=1, p=0.5, q=0.1, sigma=0.0, seed=0),
            dict(n=5, p=1.5, q=0.1, sigma=0.0, seed=0),
            dict(n=5, p=0.5, q=-0.1, sigma=0.0, seed=0),
            dict(n=5, p=0.5, q=0.1, sigma=-1.0, seed=0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            UCParams(**kw)


class TestGenerate:
    def test_clean_model_is_exact(self):
        g, gt = generate_uc(UCParams(n=30, p=0.6, q=0.0, sigma=0.0, seed=4))
        assert not gt.corrupted_flags.any()
        assert np.array_equal(gt.edge_array, g.edge_array)
        assert np.array_equal(g.direction_array, gt.clean_directions)

    def test_full_corruption(self):
        g, gt = generate_uc(UCParams(n=30, p=0.6, q=1.0, sigma=0.0, seed=4))
        assert gt.corrupted_flags.shape == (g.num_edges,)
        assert gt.corrupted_flags.all()

    def test_edge_count_concentration(self):
        # |E| ~ Binomial(n(n-1)/2, p): stay within 4 standard deviations
        g, _ = generate_uc(UCParams(n=200, p=0.5, q=0.0, sigma=0.0, seed=8))
        pairs = 200 * 199 // 2
        mean = pairs * 0.5
        std = math.sqrt(pairs * 0.25)
        assert abs(g.num_edges - mean) < 4.0 * std

    def test_corrupted_fraction(self):
        total = 0
        bad = 0
        for seed in range(20):
            _, gt = generate_uc(UCParams(n=200, p=0.5, q=0.2, sigma=0.0, seed=seed))
            total += gt.corrupted_flags.size
            bad += int(gt.corrupted_flags.sum())
        assert abs(bad / total - 0.2) <= 0.02

    def test_clean_directions_match_locations(self):
        g, gt = generate_uc(UCParams(n=20, p=0.7, q=0.3, sigma=0.1, seed=5))
        assert np.array_equal(gt.edge_array, g.edge_array)
        assert np.array_equal(gt.locations.vertices, np.arange(20))
        for (i, j), d in zip(g.edges(), gt.clean_directions):
            diff = gt.locations.coords[i] - gt.locations.coords[j]
            expected = diff / np.linalg.norm(diff)
            assert np.abs(d - expected).max() <= 1e-12

    def test_noise_angle_grows_with_sigma(self):
        def mean_clean_angle(sigma):
            g, gt = generate_uc(UCParams(n=60, p=0.8, q=0.0, sigma=sigma, seed=12))
            return great_circle_distance_batch(g.direction_array, gt.clean_directions).mean()

        assert mean_clean_angle(0.1) > mean_clean_angle(0.05)

    def test_noise_bounded_by_arcsin_sigma(self):
        sigma = 0.3
        g, gt = generate_uc(UCParams(n=60, p=0.8, q=0.0, sigma=sigma, seed=13))
        angles = great_circle_distance_batch(g.direction_array, gt.clean_directions)
        assert angles.max() <= math.asin(sigma) + 1e-12

    def test_deterministic(self):
        params = UCParams(n=40, p=0.5, q=0.3, sigma=0.05, seed=99)
        g1, gt1 = generate_uc(params)
        g2, gt2 = generate_uc(params)
        assert g1.edges() == g2.edges()
        assert np.array_equal(g1.direction_array, g2.direction_array)
        assert np.array_equal(gt1.corrupted_flags, gt2.corrupted_flags)

    def test_edge_probability_does_not_reshuffle(self):
        # an edge present under both p gets the same direction and flag
        sparse, gt_s = generate_uc(UCParams(n=40, p=0.3, q=0.3, sigma=0.05, seed=21))
        dense, gt_d = generate_uc(UCParams(n=40, p=0.7, q=0.3, sigma=0.05, seed=21))
        shared = set(sparse.edges()) & set(dense.edges())
        assert shared == set(sparse.edges())  # u < 0.3 implies u < 0.7
        i, j = sparse.edge_array.T
        rows = dense.edge_rows_of_pairs(i, j)
        assert np.array_equal(sparse.direction_array, dense.direction_array[rows])
        assert np.array_equal(gt_s.corrupted_flags, gt_d.corrupted_flags[rows])

    def test_corrupted_directions_uniform_on_sphere(self):
        # Archimedes: the z-component of a uniform point on S2 is U[-1, 1].
        # KS statistic over ~2e4 corrupted edges; bound: the asymptotic upper
        # 1e-4 quantile sqrt(ln(2 / 1e-4) / (2N)).
        g, gt = generate_uc(UCParams(n=200, p=1.0, q=1.0, sigma=0.05, seed=31))
        assert gt.corrupted_flags.all()
        z = np.sort(g.direction_array[:, 2])
        size = z.size
        cdf = (z + 1.0) / 2.0
        ks = max((np.arange(1, size + 1) / size - cdf).max(), (cdf - np.arange(size) / size).max())
        assert ks < math.sqrt(math.log(2.0 / 1e-4) / (2.0 * size))


class TestLocations:
    def test_first_draw_kept(self):
        params = UCParams(n=150, p=0.1, q=0.2, sigma=0.05, seed=17)
        expected = derive_rng(17, TAG_LOCATIONS).normal(size=(150, 3))
        assert np.array_equal(synthetic._draw_locations(params), expected)

    @staticmethod
    def brute_force_coincident(t):
        """Whether two rows lie closer than the tolerance, over all pairs."""
        dist = np.linalg.norm(t[:, None, :] - t[None, :, :], axis=2)
        dist[np.diag_indices(len(t))] = np.inf
        return bool(dist.min() < synthetic._COINCIDENT_TOL)

    def test_coincident_rows_as_brute_force(self):
        found = []
        for trial in range(300):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 60))
            t = rng.normal(size=(n, 3))
            a, b = rng.choice(n, size=2, replace=False)
            plant = trial % 5
            if plant == 1:  # an exact duplicate
                t[b] = t[a]
            elif plant == 2:  # equal x, far apart
                t[b, 0] = t[a, 0]
            elif plant == 3:  # a near pair, about 3e-13 apart
                t[b] = t[a] + 3e-13 * rng.normal(size=3) / math.sqrt(3.0)
            elif plant == 4:  # every x equal, one pair near or not
                t[:, 0] = t[0, 0]
                t[b, 1:] = t[a, 1:] + rng.choice([0.0, 1e-13, 1e-11], size=2)
            found.append(synthetic._has_coincident_rows(t))
            assert found[-1] == self.brute_force_coincident(t), trial
        # both decisions occur, and every planted duplicate is found
        assert all(found[1::5]) and not any(found[0::5]) and not all(found)

    def test_redraws_coincident_rows(self, monkeypatch):
        params = UCParams(n=150, p=0.1, q=0.2, sigma=0.05, seed=17)
        rng = derive_rng(17, TAG_LOCATIONS)
        first = rng.normal(size=(150, 3))
        calls = []
        monkeypatch.setattr(
            synthetic, "_has_coincident_rows", lambda t: calls.append(t) or len(calls) == 1
        )
        t = synthetic._draw_locations(params)
        assert len(calls) == 2 and np.array_equal(calls[0], first)
        assert np.array_equal(t, rng.normal(size=(150, 3)))
