"""Tests of labeling, ROC/AUC, histograms, and error summaries."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aabscreen.aabstats import EdgeStatistics
from aabscreen.evaluation import (
    expectation_gap,
    histogram,
    improvement,
    label_edges,
    location_errors,
    roc_auc,
)
from aabscreen.graph import Locations, ViewGraph
from aabscreen.solvers import align_similarity
from aabscreen.synthetic import GroundTruth, UCParams, generate_uc

from conftest import labels_of, stats_of, unit


def two_vertex_instance(measured, clean):
    g = ViewGraph(2, [(0, 1, measured)])
    gt = GroundTruth(
        locations=Locations(np.arange(2), np.array([np.zeros(3), np.ones(3)])),
        edge_array=g.edge_array,
        clean_directions=np.asarray([clean], dtype=float),
        corrupted_flags=np.array([False]),
    )
    return g, gt


class TestLabelEdges:
    def test_exact_direction_is_clean(self):
        g, gt = two_vertex_instance(unit([1, 0, 0]), unit([1, 0, 0]))
        labels = label_edges(g, gt, sigma=0.0)
        assert labels.corrupted.tolist() == [False]
        assert labels.angle.tolist() == [0.0]

    def test_right_angle_is_corrupted(self):
        g, gt = two_vertex_instance(unit([0, 1, 0]), unit([1, 0, 0]))
        labels = label_edges(g, gt, sigma=0.0)
        assert labels.corrupted.tolist() == [True]

    def test_strict_inequality_at_threshold(self):
        # angles just under/over arcsin(sigma) flip the label; the rule is
        # strict, so the boundary itself counts as clean
        theta = 0.5
        measured = np.array([math.cos(theta), math.sin(theta), 0.0])
        g, gt = two_vertex_instance(measured, unit([1, 0, 0]))
        a = float(label_edges(g, gt, sigma=0.0).angle[0])
        assert label_edges(g, gt, sigma=math.sin(a + 1e-9)).corrupted.tolist() == [False]
        assert label_edges(g, gt, sigma=math.sin(a - 1e-9)).corrupted.tolist() == [True]

    def test_numerical_zero_floor(self):
        measured = unit([1.0, 5e-10, 0.0])
        g, gt = two_vertex_instance(measured, unit([1, 0, 0]))
        labels = label_edges(g, gt, sigma=0.0)
        assert labels.corrupted.tolist() == [False]

    def test_generator_flags_carried(self):
        g, gt = generate_uc(UCParams(n=20, p=0.7, q=0.4, sigma=0.0, seed=2))
        labels = label_edges(g, gt, sigma=0.0)
        assert np.array_equal(labels.edge_array, g.edge_array)
        assert np.array_equal(gt.edge_array, g.edge_array)
        # at sigma = 0 the angle rule reproduces the generator flags a.s.
        assert np.array_equal(labels.corrupted, gt.corrupted_flags)

    def test_subgraph_labels_are_rows_of_full_labels(self):
        g, gt = generate_uc(UCParams(n=20, p=0.7, q=0.4, sigma=0.05, seed=3))
        keep = np.arange(g.num_edges) % 3 != 1
        full = label_edges(g, gt, sigma=0.05)
        sub = label_edges(g.subgraph(keep), gt, sigma=0.05)
        assert np.array_equal(sub.edge_array, g.edge_array[keep])
        assert np.array_equal(sub.angle, full.angle[keep])
        assert np.array_equal(sub.corrupted, full.corrupted[keep])

    def test_edge_outside_ground_truth_is_error(self):
        g, gt = two_vertex_instance(unit([1, 0, 0]), unit([1, 0, 0]))
        other = ViewGraph(3, [(1, 2, unit([1, 0, 0]))])
        with pytest.raises(ValueError, match=r"ground truth does not cover edge \(1, 2\)"):
            label_edges(other, gt, sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, -0.1, math.inf])
    def test_rejects_sigma_outside_finite_nonnegative(self, sigma):
        g, gt = two_vertex_instance([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=rf"^sigma must be finite and >= 0, got {sigma!r}$"):
            label_edges(g, gt, sigma)


class TestRoc:
    def test_perfect_separation(self):
        values = {(0, k): 1.0 for k in range(1, 6)}
        values.update({(1, k): 0.0 for k in range(2, 7)})
        corrupted = {e: v == 1.0 for e, v in values.items()}
        roc = roc_auc(stats_of(values), labels_of(corrupted))
        assert roc.auc == pytest.approx(1.0, abs=1e-12)

    def test_uninformative_constant_statistic(self):
        values = {(0, 1): 0.3, (0, 2): 0.3, (1, 2): 0.3}
        corrupted = {(0, 1): True, (0, 2): False, (1, 2): False}
        roc = roc_auc(stats_of(values), labels_of(corrupted))
        assert roc.auc == 0.5

    def test_single_class_has_no_auc(self):
        values = {(0, 1): 0.3, (0, 2): 0.6}
        roc = roc_auc(stats_of(values), labels_of({(0, 1): True, (0, 2): True}))
        assert roc.auc is None

    def test_monotone_points(self, rng):
        values = {(0, k): float(v) for k, v in enumerate(rng.random(200), start=1)}
        corrupted = {e: bool(rng.random() < 0.4) for e in values}
        roc = roc_auc(stats_of(values), labels_of(corrupted))
        assert roc.thresholds.size == 1000
        assert np.all(np.diff(roc.fpr) >= 0)
        assert np.all(np.diff(roc.tpr) >= 0)

    def test_auc_is_trapezoid_of_points(self, rng):
        values = {(0, k): float(v) for k, v in enumerate(rng.random(300), start=1)}
        corrupted = {e: bool(rng.random() < 0.3) for e in values}
        roc = roc_auc(stats_of(values), labels_of(corrupted))
        assert roc.auc == pytest.approx(float(np.trapezoid(roc.tpr, roc.fpr)), abs=1e-12)

    def test_affine_transform_invariance(self, rng):
        values = {(0, k): float(v) for k, v in enumerate(rng.random(500), start=1)}
        corrupted = {e: bool(rng.random() < 0.35) for e in values}
        base = roc_auc(stats_of(values), labels_of(corrupted)).auc
        scaled = {e: 2.0 * v + 1.0 for e, v in values.items()}
        assert roc_auc(stats_of(scaled), labels_of(corrupted)).auc == pytest.approx(
            base, abs=1e-12
        )

    def test_monotone_transform_invariance(self, rng):
        # statistic values on a coarse lattice: the threshold grid separates
        # every distinct value before and after the transform
        lattice = rng.integers(0, 21, size=120) / 20.0
        values = {(0, k): float(v) for k, v in enumerate(lattice, start=1)}
        corrupted = {e: bool(rng.random() < 0.4) for e in values}
        base = roc_auc(stats_of(values), labels_of(corrupted)).auc
        for transform in (np.arctan, lambda x: x**3 + x, np.exp):
            mapped = {e: float(transform(v)) for e, v in values.items()}
            got = roc_auc(stats_of(mapped), labels_of(corrupted)).auc
            assert got == pytest.approx(base, abs=1e-12)

    def test_flipped_labels_complement_auc(self, rng):
        values = {(0, k): float(v) for k, v in enumerate(rng.random(400), start=1)}
        corrupted = {e: bool(rng.random() < 0.45) for e in values}
        flipped = {e: not c for e, c in corrupted.items()}
        a = roc_auc(stats_of(values), labels_of(corrupted)).auc
        b = roc_auc(stats_of(values), labels_of(flipped)).auc
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_missing_label_is_error(self):
        values = {(0, 1): 0.3, (0, 2): 0.6, (0, 3): 0.1}
        with pytest.raises(ValueError, match=r"labels missing edge \(0, 2\)"):
            roc_auc(stats_of(values), labels_of({(0, 1): True}))

    def test_unsupported_edges_need_no_label(self):
        stats = stats_of({(0, 1): 0.2, (0, 3): 0.8}, unsupported={(0, 2)})
        roc = roc_auc(stats, labels_of({(0, 1): False, (0, 3): True, (1, 2): True}))
        assert roc.auc == pytest.approx(1.0, abs=1e-12)


class TestHistogram:
    def test_one_edge_per_class(self):
        values = {(0, 1): 0.2, (0, 2): 0.8}
        corrupted = {(0, 1): False, (0, 2): True}
        h = histogram(stats_of(values), labels_of(corrupted), bins=1)
        assert h.corrupted.tolist() == [1]
        assert h.uncorrupted.tolist() == [1]

    def test_constant_values_fall_in_first_bin(self):
        values = {(0, k): 0.0 for k in range(1, 6)}
        corrupted = {e: False for e in values}
        h = histogram(stats_of(values), labels_of(corrupted), bins=10)
        assert h.uncorrupted[0] == 5
        assert h.uncorrupted[1:].sum() == 0

    def test_counts_partition_supported_edges(self, rng):
        values = {(0, k): float(v) for k, v in enumerate(rng.random(137), start=1)}
        corrupted = {e: bool(rng.random() < 0.5) for e in values}
        h = histogram(stats_of(values), labels_of(corrupted), bins=7)
        assert h.corrupted.sum() + h.uncorrupted.sum() == 137

    def test_validation(self):
        values = {(0, 1): 0.2}
        with pytest.raises(ValueError):
            histogram(stats_of(values), labels_of({(0, 1): True}), bins=0)

    @pytest.mark.parametrize("bins", [2.5, 3.0])
    def test_bins_must_be_an_integer(self, bins):
        stats, labels = stats_of({(0, 1): 0.2}), labels_of({(0, 1): True})
        with pytest.raises(ValueError, match=f"^bins must be an integer, got {bins!r}$"):
            histogram(stats, labels, bins=bins)
        assert histogram(stats, labels, bins=np.int64(3)).corrupted.tolist() == [1, 0, 0]

    def test_all_unsupported_is_error(self):
        stats = stats_of({}, unsupported={(0, 1), (0, 2)})
        with pytest.raises(ValueError, match="no edge has a supported statistic"):
            histogram(stats, labels_of({(0, 1): True, (0, 2): False}), bins=5)


def locations(mapping) -> Locations:
    """Locations from a map of vertex to point."""
    verts = sorted(mapping)
    return Locations(np.array(verts, dtype=np.int64), np.array([mapping[v] for v in verts], float))


def dict_location_errors(aligned, gt_locations):
    """``location_errors`` as written for vertex-keyed dicts."""
    common = sorted(set(aligned) & set(gt_locations))
    if not common:
        raise ValueError("no common vertices between estimate and reference")
    d = np.array([np.linalg.norm(aligned[v] - gt_locations[v]) for v in common])
    return float(d.mean()), float(np.median(d))


def dict_align_similarity(locs, gt_locations):
    """``align_similarity`` as written for vertex-keyed dicts."""
    verts = sorted(locs)
    if not verts:
        raise ValueError("empty estimate")
    missing = [v for v in verts if v not in gt_locations]
    if missing:
        raise ValueError(f"vertices {missing[:5]} have no reference location")
    x = np.array([locs[v] for v in verts], dtype=np.float64)
    y = np.array([gt_locations[v] for v in verts], dtype=np.float64)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    s = float(np.sum(xc * yc)) / float(np.sum(xc * xc))
    b = y.mean(axis=0) - s * x.mean(axis=0)
    return s, b, {v: s * locs[v] + b for v in verts}


def random_points(rng, verts) -> dict:
    return {int(v): rng.normal(size=3) * 10.0 ** rng.integers(-3, 4) for v in verts}


class TestLocationErrors:
    def test_identity(self):
        pts = locations({v: np.array([v, 0.0, 0.0]) for v in range(4)})
        assert location_errors(pts, pts) == (0.0, 0.0)

    def test_two_vertices(self):
        gt = locations({0: np.zeros(3), 1: np.zeros(3)})
        est = locations({0: np.array([1.0, 0, 0]), 1: np.array([3.0, 0, 0])})
        assert location_errors(est, gt) == (2.0, 2.0)

    def test_median_of_three(self):
        gt = locations({v: np.zeros(3) for v in range(3)})
        est = locations({0: np.zeros(3), 1: np.zeros(3), 2: np.array([3.0, 0, 0])})
        assert location_errors(est, gt) == (1.0, 0.0)

    def test_empty_intersection(self):
        with pytest.raises(ValueError, match="^no common vertices between estimate and reference$"):
            location_errors(locations({0: np.zeros(3)}), locations({1: np.zeros(3)}))

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_dict_formula_on_partial_overlap(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        shared = [rng.integers(n)]
        est = random_points(rng, np.union1d(np.flatnonzero(rng.random(n) < 0.7), shared))
        gt = random_points(rng, np.union1d(np.flatnonzero(rng.random(n) < 0.7), shared))
        got = location_errors(locations(est), locations(gt))
        assert np.array_equal(got, dict_location_errors(est, gt))


class TestAlignSimilarity:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_dict_formula(self, seed):
        # the estimate covers part of the reference's vertices
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 400))
        gt = random_points(rng, range(n))
        est = random_points(rng, rng.choice(n, size=rng.integers(2, n), replace=False))
        s, b, aligned = align_similarity(locations(est), locations(gt))
        s_o, b_o, aligned_o = dict_align_similarity(est, gt)
        assert s == s_o and np.array_equal(b, b_o)
        assert aligned.vertices.tolist() == sorted(aligned_o)
        assert np.array_equal(aligned.coords, np.array([aligned_o[v] for v in sorted(aligned_o)]))
        assert np.array_equal(location_errors(aligned, locations(gt)), dict_location_errors(aligned_o, gt))

    @pytest.mark.parametrize("missing", [[7], [2, 9, 11, 40, 41, 57, 90]])
    def test_missing_vertex_message(self, missing):
        gt = random_points(np.random.default_rng(1), [v for v in range(100) if v not in missing])
        est = random_points(np.random.default_rng(2), range(0, 100, 1))
        with pytest.raises(ValueError) as new:
            align_similarity(locations(est), locations(gt))
        with pytest.raises(ValueError) as old:
            dict_align_similarity(est, gt)
        assert str(new.value) == str(old.value) == (
            f"vertices {missing[:5]} have no reference location"
        )


class TestImprovement:
    def test_halved_error(self):
        assert improvement(2.0, 1.0) == pytest.approx(50.0)

    def test_no_change(self):
        assert improvement(1.5, 1.5) == 0.0

    def test_regression_is_negative(self):
        assert improvement(1.0, 1.5) == pytest.approx(-50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            improvement(0.0, 1.0)


class TestExpectationGap:
    def test_clean_graph_has_no_verdict(self):
        g, gt = generate_uc(UCParams(n=20, p=0.7, q=0.0, sigma=0.0, seed=1))
        stats = stats_of({e: 0.0 for e in g.edges()})
        gap = expectation_gap(g, gt, stats, epsilon=0.2)
        assert gap.separated is None
        assert gap.min_corrupted is None

    def test_equal_statistics_do_not_separate(self):
        g, gt = generate_uc(UCParams(n=20, p=0.7, q=0.5, sigma=0.0, seed=2))
        stats = stats_of({e: 0.5 for e in g.edges()})
        gap = expectation_gap(g, gt, stats, epsilon=0.2)
        if gap.separated is not None:
            assert gap.separated is False

    def test_separates_constructed_instance(self):
        g, gt = generate_uc(UCParams(n=20, p=0.7, q=0.5, sigma=0.0, seed=3))
        stats = EdgeStatistics(g.edge_array, np.where(gt.corrupted_flags, 1.0, 0.0))
        gap = expectation_gap(g, gt, stats, epsilon=0.2)
        assert gap.separated is True

    def test_validation(self):
        g, gt = generate_uc(UCParams(n=10, p=0.7, q=0.2, sigma=0.0, seed=4))
        stats = stats_of({e: 0.0 for e in g.edges()})
        with pytest.raises(ValueError):
            expectation_gap(g, gt, stats, epsilon=1.5)
