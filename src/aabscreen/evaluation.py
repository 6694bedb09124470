"""Corruption labeling, ROC/AUC, histograms, and location-error summaries.

The positive class throughout is "corrupted"; an edge is predicted corrupted
when its statistic is at or above the threshold, so informative statistics
(large on corrupted edges) yield AUC near 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aabstats import EdgeStatistics
from .graph import Locations, ViewGraph, match_edge_rows
from .sphere import great_circle_distance_batch
from .synthetic import GroundTruth

__all__ = [
    "EdgeLabels",
    "RocCurve",
    "HistogramCounts",
    "ExpectationGap",
    "label_edges",
    "roc_auc",
    "histogram",
    "location_errors",
    "improvement",
    "expectation_gap",
]

NUM_THRESHOLDS = 1000

# Angles at or below this count as numerically zero when sigma = 0.
_ZERO_ANGLE_TOL = 1e-9


@dataclass
class EdgeLabels:
    """Per-edge corruption angle and labels, aligned with the rows of
    ``edge_array`` (sorted, unique vertex pairs).

    ``corrupted`` applies the evaluation rule angle > arcsin(sigma) (strict,
    with a 1e-9 numerical-zero floor).  These are the columns of a labels
    file.
    """

    edge_array: np.ndarray
    angle: np.ndarray
    corrupted: np.ndarray


@dataclass
class RocCurve:
    """ROC curve over equidistant statistic thresholds.

    Points are ordered by decreasing threshold, so both rates are
    non-decreasing along the curve.  ``auc`` is None when one class is
    empty; an all-equal statistic gets the uninformative 0.5 by convention.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float | None


@dataclass
class HistogramCounts:
    """Histogram of statistic values split by label."""

    bin_edges: np.ndarray
    corrupted: np.ndarray
    uncorrupted: np.ndarray


@dataclass
class ExpectationGap:
    """Separation check between strongly corrupted and clean edges."""

    min_corrupted: float | None
    max_clean: float | None
    separated: bool | None


def label_edges(g: ViewGraph, gt: GroundTruth, sigma: float) -> EdgeLabels:
    """Corruption angles and threshold labels for every edge of ``g``."""
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    rows = match_edge_rows(gt.edge_array, g.edge_array, "ground truth does not cover edge {}")
    angles = great_circle_distance_batch(g.direction_array, gt.clean_directions[rows])
    cut = max(float(np.arcsin(min(sigma, 1.0))), _ZERO_ANGLE_TOL)
    return EdgeLabels(edge_array=g.edge_array, angle=angles, corrupted=angles > cut)


def _supported_with_labels(stats: EdgeStatistics, labels: EdgeLabels):
    """Values of the supported edges, in row order, and their rows in ``labels``."""
    supported = ~np.isnan(stats.value)
    rows = match_edge_rows(labels.edge_array, stats.edge_array[supported], "labels missing edge {}")
    return stats.value[supported], rows


def roc_auc(stats: EdgeStatistics, labels: EdgeLabels) -> RocCurve:
    """ROC over NUM_THRESHOLDS equidistant thresholds spanning the statistics.

    Supported edges only; the labels must cover every one of them.
    True/false positive rates count edges with statistic >= threshold among
    corrupted/uncorrupted edges; the AUC is the trapezoidal integral of the
    (FPR, TPR) points.
    """
    s, rows = _supported_with_labels(stats, labels)
    y = labels.corrupted[rows]

    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return RocCurve(
            thresholds=np.empty(0), fpr=np.empty(0), tpr=np.empty(0), auc=None
        )

    lo, hi = float(s.min()), float(s.max())
    thresholds = np.linspace(lo, hi, NUM_THRESHOLDS)

    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    pos_cum = np.concatenate([[0], np.cumsum(y[order])])
    first_ge = np.searchsorted(s_sorted, thresholds, side="left")
    tp = n_pos - pos_cum[first_ge]
    predicted = s.size - first_ge
    fp = predicted - tp

    # decreasing threshold: rates grow monotonically
    thresholds = thresholds[::-1]
    tpr = (tp / n_pos)[::-1]
    fpr = (fp / n_neg)[::-1]

    if hi == lo:
        auc = 0.5
    else:
        auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


def histogram(stats: EdgeStatistics, labels: EdgeLabels, bins: int) -> HistogramCounts:
    """Equal-width per-class counts over the supported statistic range."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    s, rows = _supported_with_labels(stats, labels)
    if s.size == 0:
        raise ValueError("no edge has a supported statistic to histogram")
    y = labels.corrupted[rows]
    lo, hi = float(s.min()), float(s.max())
    if hi == lo:
        hi = lo + 1.0
    bin_edges = np.linspace(lo, hi, bins + 1)
    bad, _ = np.histogram(s[y], bins=bin_edges)
    good, _ = np.histogram(s[~y], bins=bin_edges)
    return HistogramCounts(bin_edges=bin_edges, corrupted=bad, uncorrupted=good)


def location_errors(aligned: Locations, reference: Locations) -> tuple[float, float]:
    """Mean and median per-vertex distance over the common vertex set."""
    common, a, b = np.intersect1d(aligned.vertices, reference.vertices, return_indices=True)
    if not common.size:
        raise ValueError("no common vertices between estimate and reference")
    d = aligned.coords[a] - reference.coords[b]
    # rounds as np.linalg.norm of each row does; norm(d, axis=1) may not
    dist = np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())
    return float(dist.mean()), float(np.median(dist))


def improvement(e_before: float, e_after: float) -> float:
    """Percent error reduction; negative when screening hurt."""
    if e_before <= 0.0:
        raise ValueError("e_before must be > 0")
    return (e_before - e_after) / e_before * 100.0


def expectation_gap(
    g: ViewGraph,
    gt: GroundTruth,
    stats: EdgeStatistics,
    epsilon: float,
) -> ExpectationGap:
    """Does the statistic separate strongly corrupted edges from clean ones?

    Strongly corrupted means generator-corrupted with corruption angle e
    satisfying min(e, pi - e) > pi * epsilon / 4.  Reports the minimum
    statistic over those edges, the maximum over generator-clean edges, and
    whether the former strictly exceeds the latter.  Either side empty makes
    the verdict absent.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    labels = label_edges(g, gt, sigma=0.0)
    vals, rows = _supported_with_labels(stats, labels)
    ang = labels.angle[rows]
    gt_rows = match_edge_rows(
        gt.edge_array, labels.edge_array[rows], "ground truth does not cover edge {}"
    )
    flagged = gt.corrupted_flags[gt_rows]
    strong = vals[flagged & (np.minimum(ang, np.pi - ang) > np.pi * epsilon / 4.0)]
    clean = vals[~flagged]

    min_c = float(strong.min()) if strong.size else None
    max_g = float(clean.max()) if clean.size else None
    separated = (min_c > max_g) if (strong.size and clean.size) else None
    return ExpectationGap(min_corrupted=min_c, max_clean=max_g, separated=separated)
