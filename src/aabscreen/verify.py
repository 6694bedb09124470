"""Monte Carlo checks of the analytic pieces behind the AAB statistic.

Three checks are provided: the mean inconsistency of a direction at a fixed
angle x from one base endpoint against a uniformly random second base vector,
the mean inconsistency of fully random triples, and agreement of the
closed-form inconsistency with the brute-force arc-scan oracle.  The last one
also quantifies how far the variant without the square root (the projection
length squared in place of the length) strays from the oracle.

The curve (x + sin x) / 2 reported next to the first check is not that mean.
For the probe p and the uniformly random far endpoint e of the arc,
P(d(p, e) > t) = (1 + cos t) / 2, so the curve, the integral of that over
[0, x], is E[min(x, d(p, e))]: the exact mean distance to the nearer arc
endpoint.  The arc distance never exceeds it, so the curve is an upper bound
on the mean that ``mc_estimate_f`` estimates, equal to it only at x = 0 and
x = pi; near 0 the true mean is (1/2 + 1/pi) x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphere import (
    aab_inconsistency_batch,
    aab_oracle_batch,
    degenerate_base_mask,
    sample_uniform_sphere_batch,
)
from .streams import TAG_MONTE_CARLO, derive_rng

__all__ = [
    "McEstimate",
    "FormulaComparison",
    "reference_mean_inconsistency",
    "mc_estimate_f",
    "mc_estimate_Z",
    "aab_as_printed_batch",
    "formula_vs_oracle",
]

_CHUNK = 200_000


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    value: float
    std_error: float


@dataclass(frozen=True)
class FormulaComparison:
    """Worst-case deviations of both formula variants from the arc oracle."""

    max_abs_dev_corrected: float
    max_abs_dev_as_printed: float


def reference_mean_inconsistency(x: float) -> float:
    """Mean distance to the nearer arc endpoint, (x + sin x) / 2.

    Exact for the setting of ``mc_estimate_f`` with the arc distance replaced
    by the distance to the nearer of its two endpoints.  It bounds the mean
    that ``mc_estimate_f`` estimates from above and equals it only at x = 0
    and x = pi, so the ``deviation`` (estimate - reference) that
    ``aabscreen verify --mode lemma`` reports is <= 0 up to Monte Carlo noise.
    """
    return 0.5 * (x + np.sin(x))


def _chunks(samples: int, seed: int):
    """(rng, size) pairs that draw ``samples`` values in chunks of at most
    _CHUNK from the one Monte Carlo stream of ``seed``."""
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    rng = derive_rng(seed, TAG_MONTE_CARLO)
    return ((rng, min(_CHUNK, samples - done)) for done in range(0, samples, _CHUNK))


def _mc_mean(draw, samples: int, seed: int) -> McEstimate:
    """Chunked mean/SE of ``draw(rng, size) -> values``."""
    total = 0.0
    total_sq = 0.0
    for rng, size in _chunks(samples, seed):
        vals = draw(rng, size)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / max(samples - 1, 1))
    return McEstimate(value=mean, std_error=float(np.sqrt(var / samples)))


def _redraw_degenerate(rng: np.random.Generator, fixed: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Redraw, in place and from ``rng``, the uniform rows of ``v`` that form
    a degenerate base with ``fixed`` (broadcast against ``v``) until none does."""
    bad = degenerate_base_mask(np.broadcast_to(fixed, v.shape), v)
    while bad.any():
        v[bad] = sample_uniform_sphere_batch(rng, int(bad.sum()))
        bad = degenerate_base_mask(np.broadcast_to(fixed, v.shape), v)
    return v


def mc_estimate_f(x: float, samples: int, seed: int) -> McEstimate:
    """Mean inconsistency of a direction x radians from one arc endpoint.

    Averages the AAB inconsistency of (cos x, sin x, 0) against the base
    pair ((-1, 0, 0), v) with v uniform on S2.  The handful of draws with a
    degenerate base (measure zero) are redrawn.
    """
    if not 0.0 <= x <= np.pi:
        raise ValueError("x must be in [0, pi]")
    v1 = np.array([-1.0, 0.0, 0.0])
    v2 = np.array([np.cos(x), np.sin(x), 0.0])

    def draw(rng, size):
        v = _redraw_degenerate(rng, v1, sample_uniform_sphere_batch(rng, size))
        g3 = np.broadcast_to(v2, v.shape)
        g1 = np.broadcast_to(v1, v.shape)
        return aab_inconsistency_batch(g3, g1, v)

    return _mc_mean(draw, samples, seed)


def _uniform_triples(rng: np.random.Generator, size: int):
    """Probes g3 and base pairs (g1, g2), independent and uniform on S2, in
    the argument order of the formulas; degenerate bases are redrawn."""
    g1 = sample_uniform_sphere_batch(rng, size)
    g2 = sample_uniform_sphere_batch(rng, size)
    g3 = sample_uniform_sphere_batch(rng, size)
    return g3, g1, _redraw_degenerate(rng, g1, g2)


def mc_estimate_Z(samples: int, seed: int) -> McEstimate:
    """Mean AAB inconsistency of independent uniform triples."""

    def draw(rng, size):
        return aab_inconsistency_batch(*_uniform_triples(rng, size))

    return _mc_mean(draw, samples, seed)


def aab_as_printed_batch(G3: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """Formula variant without the square root, kept only for comparison.

    In the projection branch this evaluates arccos of the squared projection
    length instead of the length, which overstates the angle whenever the
    projection is strictly inside the arc.  Never used by the statistics.
    """
    x = np.einsum("ij,ij->i", G1, G3)
    y = np.einsum("ij,ij->i", G2, G3)
    z = np.einsum("ij,ij->i", G1, G2)
    inside = (x < y * z) & (y < x * z)
    val = np.where(
        inside,
        (x * x + y * y - 2.0 * x * y * z) / (1.0 - z * z),
        -np.minimum(x, y),
    )
    return np.arccos(np.clip(val, -1.0, 1.0))


def formula_vs_oracle(samples: int, oracle_steps: int, seed: int) -> FormulaComparison:
    """Worst-case |formula - oracle| over random non-degenerate triples.

    Compares both the corrected closed form and the as-printed (no square
    root) variant against the arc-scan oracle with the given grid size.
    """
    chunks = _chunks(samples, seed)
    if oracle_steps < 10_000:
        raise ValueError("oracle_steps must be >= 10000")

    dev_corrected = 0.0
    dev_printed = 0.0
    for rng, size in chunks:
        triples = _uniform_triples(rng, size)
        oracle = aab_oracle_batch(*triples, oracle_steps)
        dev_corrected = max(
            dev_corrected, float(np.abs(aab_inconsistency_batch(*triples) - oracle).max())
        )
        dev_printed = max(
            dev_printed, float(np.abs(aab_as_printed_batch(*triples) - oracle).max())
        )
    return FormulaComparison(
        max_abs_dev_corrected=dev_corrected, max_abs_dev_as_printed=dev_printed
    )
