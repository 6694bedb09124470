"""Tests of the Monte Carlo verification helpers."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from aabscreen import verify
from aabscreen.sphere import aab_inconsistency_batch
from aabscreen.verify import (
    aab_as_printed_batch,
    formula_vs_oracle,
    mc_estimate_f,
    mc_estimate_Z,
    reference_mean_inconsistency,
)

from conftest import uniform_base_mean, unit

# mean inconsistency of independent uniform triples, estimated once with
# 10^7 samples of the corrected closed form (standard error 1.9e-4)
Z_REFERENCE = 1.1242867
Z_REFERENCE_SE = 1.92e-4


class TestMeanInconsistencyCurve:
    def test_at_zero(self):
        est = mc_estimate_f(0.0, samples=2000, seed=1)
        # the probe direction is an arc endpoint for every draw
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_at_pi(self):
        est = mc_estimate_f(math.pi, samples=100_000, seed=2)
        assert abs(est.value - math.pi / 2) <= 4.0 * est.std_error

    def test_deterministic(self):
        a = mc_estimate_f(1.0, samples=2000, seed=3)
        b = mc_estimate_f(1.0, samples=2000, seed=3)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_estimate_f(-0.1, samples=2000, seed=0)
        with pytest.raises(ValueError):
            mc_estimate_f(1.0, samples=10, seed=0)


class TestUniformBaseQuadrature:
    """The oracle quadrature that acceptance criterion 2 compares against."""

    X_GRID = np.linspace(0.0, math.pi, 9)

    def test_endpoints(self):
        assert uniform_base_mean(0.0) == 0.0
        assert uniform_base_mean(math.pi) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_slope_at_zero(self):
        # near 0 the arc leaves (1, 0, 0) at a uniform angle a to the probe:
        # for cos a < 0 the endpoint is nearest (distance x), else the arc
        # passes at x |sin a|, so the mean is x (1/2 + 1/pi)
        h = 1e-3
        assert uniform_base_mean(h) / h == pytest.approx(0.5 + 1.0 / math.pi, abs=1e-4)

    def test_nearer_endpoint_reproduces_reference_curve(self):
        # with e = -v uniform, E[min(x, d(p, e))] = int_0^x (1 + cos t) / 2 dt
        for x in self.X_GRID:
            quad = uniform_base_mean(float(x), nearer_endpoint=True)
            assert quad == pytest.approx(reference_mean_inconsistency(float(x)), abs=5e-6)

    def test_halving_the_grid(self):
        for x in self.X_GRID:
            fine = uniform_base_mean(float(x))
            coarse = uniform_base_mean(float(x), n_theta=100, n_phi=200)
            assert abs(fine - coarse) <= 2e-5


class TestMeanOverUniformTriples:
    def test_deterministic(self):
        a = mc_estimate_Z(samples=5000, seed=4)
        b = mc_estimate_Z(samples=5000, seed=4)
        assert a.value == b.value

    def test_in_open_range(self):
        est = mc_estimate_Z(samples=5000, seed=5)
        assert 0.0 < est.value < math.pi

    def test_matches_reference_constant(self):
        est = mc_estimate_Z(samples=200_000, seed=6)
        band = 4.0 * math.hypot(est.std_error, Z_REFERENCE_SE)
        assert abs(est.value - Z_REFERENCE) <= band


class TestFormulaVsOracle:
    def test_corrected_formula_tracks_oracle(self):
        cmp_ = formula_vs_oracle(samples=2000, oracle_steps=10_000, seed=7)
        assert cmp_.max_abs_dev_corrected <= math.pi / (10_000 - 1) + 1e-9

    def test_as_printed_variant_deviates(self):
        cmp_ = formula_vs_oracle(samples=2000, oracle_steps=10_000, seed=7)
        assert cmp_.max_abs_dev_as_printed >= 0.1

    def test_as_printed_on_documented_triple(self):
        g1 = unit([1, 0, 0])
        g2 = unit([0, 1, 0])
        g3 = unit([-1, -1, 1])
        printed = float(aab_as_printed_batch(g3[None], g1[None], g2[None])[0])
        corrected = float(aab_inconsistency_batch(g3[None], g1[None], g2[None])[0])
        assert printed == pytest.approx(math.acos(2.0 / 3.0), abs=1e-12)
        assert corrected == pytest.approx(math.acos(math.sqrt(2.0 / 3.0)), abs=1e-12)
        assert printed - corrected == pytest.approx(0.2255889618975430, abs=1e-12)

    def test_consistent_triples_agree(self, rng):
        t = rng.normal(size=(100, 3, 3))
        gij = t[:, 0] - t[:, 1]
        gij /= np.linalg.norm(gij, axis=1, keepdims=True)
        gjk = t[:, 1] - t[:, 2]
        gjk /= np.linalg.norm(gjk, axis=1, keepdims=True)
        gki = t[:, 2] - t[:, 0]
        gki /= np.linalg.norm(gki, axis=1, keepdims=True)
        assert aab_inconsistency_batch(gij, gjk, gki).max() <= 1e-9
        assert aab_as_printed_batch(gij, gjk, gki).max() <= 1e-6

    def test_deviation_shrinks_with_grid(self):
        devs = [
            formula_vs_oracle(samples=1000, oracle_steps=steps, seed=8).max_abs_dev_corrected
            for steps in (10_000, 100_000, 1_000_000)
        ]
        assert devs[0] >= devs[1] - 1e-12
        assert devs[1] >= devs[2] - 1e-12

    def test_peak_memory_per_sample_row(self):
        # measured: about 320 bytes per row, against about 1600 when every
        # row evaluated fourteen padded oracle candidates
        samples = 20_000
        formula_vs_oracle(samples=samples, oracle_steps=10_000, seed=9)
        tracemalloc.start()
        try:
            formula_vs_oracle(samples=samples, oracle_steps=10_000, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 640 * samples

    def test_validation(self):
        with pytest.raises(ValueError):
            formula_vs_oracle(samples=10, oracle_steps=10_000, seed=0)
        with pytest.raises(ValueError):
            formula_vs_oracle(samples=2000, oracle_steps=100, seed=0)


class TestAcrossChunks:
    """With ``_CHUNK`` at 1000, 3,500 samples run as four chunks of one
    stream (1000, 1000, 1000, 500).  The values were recorded before the
    three estimators shared one chunk loop and one triple draw."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK", 1000)

    def test_mean_over_uniform_triples(self):
        est = mc_estimate_Z(3500, 4)
        assert (est.value, est.std_error) == (1.1302156421159337, 0.010205074707149996)

    def test_mean_curve(self):
        est = mc_estimate_f(1.1, 3500, 4)
        assert (est.value, est.std_error) == (0.8846787996168968, 0.0053843229743699116)

    def test_formula_vs_oracle(self):
        cmp_ = formula_vs_oracle(3500, 10_000, 4)
        assert (cmp_.max_abs_dev_corrected, cmp_.max_abs_dev_as_printed) == (
            3.451154463637862e-06,
            0.27564262110130944,
        )
