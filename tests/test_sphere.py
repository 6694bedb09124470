"""Unit tests for spherical geometry and the AAB inconsistency."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aabscreen.sphere import (
    DegenerateBaseError,
    aab_inconsistency,
    aab_inconsistency_batch,
    aab_inconsistency_oracle,
    aab_oracle_batch,
    as_unit_vector,
    degenerate_base_mask,
    great_circle_distance,
    great_circle_distance_batch,
    sample_uniform_sphere_batch,
)
from aabscreen.streams import derive_rng

from conftest import random_rotation, random_units, unit
from padded_oracle import interior_shift_count, padded_oracle_batch

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


class TestGreatCircleDistance:
    def test_identical_points(self):
        assert great_circle_distance(EX, EX) == 0.0

    def test_antipodes(self):
        assert great_circle_distance(EX, -EX) == pytest.approx(math.pi, abs=1e-15)

    def test_orthogonal_axes(self):
        assert great_circle_distance(EX, EY) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            great_circle_distance(2.0 * EX, EY)
        with pytest.raises(ValueError):
            great_circle_distance(EX, np.zeros(3))

    def test_symmetry_and_range(self, rng):
        u = random_units(rng, 200)
        v = random_units(rng, 200)
        for a, b in zip(u, v):
            d1 = great_circle_distance(a, b)
            assert d1 == great_circle_distance(b, a)
            assert 0.0 <= d1 <= math.pi

    def test_accurate_near_zero(self):
        # arccos of a clamped dot would return 0 or ~1.5e-8 here
        v = unit(EX + 1e-9 * EY)
        assert great_circle_distance(EX, v) == pytest.approx(1e-9, rel=1e-6)

    def test_accurate_near_pi(self):
        v = unit(-EX + 1e-9 * EY)
        assert math.pi - great_circle_distance(EX, v) == pytest.approx(1e-9, rel=1e-6)

    def test_batch_matches_scalar(self, rng):
        u = random_units(rng, 64)
        v = random_units(rng, 64)
        batch = great_circle_distance_batch(u, v)
        for k in range(64):
            # scalar path renormalizes its inputs, batch path does not
            assert batch[k] == pytest.approx(great_circle_distance(u[k], v[k]), abs=1e-14)


class TestUniformSphere:
    def test_unit_norm(self):
        v = sample_uniform_sphere_batch(derive_rng(7, 0), 50)
        assert v.shape == (50, 3)
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12

    def test_deterministic(self):
        a = sample_uniform_sphere_batch(derive_rng(11, 0), 5)
        b = sample_uniform_sphere_batch(derive_rng(11, 0), 5)
        assert np.array_equal(a, b)

    def test_mean_near_zero(self):
        # each coordinate has std 1/sqrt(3); the mean of N draws should sit
        # within 4 standard errors of 0
        n = 100_000
        draws = sample_uniform_sphere_batch(derive_rng(13, 0), n)
        se = (1.0 / math.sqrt(3.0)) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 * se)


class TestAabInconsistency:
    def test_arc_midpoint_is_consistent(self):
        assert aab_inconsistency(unit([-1, -1, 0]), EX, EY) <= 1e-12

    def test_distance_to_near_endpoint(self):
        # nearest region point is -g2
        assert aab_inconsistency(EX, EX, EY) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_projection_branch_value(self):
        got = aab_inconsistency(unit([-1, -1, 1]), EX, EY)
        assert got == pytest.approx(math.acos(math.sqrt(2.0 / 3.0)), abs=1e-12)

    def test_pole_equidistant_from_arc(self):
        assert aab_inconsistency(EZ, EX, EY) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_degenerate_base_rejected(self):
        with pytest.raises(DegenerateBaseError):
            aab_inconsistency(EY, EX, EX)
        with pytest.raises(DegenerateBaseError):
            aab_inconsistency(EY, EX, -EX)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            aab_inconsistency(2 * EZ, EX, EY)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_degenerate_exactly_where_the_batch_mask_is(self, sign):
        # angles around the boundary sin^2 = DEGENERATE_BASE_TOL = 1e-9
        flagged = []
        for eps in np.linspace(0.9, 1.1, 41) * math.sqrt(1e-9):
            g2 = as_unit_vector(sign * np.array([math.cos(eps), math.sin(eps), 0.0]))
            masked = bool(degenerate_base_mask(EX[None], g2[None])[0])
            for scalar in (aab_inconsistency, lambda *g: aab_inconsistency_oracle(*g, steps=2)):
                try:
                    scalar(EZ, EX, g2)
                    raised = False
                except DegenerateBaseError as exc:
                    z = float(np.dot(EX, g2))
                    assert str(exc) == f"base pair nearly (anti)parallel: g1.g2 = {z!r}"
                    raised = True
                assert raised == masked
            flagged.append(masked)
        assert any(flagged) and not all(flagged)

    def test_range_property(self, rng):
        g1 = random_units(rng, 2000)
        g2 = random_units(rng, 2000)
        g3 = random_units(rng, 2000)
        keep = np.einsum("ij,ij->i", g1, g2) ** 2 <= 1 - 1e-9
        vals = aab_inconsistency_batch(g3[keep], g1[keep], g2[keep])
        assert np.all(vals >= 0.0)
        assert np.all(vals <= math.pi)

    def test_zero_iff_consistent(self, rng):
        # directions from any 3 non-collinear locations are cycle-consistent
        for _ in range(1000):
            t = rng.normal(size=(3, 3))
            gij = unit(t[0] - t[1])
            gjk = unit(t[1] - t[2])
            gki = unit(t[2] - t[0])
            assert aab_inconsistency(gij, gjk, gki) <= 1e-9
        # and a generic triple is strictly inconsistent
        for _ in range(100):
            g1, g2, g3 = random_units(rng, 3)
            if np.dot(g1, g2) ** 2 > 1 - 1e-6:
                continue
            assert aab_inconsistency(g3, g1, g2) > 1e-12

    def test_rotation_invariance(self, rng):
        g1 = random_units(rng, 1000)
        g2 = random_units(rng, 1000)
        g3 = random_units(rng, 1000)
        keep = np.einsum("ij,ij->i", g1, g2) ** 2 <= 1 - 1e-6
        g1, g2, g3 = g1[keep], g2[keep], g3[keep]
        base = aab_inconsistency_batch(g3, g1, g2)
        r = random_rotation(rng)
        rotated = aab_inconsistency_batch(g3 @ r.T, g1 @ r.T, g2 @ r.T)
        assert np.abs(base - rotated).max() <= 1e-9

    def test_global_negation_invariance(self, rng):
        g1 = random_units(rng, 500)
        g2 = random_units(rng, 500)
        g3 = random_units(rng, 500)
        keep = np.einsum("ij,ij->i", g1, g2) ** 2 <= 1 - 1e-6
        g1, g2, g3 = g1[keep], g2[keep], g3[keep]
        a = aab_inconsistency_batch(g3, g1, g2)
        b = aab_inconsistency_batch(-g3, -g1, -g2)
        assert np.abs(a - b).max() <= 1e-12

    def test_base_symmetry(self, rng):
        g1 = random_units(rng, 500)
        g2 = random_units(rng, 500)
        g3 = random_units(rng, 500)
        keep = np.einsum("ij,ij->i", g1, g2) ** 2 <= 1 - 1e-6
        g1, g2, g3 = g1[keep], g2[keep], g3[keep]
        a = aab_inconsistency_batch(g3, g1, g2)
        b = aab_inconsistency_batch(g3, g2, g1)
        assert np.abs(a - b).max() <= 1e-12


class TestOracle:
    def test_consistent_triple_is_zero(self, rng):
        t = rng.normal(size=(3, 3))
        gij = unit(t[0] - t[1])
        gjk = unit(t[1] - t[2])
        gki = unit(t[2] - t[0])
        assert aab_inconsistency_oracle(gij, gjk, gki, steps=1_000_000) <= 1e-5

    def test_endpoint_minimum(self):
        got = aab_inconsistency_oracle(EX, EX, EY, steps=1_000_000)
        assert got == pytest.approx(math.pi / 2, abs=1e-5)

    def test_matches_closed_form(self, rng):
        # grid min overestimates by at most pi/(steps-1)
        steps = 100_000
        tol = math.pi / (steps - 1) + 1e-9
        for _ in range(200):
            g1, g2, g3 = random_units(rng, 3)
            if np.dot(g1, g2) ** 2 > 1 - 1e-6:
                continue
            diff = aab_inconsistency_oracle(g3, g1, g2, steps=steps) - aab_inconsistency(g3, g1, g2)
            assert -1e-12 <= diff <= tol

    def test_matches_closed_form_fine_grid(self, rng):
        for _ in range(10):
            g1, g2, g3 = random_units(rng, 3)
            if np.dot(g1, g2) ** 2 > 1 - 1e-6:
                continue
            got = aab_inconsistency_oracle(g3, g1, g2, steps=1_000_000)
            assert got == pytest.approx(aab_inconsistency(g3, g1, g2), abs=1e-5)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            aab_inconsistency_oracle(EZ, EX, EY, steps=1)

    @pytest.mark.parametrize("steps", [2, 3, 101, 1001, 10001])
    def test_batch_equals_scan(self, rng, steps):
        # the candidate-index evaluation agrees with the full scan to
        # rounding: the scan renormalizes its inputs, which moves about a
        # third of the minima by up to ~3e-14
        g1 = random_units(rng, 100)
        g2 = random_units(rng, 100)
        g3 = random_units(rng, 100)
        keep = np.einsum("ij,ij->i", g1, g2) ** 2 <= 1 - 1e-6
        g1, g2, g3 = g1[keep], g2[keep], g3[keep]
        batch = aab_oracle_batch(g3, g1, g2, steps)
        for k in range(g1.shape[0]):
            assert batch[k] == pytest.approx(
                aab_inconsistency_oracle(g3[k], g1[k], g2[k], steps), abs=1e-12
            )

    def test_batch_equals_scan_million_steps(self, rng):
        g1 = random_units(rng, 5)
        g2 = random_units(rng, 5)
        g3 = random_units(rng, 5)
        batch = aab_oracle_batch(g3, g1, g2, 1_000_000)
        for k in range(5):
            scan = aab_inconsistency_oracle(g3[k], g1[k], g2[k], 1_000_000)
            assert batch[k] == pytest.approx(scan, abs=1e-12)

    @pytest.mark.parametrize("steps", [2, 3, 101, 10001])
    def test_batch_equals_scan_bit_for_bit_on_renormalized_rows(self, rng, steps):
        # given the vectors the scan itself works on, both take the same
        # grid minimum
        rows = [[as_unit_vector(v) for v in random_units(rng, 3)] for _ in range(50)]
        g1, g2, g3 = (np.array(col) for col in zip(*rows))
        keep = ~degenerate_base_mask(g1, g2)
        g1, g2, g3 = g1[keep], g2[keep], g3[keep]
        scan = [aab_inconsistency_oracle(c, a, b, steps) for a, b, c in zip(g1, g2, g3)]
        assert aab_oracle_batch(g3, g1, g2, steps).tolist() == scan


def arc_point(g1: np.ndarray, g2: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Point at angle theta from -g1 toward -g2 on their great circle, rows."""
    psi = np.arccos(np.einsum("ij,ij->i", g1, g2))
    return (
        np.sin(psi - theta)[:, None] * -g1 + np.sin(theta)[:, None] * -g2
    ) / np.sin(psi)[:, None]


def oracle_rows(rng: np.random.Generator, kind: str, n: int = 400):
    """(g3, g1, g2) rows: uniform, or built so that the distance along the
    arc has exactly one interior critical point, or none.

    g3 leaves the great circle of the arc from its point at angle theta, so
    the critical points sit at theta and theta + pi: inside the arc for
    theta in (0, psi), outside it for theta in (psi - pi, 0).
    """
    g1, g2, g3 = (random_units(rng, n) for _ in range(3))
    if kind == "random":
        keep = ~degenerate_base_mask(g1, g2)
        return g3[keep], g1[keep], g2[keep]
    psi = np.arccos(np.einsum("ij,ij->i", g1, g2))
    keep = (psi > 0.1) & (psi < math.pi - 0.1)
    g1, g2, psi = g1[keep], g2[keep], psi[keep]
    frac = rng.uniform(0.05, 0.95, psi.size)
    theta = frac * psi if kind == "interior" else -frac * (math.pi - psi)
    normal = np.cross(g1, g2)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    tilt = rng.uniform(-1.4, 1.4, psi.size)
    g3 = np.cos(tilt)[:, None] * arc_point(g1, g2, theta) + np.sin(tilt)[:, None] * normal
    return g3 / np.linalg.norm(g3, axis=1, keepdims=True), g1, g2


class TestOracleBatchAgainstPadded:
    """The batch oracle evaluates grid neighbours only on rows with an
    interior critical point; the padded reference evaluates fourteen
    candidates on every row.  The minima must agree to the bit."""

    @pytest.mark.parametrize("kind", ["random", "interior", "no_interior"])
    @pytest.mark.parametrize("steps", [2, 3, 101, 10001])
    def test_bit_identical(self, rng, kind, steps):
        g3, g1, g2 = oracle_rows(rng, kind)
        got = aab_oracle_batch(g3, g1, g2, steps)
        ref = padded_oracle_batch(g3, g1, g2, steps)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    def test_row_kinds(self, rng):
        counts = {kind: interior_shift_count(*oracle_rows(rng, kind)) for kind in
                  ("random", "interior", "no_interior")}
        assert (counts["interior"] == 1).all()
        assert (counts["no_interior"] == 0).all()
        assert 0 < (counts["random"] == 0).mean() < 1


def all_rows_reference(G3: np.ndarray, G1: np.ndarray, G2: np.ndarray) -> np.ndarray:
    """The batch kernel as first written: the projection branch and both
    endpoint distances, each in both arcsine forms, on every row, then
    selected.  Reference for the kernel that does each branch's work once."""
    x = np.einsum("ij,ij->i", G1, G3)
    y = np.einsum("ij,ij->i", G2, G3)
    z = np.einsum("ij,ij->i", G1, G2)
    inside = (x < y * z) & (y < x * z)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = 1.0 - z * z
        lam1 = (x - y * z) / denom
        lam2 = (y - x * z) / denom
    gp = lam1[:, None] * G1 + lam2[:, None] * G2
    perp = G3 - gp
    proj_angle = np.arctan2(np.linalg.norm(perp, axis=1), np.linalg.norm(gp, axis=1))
    end1 = great_circle_distance_batch(G3, -G1)
    end2 = great_circle_distance_batch(G3, -G2)
    return np.where(inside, proj_angle, np.minimum(end1, end2))


class TestBatchKernel:
    def assert_matches_reference(self, G3, G1, G2):
        """Equal to the reference bit for bit, except on exact x == y ties,
        where the two endpoint distances may round apart: there within 2 ulp."""
        got = aab_inconsistency_batch(G3, G1, G2)
        ref = all_rows_reference(G3, G1, G2)
        tie = np.einsum("ij,ij->i", G1, G3) == np.einsum("ij,ij->i", G2, G3)
        assert np.array_equal(got[~tie], ref[~tie])
        ulp = np.spacing(np.maximum(np.abs(got[tie]), np.abs(ref[tie])))
        assert np.all(np.abs(got[tie] - ref[tie]) <= 2 * ulp)
        return tie

    def test_random_rows(self):
        rng = derive_rng(2024)
        for _ in range(16):
            G1, G2, G3 = (random_units(rng, 65536) for _ in range(3))
            self.assert_matches_reference(G3, G1, G2)

    def test_branch_boundary_rows(self):
        # g3 = a(-g1) + b nrm, nrm normal to the base plane, projects onto
        # the ray through -g1: exactly the boundary of the projection branch
        # (lam2 = 0); the nudges put rows on either side of it in rounding
        rng = derive_rng(2025)
        G1, G2 = random_units(rng, 100_000), random_units(rng, 100_000)
        nrm = np.cross(G1, G2)
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        ab = rng.normal(size=(100_000, 2))
        G3 = -ab[:, :1] * G1 + ab[:, 1:] * nrm + rng.normal(size=(100_000, 3)) * 1e-17
        G3 /= np.linalg.norm(G3, axis=1, keepdims=True)
        self.assert_matches_reference(G3, G1, G2)
        self.assert_matches_reference(G3, G2, G1)

    def test_exact_ties(self):
        # g1 = (a, b, 0), g2 = (a, -b, 0), g3 = (c, 0, d): x and y are equal
        # in floating point, and the same holds for any shared permutation
        # of the coordinates
        rng = derive_rng(2026)
        k = 50_000
        a, b, c, d = rng.normal(size=(4, k))
        zero = np.zeros(k)
        G1 = np.stack([a, b, zero], axis=1)
        G2 = np.stack([a, -b, zero], axis=1)
        G3 = np.stack([c, zero, d], axis=1)
        G1 /= np.linalg.norm(G1, axis=1, keepdims=True)
        G2 /= np.linalg.norm(G2, axis=1, keepdims=True)
        G3 /= np.linalg.norm(G3, axis=1, keepdims=True)
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            tie = self.assert_matches_reference(G3[:, perm], G1[:, perm], G2[:, perm])
            assert tie.all()
