"""Tests of the spectral and robust location solvers and the alignment."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from aabscreen import solvers
from aabscreen.aabstats import AABConfig, ir_aab
from aabscreen.cli import main
from aabscreen.fileio import write_edge_list
from aabscreen.graph import Locations, ViewGraph
from aabscreen.screening import ScreeningPolicy, filter_edges, solvable_component
from aabscreen.solvers import (
    DegenerateInstanceError,
    _form,
    _lowest_eigenpairs,
    _solve_spectral,
    align_similarity,
    solve_irls_lud,
    solve_ls_spectral,
)
from aabscreen.synthetic import UCParams, generate_uc

from conftest import complete_graph_from_locations
from dense_solvers import dense_form, dense_lowest_eigenpairs, dense_lud, dense_solve_spectral


def every_vertex(t) -> Locations:
    """Locations of vertices 0..N-1 at the rows of ``t``."""
    t = np.asarray(t, dtype=np.float64)
    return Locations(np.arange(len(t)), t)


def aligned_errors(est, gt_locs):
    _, _, aligned = align_similarity(est, gt_locs)
    assert np.array_equal(aligned.vertices, gt_locs.vertices)
    d = np.linalg.norm(aligned.coords - gt_locs.coords, axis=1)
    return float(d.mean()), float(np.median(d))


def form_of(g, verts):
    """``_form`` on the rows of ``verts``."""
    return _form(g, np.searchsorted(verts, g.edge_array.T), verts.size)


def corrupted_k8(seed):
    rng = np.random.default_rng(100 + seed)
    t = rng.normal(size=(8, 3))
    edges = []
    for i in range(8):
        for j in range(i + 1, 8):
            d = t[i] - t[j]
            edges.append([i, j, d / np.linalg.norm(d)])
    for k in rng.choice(len(edges), size=3, replace=False):
        v = rng.normal(size=3)
        edges[k][2] = v / np.linalg.norm(v)
    return ViewGraph(8, [tuple(e) for e in edges]), every_vertex(t)


class TestSpectral:
    def test_exact_k4_recovery(self, rng):
        t = rng.normal(size=(4, 3))
        g = complete_graph_from_locations(t)
        est = solve_ls_spectral(g)
        mean_err, _ = aligned_errors(est, every_vertex(t))
        assert mean_err <= 1e-6

    def test_two_vertex_instance(self):
        g = ViewGraph(2, [(0, 1, np.array([0.0, 0.0, 1.0]))])
        est = solve_ls_spectral(g)
        assert est.residuals.shape == (1,)
        assert est.residuals[0] <= 1e-12
        # matches (0, 0, 1/2), (0, 0, -1/2) up to the scale/sign gauge
        target = every_vertex([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])
        _, _, aligned = align_similarity(est, target)
        assert np.abs(aligned.coords - target.coords).max() <= 1e-9

    def test_collinear_is_degenerate(self):
        t = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        g = complete_graph_from_locations(t)
        with pytest.raises(DegenerateInstanceError):
            solve_ls_spectral(g)

    def test_disconnected_rejected(self):
        g = ViewGraph(
            4,
            [(0, 1, np.array([0.0, 0.0, 1.0])), (2, 3, np.array([0.0, 1.0, 0.0]))],
        )
        with pytest.raises(ValueError, match="connected"):
            solve_ls_spectral(g)

    def test_gauge_fixing(self):
        g, _ = generate_uc(UCParams(n=40, p=0.5, q=0.2, sigma=0.05, seed=3))
        est = solve_ls_spectral(g)
        pts = est.locations.coords
        assert np.linalg.norm(pts.mean(axis=0)) <= 1e-9
        assert abs((pts**2).sum() - 1.0) <= 1e-9

    def test_objective_equals_sum_of_squared_residuals(self):
        g, _ = generate_uc(UCParams(n=30, p=0.6, q=0.2, sigma=0.05, seed=4))
        est = solve_ls_spectral(g)
        t = est.locations.coords.ravel()
        matvec, _ = form_of(g, est.locations.vertices)
        quad = float(t @ matvec(t[None])[0])
        assert est.residuals.shape == (g.num_edges,)
        ssq = float((est.residuals**2).sum())
        assert quad == pytest.approx(ssq, abs=1e-9)

    def test_quadratic_form_matches_direct_sum(self, rng):
        g, _ = generate_uc(UCParams(n=25, p=0.6, q=0.3, sigma=0.1, seed=5))
        verts = g.active_vertices()
        matvec, _ = form_of(g, verts)
        pos = {int(v): k for k, v in enumerate(verts)}
        x = rng.normal(size=(verts.size, 3))
        direct = 0.0
        for (i, j), gam in zip(g.edges(), g.direction_array):
            diff = x[pos[i]] - x[pos[j]]
            rej = diff - np.dot(diff, gam) * gam
            direct += float(np.dot(rej, rej))
        quad = float(x.ravel() @ matvec(x.reshape(1, -1))[0])
        assert quad == pytest.approx(direct, abs=1e-9)


class TestIrls:
    def test_exact_k4(self, rng):
        t = rng.normal(size=(4, 3))
        g = complete_graph_from_locations(t)
        est = solve_irls_lud(g)
        mean_err, _ = aligned_errors(est, every_vertex(t))
        assert mean_err <= 1e-6
        assert est.converged
        # the exact shape is a fixed point, so the first stop test passes
        assert est.iterations <= 10
        assert est.residuals.shape == (g.num_edges,)
        assert np.isfinite(est.residuals).all()

    def test_noise_free_graph_starts_at_the_optimum(self):
        # k20's shortest edge is below a tenth of its median one, so a start
        # scaled to at most 10 / median would leave its length floor active
        est = solve_irls_lud(oracle_instance("k20"))
        assert (est.converged, est.iterations) == (True, 10)
        assert est.objective_trace == [pytest.approx(0.0, abs=1e-9)]

    def test_start_scale_is_the_least_objective_along_the_ray(self):
        rng = np.random.default_rng(4)
        gam = rng.normal(size=(3, 400))
        gam /= np.linalg.norm(gam, axis=0)
        diffs = 0.3 * gam + rng.normal(scale=0.5, size=(3, 400))
        c = solvers._best_scale(diffs, gam)
        grid = np.geomspace(c / 100.0, 100.0 * c, 2001)
        on_grid = min(solvers._lud_objective(x * diffs, gam) for x in grid)
        assert solvers._lud_objective(c * diffs, gam) <= on_grid * (1.0 + 1e-12)

    def test_robust_to_corrupted_edges(self):
        wins = 0
        for seed in range(10):
            g, gt = corrupted_k8(seed)
            _, med_ls = aligned_errors(solve_ls_spectral(g), gt)
            _, med_ir = aligned_errors(solve_irls_lud(g), gt)
            wins += med_ir < med_ls
        assert wins >= 8

    def test_converged_reports_the_stop_test(self):
        g = oracle_instance("uc60")
        cut = solve_irls_lud(g, max_iters=10)
        assert (cut.converged, cut.iterations, len(cut.objective_trace)) == (False, 10, 1)
        est = solve_irls_lud(g)
        assert est.converged
        assert est.iterations < 5000
        assert len(est.objective_trace) == -(-est.iterations // 10)

    def test_validation(self):
        g = ViewGraph(2, [(0, 1, np.array([0.0, 0.0, 1.0]))])
        with pytest.raises(ValueError, match="^max_iters must be >= 1$"):
            solve_irls_lud(g, max_iters=0)

    @pytest.mark.parametrize("max_iters", [2.5, 10.0, "10", None])
    def test_max_iters_must_be_an_integer(self, max_iters):
        g = ViewGraph(2, [(0, 1, np.array([0.0, 0.0, 1.0]))])
        with pytest.raises(ValueError, match=r"^max_iters must be an integer, got "):
            solve_irls_lud(g, max_iters=max_iters)

    def test_numpy_integer_iteration_cap(self):
        est = solve_irls_lud(oracle_instance("uc60"), max_iters=np.int64(20))
        assert (est.converged, est.iterations) == (False, 20)

    def test_degenerate_instance_propagates(self):
        t = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        g = complete_graph_from_locations(t)
        with pytest.raises(DegenerateInstanceError):
            solve_irls_lud(g)


@functools.lru_cache(maxsize=None)
def oracle_instance(name):
    """Instances on which the factored solvers are checked against the dense
    ones: noise-free complete graphs, and UC graphs after screening, the
    graphs the solvers are run on in the pipeline."""
    rng = np.random.default_rng(11)
    if name == "k4":
        return complete_graph_from_locations(rng.normal(size=(4, 3)))
    if name == "k20":
        return complete_graph_from_locations(rng.normal(size=(20, 3)))
    n, p = {"uc60": (60, 0.5), "uc200": (200, 0.3)}[name]
    g, _ = generate_uc(UCParams(n=n, p=p, q=0.2, sigma=0.05, seed=8))
    policy = ScreeningPolicy()
    kept = filter_edges(g, ir_aab(g, AABConfig(s=50, T=10, seed=8)), policy)
    return solvable_component(kept, policy.min_degree)


def bowtie():
    """Two triangles sharing vertex 0: connected, but each can scale alone."""
    t = np.random.default_rng(12).normal(size=(5, 3))
    edges = []
    for i, j in ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)):
        d = t[i] - t[j]
        edges.append((i, j, d / np.linalg.norm(d)))
    return ViewGraph(5, edges)


ORACLE_INSTANCES = ["k4", "k20", "uc60", "uc200"]


class TestDenseOracle:
    @pytest.mark.parametrize("name", ORACLE_INSTANCES)
    def test_matvec_equals_dense_form(self, name):
        g = oracle_instance(name)
        verts = g.active_vertices()
        a = dense_form(g, verts)
        x = np.random.default_rng(3).standard_normal((3, a.shape[0]))
        matvec, c = form_of(g, verts)
        assert np.abs(matvec(x) - x @ a).max() <= 1e-13 * np.abs(a).sum(axis=1).max()
        # c is the Gershgorin bound: the largest absolute row sum of the form
        assert c == pytest.approx(np.abs(a).sum(axis=1).max(), rel=1e-12)
        assert np.linalg.eigvalsh(a).max() <= c

    @pytest.mark.parametrize("name", ORACLE_INSTANCES)
    def test_spectral_matches_dense(self, name):
        g = oracle_instance(name)
        verts, ends, t, res = _solve_spectral(g)
        verts_o, _, t_o, res_o = dense_solve_spectral(g)
        assert np.array_equal(verts, verts_o)
        # the eigenvector sign is arbitrary on both paths
        sign = 1.0 if np.sum(t * t_o) >= 0.0 else -1.0
        assert np.abs(sign * t - t_o).max() <= 1e-12
        assert np.abs(res - res_o).max() <= 1e-12

        evals, _ = _lowest_eigenpairs(g, ends, verts.size)
        evals_o, _ = dense_lowest_eigenpairs(g, verts)
        gap, gap_o = evals[1] - evals[0], evals_o[1] - evals_o[0]
        assert abs(gap - gap_o) <= 1e-9 * gap_o

    @pytest.mark.parametrize("name", ORACLE_INSTANCES)
    def test_irls_matches_dense(self, name):
        """The robust solve reaches the LUD optimum, as the dense reference
        finds and certifies it."""
        g = oracle_instance(name)
        optimum, lam = dense_lud(g)
        gam = g.direction_array
        # scaled into the unit balls, the projected multiplier is dual
        # feasible up to rounding, and its dual value bounds the optimum below
        assert np.einsum("ij,ij->i", gam, lam).max() <= 1e-9
        lam /= max(1.0, np.linalg.norm(lam, axis=1).max())
        bound = -float(np.einsum("ij,ij->i", gam, lam).sum())
        # noise-free k4 and k20 have optimum 0, where only rounding is left
        floor = 1e-8
        assert optimum - bound <= 1e-6 * optimum + floor

        est = solve_irls_lud(g)
        assert est.converged
        found = est.objective_trace[-1]
        assert found >= bound - floor
        assert abs(found - optimum) <= 1e-3 * optimum + floor

    @pytest.mark.parametrize(
        "make",
        [lambda: complete_graph_from_locations(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])), bowtie],
        ids=["collinear", "non_rigid"],
    )
    def test_degenerate_on_both_paths(self, make):
        g = make()
        for solve in (solve_ls_spectral, solve_irls_lud, dense_lud):
            with pytest.raises(DegenerateInstanceError):
                solve(g)
        with pytest.raises(DegenerateInstanceError):
            dense_solve_spectral(g)


def spectral_memory_instance() -> ViewGraph:
    rng = np.random.default_rng(5)
    n = 1000
    t = rng.normal(size=(n, 3))
    flat = np.unique(rng.integers(0, n * n, size=40_000))
    i, j = flat // n, flat % n
    keep = i < j
    i, j = i[keep], j[keep]
    d = t[i] - t[j] + 0.05 * rng.normal(size=(i.size, 3))
    g = ViewGraph.from_arrays(n, i, j, d / np.linalg.norm(d, axis=1, keepdims=True))
    assert g.active_vertices().size == n
    return g


def traced_peak(fn):
    """``fn()`` and the peak of its traced allocations in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_spectral_memory_far_below_dense_form():
    """At N = 1000 the dense 3N x 3N form alone would take 72 MB."""
    g = spectral_memory_instance()
    _, peak = traced_peak(lambda: solve_ls_spectral(g))
    assert peak < 24e6


def test_krylov_basis_grows_with_the_vectors_used(monkeypatch):
    """The basis is allocated a chunk at a time: against a basis of the full
    cap allocated up front, the traced peak at N = 1000 drops by at least
    the rows that were never used, and the solution is the same to the bit."""
    g = spectral_memory_instance()
    dim = 3 * g.n
    used = []
    real_form = solvers._form

    def counting_form(g, ends, n):
        matvec, c = real_form(g, ends, n)

        def counted(q):
            used.append(q.shape[0])
            return matvec(q)

        return counted, c

    monkeypatch.setattr(solvers, "_form", counting_form)
    est, peak = traced_peak(lambda: solve_ls_spectral(g))
    vectors = sum(used)
    chunk, cap = solvers._KRYLOV_CHUNK, solvers._KRYLOV_MAX_COLS
    monkeypatch.setattr(solvers, "_KRYLOV_CHUNK", cap)
    full, full_peak = traced_peak(lambda: solve_ls_spectral(g))

    assert sum(used) == 2 * vectors
    # rows of the grown basis, and the bytes of the rows it never allocated
    rows = -(-vectors // chunk) * chunk
    unused = (cap - rows) * dim * 8
    assert unused > 4e6
    assert full_peak - peak >= unused
    assert np.array_equal(est.locations.vertices, full.locations.vertices)
    assert np.array_equal(est.locations.coords, full.locations.coords)
    assert np.array_equal(est.residuals, full.residuals)


class TestFailedFactorization:
    def test_spectral_non_convergence(self, monkeypatch):
        # the basis cap cuts the iteration before the residuals are small
        monkeypatch.setattr(solvers, "_KRYLOV_MAX_COLS", 8)
        with pytest.raises(DegenerateInstanceError, match="did not converge within 8 Krylov vectors"):
            solve_ls_spectral(oracle_instance("uc60"))

    def test_failed_laplacian_factorization(self, monkeypatch):
        # the spectral start inverts nothing, so only the Laplacian fails
        def fails(a):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, "inv", fails)
        with pytest.raises(DegenerateInstanceError, match="^graph Laplacian is singular: forced failure$"):
            solve_irls_lud(oracle_instance("k20"), max_iters=5)

    @staticmethod
    def nan_start(monkeypatch):
        """Make the spectral start put vertex 0 at NaN."""
        real = solvers._solve_spectral

        def start(g):
            verts, ends, t, res = real(g)
            t = t.copy()
            t[0] = np.nan
            return verts, ends, t, res

        monkeypatch.setattr(solvers, "_solve_spectral", start)

    def test_non_finite_start_fails_before_inverting(self, monkeypatch):
        self.nan_start(monkeypatch)
        inverted = []
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(1) or real(a))
        with pytest.raises(DegenerateInstanceError) as exc:
            solve_irls_lud(oracle_instance("k20"), max_iters=5)
        assert str(exc.value) == "LUD start is not finite"
        assert not inverted

    def test_cli_reports_non_finite_start_in_one_line(self, monkeypatch, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        write_edge_list(oracle_instance("k20"), str(edges))
        self.nan_start(monkeypatch)
        out = tmp_path / "estimate.txt"
        code = main(["solve", "--edges", str(edges), "--solver", "irls", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: LUD start is not finite\n"
        assert not out.exists()

    def test_cli_reports_one_line(self, monkeypatch, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        write_edge_list(oracle_instance("uc60"), str(edges))
        monkeypatch.setattr(solvers, "_KRYLOV_MAX_COLS", 8)
        out = tmp_path / "estimate.txt"
        code = main(["solve", "--edges", str(edges), "--solver", "ls", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "did not converge" in err and "Traceback" not in err
        assert not out.exists()


class TestAlignment:
    def test_identity(self, rng):
        t = every_vertex(rng.normal(size=(5, 3)))
        s, b, aligned = align_similarity(t, t)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(b) <= 1e-12
        assert np.abs(aligned.coords - t.coords).max() <= 1e-12

    def test_exact_inverse(self, rng):
        gt = every_vertex(rng.normal(size=(5, 3)))
        est = every_vertex(2.0 * gt.coords + 1.0)
        s, b, aligned = align_similarity(est, gt)
        assert s == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(b, -0.5, atol=1e-12)
        assert np.abs(aligned.coords - gt.coords).max() <= 1e-12

    def test_vertex_mismatch(self, rng):
        gt = every_vertex(rng.normal(size=(3, 3)))
        est = every_vertex(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match=r"^vertices \[3\] have no reference location$"):
            align_similarity(est, gt)

    def test_empty_estimate(self):
        with pytest.raises(ValueError, match="^empty estimate$"):
            align_similarity(every_vertex(np.zeros((0, 3))), every_vertex(np.ones((3, 3))))

    def test_coincident_estimate_rejected(self):
        est = every_vertex(np.zeros((3, 3)))
        gt = every_vertex(np.ones((3, 3)) * np.arange(3)[:, None])
        with pytest.raises(ValueError, match="coincide"):
            align_similarity(est, gt)

    @pytest.fixture(scope="class")
    def ls_estimate(self):
        g, gt = generate_uc(UCParams(n=60, p=0.5, q=0.2, sigma=0.05, seed=5))
        return solve_ls_spectral(g).locations, gt.locations

    @pytest.mark.parametrize(
        "scale",
        [1e-300, 1e-200, 1e-160, 1e-12, 1e-9, 1e-8, 1e-6, 1.0, 1e6, 1e12, 1e160, 1e200, 1e300],
    )
    def test_any_scale_aligns(self, ls_estimate, scale):
        est, gt = ls_estimate
        scaled = Locations(est.vertices, scale * est.coords)
        assert aligned_errors(scaled, gt) == pytest.approx(aligned_errors(est, gt), rel=1e-9)

    @pytest.mark.parametrize("size", [1e-300, 1e-12, 1.0, 1e12, 1e300])
    def test_equal_rows_rejected_at_any_size(self, size):
        # the mean of these rows rounds, so the centred rows need not be 0
        est = every_vertex(np.tile(size * np.array([0.1, -0.7, 0.3]), (60, 1)))
        gt = every_vertex(np.arange(180.0).reshape(60, 3))
        with pytest.raises(ValueError, match="^all source points coincide; similarity fit"):
            align_similarity(est, gt)

    def test_memory_layout_leaves_no_trace(self, rng):
        # a robust estimate comes column-major, one read from a file row-major
        gt = every_vertex(rng.normal(size=(200, 3)))
        est = rng.normal(size=(200, 3))
        by_rows = align_similarity(every_vertex(est), gt)
        by_columns = align_similarity(every_vertex(np.asfortranarray(est)), gt)
        assert by_rows[0] == by_columns[0]
        assert by_rows[1].tobytes() == by_columns[1].tobytes()
        assert by_rows[2].coords.tobytes() == by_columns[2].coords.tobytes()

    def test_reflection_absorbed(self, rng):
        gt = every_vertex(rng.normal(size=(6, 3)))
        est = every_vertex(-gt.coords)
        s, _, aligned = align_similarity(est, gt)
        assert s == pytest.approx(-1.0, abs=1e-12)
        assert np.abs(aligned.coords - gt.coords).max() <= 1e-12

    def test_gauge_invariance_of_errors(self, rng):
        t = rng.normal(size=(5, 3))
        g = complete_graph_from_locations(t)
        est = solve_ls_spectral(g)
        gt1 = every_vertex(t)
        gt2 = every_vertex(3.5 * t + np.array([1.0, -2.0, 0.5]))
        e1 = aligned_errors(est, gt1)[0]
        e2 = aligned_errors(est, gt2)[0] / 3.5
        assert e1 == pytest.approx(e2, abs=1e-9)
