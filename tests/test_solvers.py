"""Tests of the spectral and robust location solvers and the alignment."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from aabscreen import solvers
from aabscreen.aabstats import AABConfig, ir_aab
from aabscreen.cli import main
from aabscreen.fileio import write_edge_list
from aabscreen.graph import ViewGraph
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
from dense_solvers import dense_form, dense_irls_lud, dense_lowest_eigenpairs, dense_solve_spectral


def aligned_errors(est, gt_locs):
    _, _, aligned = align_similarity(est, gt_locs)
    d = np.array([np.linalg.norm(aligned[v] - gt_locs[v]) for v in aligned])
    return float(d.mean()), float(np.median(d))


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
    return ViewGraph(8, [tuple(e) for e in edges]), {v: t[v] for v in range(8)}


class TestSpectral:
    def test_exact_k4_recovery(self, rng):
        t = rng.normal(size=(4, 3))
        g = complete_graph_from_locations(t)
        est = solve_ls_spectral(g)
        mean_err, _ = aligned_errors(est, {v: t[v] for v in range(4)})
        assert mean_err <= 1e-6

    def test_two_vertex_instance(self):
        g = ViewGraph(2, [(0, 1, np.array([0.0, 0.0, 1.0]))])
        est = solve_ls_spectral(g)
        assert est.residuals.shape == (1,)
        assert est.residuals[0] <= 1e-12
        # matches (0, 0, 1/2), (0, 0, -1/2) up to the scale/sign gauge
        target = {0: np.array([0.0, 0.0, 0.5]), 1: np.array([0.0, 0.0, -0.5])}
        _, _, aligned = align_similarity(est, target)
        assert max(np.linalg.norm(aligned[v] - target[v]) for v in (0, 1)) <= 1e-9

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
        pts = np.array(list(est.locations.values()))
        assert np.linalg.norm(pts.mean(axis=0)) <= 1e-9
        assert abs((pts**2).sum() - 1.0) <= 1e-9

    def test_objective_equals_sum_of_squared_residuals(self):
        g, _ = generate_uc(UCParams(n=30, p=0.6, q=0.2, sigma=0.05, seed=4))
        est = solve_ls_spectral(g)
        verts = np.array(sorted(est.locations))
        t = np.array([est.locations[v] for v in verts]).ravel()
        matvec, _ = _form(g, verts)
        quad = float(t @ matvec(t[None])[0])
        assert est.residuals.shape == (g.num_edges,)
        ssq = float((est.residuals**2).sum())
        assert quad == pytest.approx(ssq, abs=1e-9)

    def test_quadratic_form_matches_direct_sum(self, rng):
        g, _ = generate_uc(UCParams(n=25, p=0.6, q=0.3, sigma=0.1, seed=5))
        verts = g.active_vertices()
        matvec, _ = _form(g, verts)
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
        mean_err, _ = aligned_errors(est, {v: t[v] for v in range(4)})
        assert mean_err <= 1e-6
        assert est.converged
        assert est.iterations <= 3
        assert est.residuals.shape == (g.num_edges,)
        assert np.isfinite(est.residuals).all()

    def test_robust_to_corrupted_edges(self):
        wins = 0
        for seed in range(10):
            g, gt = corrupted_k8(seed)
            _, med_ls = aligned_errors(solve_ls_spectral(g), gt)
            _, med_ir = aligned_errors(solve_irls_lud(g), gt)
            wins += med_ir < med_ls
        assert wins >= 8

    def test_objective_trace_non_increasing(self):
        g, _ = generate_uc(UCParams(n=40, p=0.5, q=0.3, sigma=0.05, seed=6))
        est = solve_irls_lud(g)
        trace = est.objective_trace
        assert trace, "robust solver records its objective"
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_validation(self):
        g = ViewGraph(2, [(0, 1, np.array([0.0, 0.0, 1.0]))])
        with pytest.raises(ValueError):
            solve_irls_lud(g, max_iters=0)
        with pytest.raises(ValueError):
            solve_irls_lud(g, delta=0.0)

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
        matvec, c = _form(g, verts)
        assert np.abs(matvec(x) - x @ a).max() <= 1e-13 * np.abs(a).sum(axis=1).max()
        # c is the Gershgorin bound: the largest absolute row sum of the form
        assert c == pytest.approx(np.abs(a).sum(axis=1).max(), rel=1e-12)
        assert np.linalg.eigvalsh(a).max() <= c

    @pytest.mark.parametrize("name", ORACLE_INSTANCES)
    def test_spectral_matches_dense(self, name):
        g = oracle_instance(name)
        verts, t, res = _solve_spectral(g)
        verts_o, t_o, res_o = dense_solve_spectral(g)
        assert np.array_equal(verts, verts_o)
        # the eigenvector sign is arbitrary on both paths
        sign = 1.0 if np.sum(t * t_o) >= 0.0 else -1.0
        assert np.abs(sign * t - t_o).max() <= 1e-12
        assert np.abs(res - res_o).max() <= 1e-12

        evals, _ = _lowest_eigenpairs(g, verts)
        evals_o, _ = dense_lowest_eigenpairs(g, verts)
        gap, gap_o = evals[1] - evals[0], evals_o[1] - evals_o[0]
        assert abs(gap - gap_o) <= 1e-9 * gap_o

    @pytest.mark.parametrize("name", ORACLE_INSTANCES)
    def test_irls_matches_dense(self, name):
        g = oracle_instance(name)
        est = solve_irls_lud(g)
        ref = dense_irls_lud(g)
        assert est.iterations == ref.iterations
        assert est.converged == ref.converged
        t = np.array([est.locations[v] for v in sorted(est.locations)])
        t_o = np.array([ref.locations[v] for v in sorted(ref.locations)])
        assert np.abs(t - t_o).max() <= 1e-8
        trace, trace_o = np.array(est.objective_trace), np.array(ref.objective_trace)
        assert trace.shape == trace_o.shape
        assert np.all(np.abs(trace - trace_o) <= 1e-9 * np.abs(trace_o))

    @pytest.mark.parametrize(
        "make",
        [lambda: complete_graph_from_locations(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])), bowtie],
        ids=["collinear", "non_rigid"],
    )
    def test_degenerate_on_both_paths(self, make):
        g = make()
        for solve in (solve_ls_spectral, solve_irls_lud, dense_irls_lud):
            with pytest.raises(DegenerateInstanceError):
                solve(g)
        with pytest.raises(DegenerateInstanceError):
            dense_solve_spectral(g)


def test_spectral_memory_far_below_dense_form():
    """At N = 1000 the dense 3N x 3N form alone would take 72 MB."""
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

    tracemalloc.start()
    try:
        solve_ls_spectral(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


class TestFailedFactorization:
    def test_spectral_non_convergence(self, monkeypatch):
        # the basis cap cuts the iteration before the residuals are small
        monkeypatch.setattr(solvers, "_KRYLOV_MAX_COLS", 8)
        with pytest.raises(DegenerateInstanceError, match="did not converge within 8 Krylov vectors"):
            solve_ls_spectral(oracle_instance("uc60"))

    def test_failed_laplacian_factorization(self, monkeypatch):
        g = oracle_instance("k20")
        real = scipy.linalg.cho_factor

        def laplacian_fails(a, **kwargs):
            if a.shape[0] == 20:
                raise np.linalg.LinAlgError("forced failure")
            return real(a, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", laplacian_fails)
        with pytest.raises(DegenerateInstanceError, match="weighted Laplacian"):
            solve_irls_lud(g, max_iters=5)

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
        t = {v: rng.normal(size=3) for v in range(5)}
        s, b, aligned = align_similarity(t, t)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(b) <= 1e-12
        assert all(np.linalg.norm(aligned[v] - t[v]) <= 1e-12 for v in t)

    def test_exact_inverse(self, rng):
        gt = {v: rng.normal(size=3) for v in range(5)}
        est = {v: 2.0 * gt[v] + 1.0 for v in gt}
        s, b, aligned = align_similarity(est, gt)
        assert s == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(b, -0.5, atol=1e-12)
        assert all(np.linalg.norm(aligned[v] - gt[v]) <= 1e-12 for v in gt)

    def test_vertex_mismatch(self, rng):
        gt = {v: rng.normal(size=3) for v in range(3)}
        est = {v: rng.normal(size=3) for v in range(4)}
        with pytest.raises(ValueError, match="reference"):
            align_similarity(est, gt)

    def test_coincident_estimate_rejected(self):
        est = {v: np.zeros(3) for v in range(3)}
        gt = {v: np.ones(3) * v for v in range(3)}
        with pytest.raises(ValueError, match="coincide"):
            align_similarity(est, gt)

    def test_reflection_absorbed(self, rng):
        gt = {v: rng.normal(size=3) for v in range(6)}
        est = {v: -gt[v] for v in gt}
        s, _, aligned = align_similarity(est, gt)
        assert s == pytest.approx(-1.0, abs=1e-12)
        assert all(np.linalg.norm(aligned[v] - gt[v]) <= 1e-12 for v in gt)

    def test_gauge_invariance_of_errors(self, rng):
        t = rng.normal(size=(5, 3))
        g = complete_graph_from_locations(t)
        est = solve_ls_spectral(g)
        gt1 = {v: t[v] for v in range(5)}
        gt2 = {v: 3.5 * t[v] + np.array([1.0, -2.0, 0.5]) for v in range(5)}
        e1 = aligned_errors(est, gt1)[0]
        e2 = aligned_errors(est, gt2)[0] / 3.5
        assert e1 == pytest.approx(e2, abs=1e-9)
