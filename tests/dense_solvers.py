"""Dense reference solvers: the spectral and IRLS solves as first written.

The spectral solve assembles the form as an (N, N, 3, 3) block array with
``np.add.at``, lifts translations with a ``np.kron`` penalty and takes the
two smallest eigenpairs from a full ``scipy.linalg.eigh``.  Each IRLS round
builds its Laplacian with ``np.add.at`` and solves it with
``scipy.linalg.solve``.  The library's spectral solve is matrix-free and its
IRLS rounds factor; these copies are the numeric oracles both are checked
against.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from aabscreen.graph import ViewGraph
from aabscreen.solvers import (
    _CONVERGENCE_TOL,
    _GAP_TOL,
    DegenerateInstanceError,
    _edge_residuals,
    _fit_similarity,
    _gauge_fixed,
    _solver_vertices,
    _to_estimate,
)


def dense_form(g: ViewGraph, verts: np.ndarray) -> np.ndarray:
    """3N x 3N quadratic form of the projection objective."""
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[verts] = np.arange(verts.size)
    ip = pos[g.edge_array[:, 0]]
    jp = pos[g.edge_array[:, 1]]

    d = g.direction_array
    proj = np.eye(3)[None, :, :] - d[:, :, None] * d[:, None, :]

    n = verts.size
    blocks = np.zeros((n, n, 3, 3))
    np.add.at(blocks, (ip, ip), proj)
    np.add.at(blocks, (jp, jp), proj)
    np.add.at(blocks, (ip, jp), -proj)
    np.add.at(blocks, (jp, ip), -proj)
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def dense_lowest_eigenpairs(g: ViewGraph, verts: np.ndarray):
    """(eigenvalues, eigenvectors) of the two smallest pairs of the lifted form."""
    n = verts.size
    a = dense_form(g, verts)
    mu = 2.0 * float(np.abs(a).sum(axis=1).max()) + 1.0
    lift = np.kron(np.full((n, n), mu / n), np.eye(3))
    return scipy.linalg.eigh(a + lift, subset_by_index=[0, 1])


def dense_solve_spectral(g: ViewGraph):
    """(verts, t, residuals) of one constrained eigen-solve."""
    verts = _solver_vertices(g)
    n = verts.size
    evals, evecs = dense_lowest_eigenpairs(g, verts)
    if evals[1] - evals[0] < _GAP_TOL:
        raise DegenerateInstanceError(
            f"constrained spectral gap {evals[1] - evals[0]:.3e} below {_GAP_TOL}"
        )
    t = evecs[:, 0].reshape(n, 3)
    t = t - t.mean(axis=0)
    t = t / np.linalg.norm(t)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[verts] = np.arange(n)
    return verts, t, _edge_residuals(g, pos, t)


def dense_irls_lud(g: ViewGraph, max_iters: int = 100, delta: float = 1e-8):
    """``solve_irls_lud`` on the dense reference solves."""
    verts, t, _ = dense_solve_spectral(g)
    n = verts.size
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[verts] = np.arange(n)
    ia = pos[g.edge_array[:, 0]]
    ja = pos[g.edge_array[:, 1]]
    gam = g.direction_array

    dots = np.einsum("ij,ij->i", t[ia] - t[ja], gam)
    if dots.sum() < 0.0:
        t = -t
        dots = -dots
    positive = dots[dots > 0.0]
    med = float(np.median(positive)) if positive.size else 1.0
    low = float(positive.min()) if positive.size else 1.0
    t = t * min(1.0 / max(low, 1e-12), 10.0 / max(med, 1e-12))

    def smoothed_objective(r):
        small = r < delta
        return float(np.where(small, (r * r + delta * delta) / (2.0 * delta), r).sum())

    trace = []
    converged = False
    iterations = 1
    for _ in range(max_iters - 1):
        diffs = t[ia] - t[ja]
        ell = np.maximum(1.0, np.einsum("ij,ij->i", diffs, gam))
        r = np.linalg.norm(diffs - ell[:, None] * gam, axis=1)
        w = 1.0 / np.maximum(r, delta)

        lap = np.zeros((n, n))
        np.add.at(lap, (ia, ia), w)
        np.add.at(lap, (ja, ja), w)
        np.add.at(lap, (ia, ja), -w)
        np.add.at(lap, (ja, ia), -w)
        rhs = np.zeros((n, 3))
        contrib = (w * ell)[:, None] * gam
        np.add.at(rhs, ia, contrib)
        np.add.at(rhs, ja, -contrib)
        mu = float(np.trace(lap)) / n + 1.0
        t_new = scipy.linalg.solve(lap + mu / n, rhs, assume_a="pos")
        t_new = t_new - t_new.mean(axis=0)

        iterations += 1
        diffs = t_new[ia] - t_new[ja]
        ell = np.maximum(1.0, np.einsum("ij,ij->i", diffs, gam))
        trace.append(smoothed_objective(np.linalg.norm(diffs - ell[:, None] * gam, axis=1)))

        a = _gauge_fixed(t_new)
        b = _gauge_fixed(t)
        s, shift = _fit_similarity(a, b)
        change = float(np.linalg.norm(s * a + shift - b))
        t = t_new
        if change <= _CONVERGENCE_TOL:
            converged = True
            break

    t = _gauge_fixed(t)
    est = _to_estimate(verts, t, _edge_residuals(g, pos, t), converged, iterations)
    est.objective_trace = trace
    return est
