"""Dense reference solvers: the spectral solve as first written, and LUD
run to high accuracy.

The spectral solve assembles the form as an (N, N, 3, 3) block array with
``np.add.at``, lifts translations with a ``np.kron`` penalty and takes the
two smallest eigenpairs from a full ``scipy.linalg.eigh``.  The LUD
reference multiplies by a dense incidence matrix and solves each t-step
with a Cholesky factorization, where the library gathers, sums with
``bincount`` and multiplies by an inverse, and it returns a dual point that
certifies how close its objective is to the optimum.  The library's solves
are checked against these.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from aabscreen.graph import ViewGraph
from aabscreen.solvers import _GAP_TOL, DegenerateInstanceError, _edge_residuals, _solver_vertices


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
    """(verts, ends, t, residuals) of one constrained eigen-solve."""
    verts, ends = _solver_vertices(g)
    n = verts.size
    evals, evecs = dense_lowest_eigenpairs(g, verts)
    if evals[1] - evals[0] < _GAP_TOL:
        raise DegenerateInstanceError(
            f"constrained spectral gap {evals[1] - evals[0]:.3e} below {_GAP_TOL}"
        )
    t = evecs[:, 0].reshape(n, 3)
    t = t - t.mean(axis=0)
    t = t / np.linalg.norm(t)
    return verts, ends, t, _edge_residuals(g, ends, t)


def dense_lud(g: ViewGraph, tol: float = 1e-10, max_iters: int = 20_000):
    """LUD to high accuracy: over-relaxed ADMM at a fixed penalty on the
    dense incidence matrix B, each t-step a direct solve; returns
    (objective, lam).

    ``lam`` is the multiplier of y = Bt, rho u, projected onto
    {B^T lam = 0}.  The dual of LUD is max -sum <gamma_e, lam_e> subject to
    B^T lam = 0, ||lam_e|| <= 1 and <gamma_e, lam_e> <= 0, so a ``lam`` that
    meets the last two, after the projection moved it, certifies a lower
    bound on the optimum.  The iteration stops once the primal and dual
    residuals are both at most ``tol``.
    """
    verts, ends, t, _ = dense_solve_spectral(g)
    n, m = verts.size, g.num_edges
    b = np.zeros((m, n))
    b[np.arange(m), ends[0]] = 1.0
    b[np.arange(m), ends[1]] = -1.0
    # components lead, t as (3, N) and y as (3, m): BLAS multiplies three
    # rows by b far faster than b by three columns
    gam = g.direction_array.T
    t = t.T

    # a start near the optimum's scale, which the optimum does not depend on:
    # the shortest positive displacement along its direction at length 1,
    # unless that makes the median one longer than 10
    dots = np.einsum("ij,ij->j", t @ b.T, gam)
    if dots.sum() < 0.0:
        t, dots = -t, -dots
    positive = dots[dots > 0.0]
    t = t * min(1.0 / max(positive.min(), 1e-12), 10.0 / max(np.median(positive), 1e-12))

    alpha, rho = 1.8, 1.0
    factor = scipy.linalg.cho_factor(b.T @ b + 1.0 / n)
    y = t @ b.T
    u = np.zeros_like(y)
    for _ in range(max_iters):
        t = scipy.linalg.cho_solve(factor, ((y - u) @ b).T).T
        bt = t @ b.T
        v = alpha * bt + (1.0 - alpha) * y + u
        d = v - np.maximum(1.0, np.einsum("ij,ij->j", v, gam)) * gam
        y_prev = y
        y = v - d / np.maximum(1.0, rho * np.linalg.norm(d, axis=0))
        u = v - y
        if max(np.linalg.norm(bt - y), rho * np.linalg.norm((y - y_prev) @ b)) <= tol:
            break
    else:
        raise AssertionError(f"reference LUD did not reach {tol} in {max_iters} iterations")

    diffs = t @ b.T
    ell = np.maximum(1.0, np.einsum("ij,ij->j", diffs, gam))
    objective = float(np.linalg.norm(diffs - ell * gam, axis=0).sum())
    # the part of lam in the range of B is B x, with x solving the same
    # system as a t-step
    lam = rho * u
    lam -= scipy.linalg.cho_solve(factor, (lam @ b).T).T @ b.T
    return objective, lam.T
