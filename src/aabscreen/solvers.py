"""Camera location recovery from pairwise directions at desk scale.

The least-squares solver minimizes projection residuals ||P(t_i - t_j)||^2
with P = I - gamma gamma^T, the component of the displacement orthogonal to
the measured direction, as a single constrained eigenvector problem.

The robust solver approximately minimizes the sum of unsquared deviations
||(t_i - t_j) - l_e gamma_e|| over locations and per-edge displacement
lengths l_e >= 1, by alternating exact length updates with inverse-residual
weighted Laplacian solves (initialized from the spectral solution).  The
length floor is essential: under a norm gauge alone, the unsquared objective
is globally minimized by near-collapsed configurations once a sizable
fraction of directions is corrupted, and plain reweighting of the spectral
problem descends straight into them.

Both solves are dense and factor instead of diagonalizing.  The spectral
solve assembles the 3N x 3N form in one float64 array, its only O(N^2)
memory (72 MB at N = 1000), adds the centroid lift and a tiny diagonal
shift in place, Cholesky-factors it in place, and finds the two smallest
eigenpairs by shift-invert block Krylov iteration on that one factor.  Each
IRLS round builds its N x N Laplacian with one bincount and solves it with
one Cholesky factorization.  A factorization that fails raises
DegenerateInstanceError.  At the densities screening leaves (tens of edges
per vertex) a sparse LU of these matrices fills most of the dense one, and
preconditioned CG needs hundreds of iterations per solve.

Locations are recoverable only up to translation and scale (and a global
reflection, since the residuals are even in t).  Estimates are gauge-fixed
to zero centroid and unit sum of squared norms over the solved vertices;
comparisons against ground truth go through the closed-form similarity
alignment, whose scale is sign-free and absorbs the reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from .graph import ViewGraph

__all__ = [
    "DegenerateInstanceError",
    "LocationEstimate",
    "solve_ls_spectral",
    "solve_irls_lud",
    "align_similarity",
]

# Gap between the two smallest constrained eigenvalues below which the
# instance does not pin down a unique location shape.
_GAP_TOL = 1e-10

_CONVERGENCE_TOL = 1e-10

# Diagonal shift, relative to the centroid lift, that keeps the lifted form
# positive definite when its smallest eigenvalue is 0.
_SHIFT = 1e-8

# Krylov eigensolver: start vectors, steps between convergence checks,
# residual tolerance relative to the largest Ritz value, and basis cap.
_KRYLOV_BLOCK = 2
_KRYLOV_CHECK = 4
_KRYLOV_TOL = 1e-13
_KRYLOV_MAX_COLS = 400

# Rows per block when scanning the dense form for its largest row sum.
_ROW_BLOCK = 256


class DegenerateInstanceError(RuntimeError):
    """The directions do not determine the locations up to gauge."""


@dataclass
class LocationEstimate:
    """Gauge-fixed location estimate over the solved vertex set.

    ``residuals`` holds the projection residual of the final iterate for
    each row of the solved graph's ``edge_array``.  ``objective_trace``
    (robust solver only) records the smoothed unsquared objective after
    every iteration.
    """

    locations: dict[int, np.ndarray]
    residuals: np.ndarray
    converged: bool
    iterations: int
    objective_trace: list[float] | None = None


def _solver_vertices(g: ViewGraph) -> np.ndarray:
    verts = g.active_vertices()
    if verts.size < 2:
        raise ValueError("need at least 2 vertices with edges")
    if not g.is_connected_over_active():
        raise ValueError("measurement graph is not connected")
    return verts


def _vertex_positions(g: ViewGraph, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map from vertex id to row of the solve, and the rows of each edge's ends."""
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[verts] = np.arange(verts.size)
    return pos, pos[g.edge_array[:, 0]], pos[g.edge_array[:, 1]]


def _assemble(g: ViewGraph, verts: np.ndarray) -> np.ndarray:
    """Dense 3N x 3N quadratic form of the projection objective.

    Edge e between rows i and j adds its projector P_e to the (i, i) and
    (j, j) blocks and -P_e to the (i, j) and (j, i) blocks; one bincount over
    flat indices sums all of them straight into the result.
    """
    _, ip, jp = _vertex_positions(g, verts)
    d = g.direction_array
    proj = np.eye(3)[None, :, :] - d[:, :, None] * d[:, None, :]

    n3 = 3 * verts.size
    comp = np.arange(3)
    rows = 3 * np.stack([ip, jp, ip, jp])[:, :, None, None] + comp[:, None]
    cols = 3 * np.stack([ip, jp, jp, ip])[:, :, None, None] + comp
    vals = np.stack([proj, proj, -proj, -proj])
    flat = np.bincount((rows * n3 + cols).ravel(), weights=vals.ravel(), minlength=n3 * n3)
    return flat.reshape(n3, n3)


def _cholesky(a: np.ndarray, what: str):
    """Cholesky-factor the symmetric ``a`` in its own storage; returns the
    function b -> a^-1 b.

    The one use of scipy: it is imported here, on the first factorization,
    so that callers which only align or evaluate never pay its import.
    """
    import scipy.linalg

    try:
        # a.T is the Fortran-ordered view of the same symmetric matrix, so
        # LAPACK factors it in place instead of copying it first
        factor = scipy.linalg.cho_factor(a.T, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInstanceError(f"{what} is not positive definite: {exc}") from None
    return partial(scipy.linalg.cho_solve, factor, check_finite=False)


def _top_inverse_pairs(solve, dim: int) -> np.ndarray:
    """Eigenvectors of the two largest eigenvalues of the inverse of a
    symmetric positive definite matrix, given as the ``solve`` that
    ``_cholesky`` returns, as the columns of a (dim, 2) array.

    Block Krylov iteration on the inverse from a fixed start block, with
    full reorthogonalization.  Every few steps a Rayleigh-Ritz projection
    gives the two leading Ritz pairs; it stops once both residuals are below
    ``_KRYLOV_TOL`` times the largest Ritz value, or once the basis spans the
    whole space.  A block of two finds a doubled leading eigenvalue, the
    signature of a degenerate instance, which a single start vector cannot.
    """
    cap = min(dim, _KRYLOV_MAX_COLS)
    # column-major, so that the columns not reached take no memory
    basis = np.empty((dim, cap), order="F")
    images = np.empty((dim, cap), order="F")
    block = min(_KRYLOV_BLOCK, dim)
    basis[:, :block] = np.linalg.qr(np.random.default_rng(0).standard_normal((dim, block)))[0]
    k = 0
    step = 0
    while True:
        q = basis[:, k : k + block]
        w = solve(q)
        images[:, k : k + block] = w
        k += block
        step += 1
        if step % _KRYLOV_CHECK == 0 or k == cap:
            h = basis[:, :k].T @ images[:, :k]
            nu, y = np.linalg.eigh(h + h.T)
            nu, y = nu[:-3:-1] / 2.0, y[:, :-3:-1]
            x = basis[:, :k] @ y
            res = np.linalg.norm(images[:, :k] @ y - x * nu, axis=0)
            if res.max() <= _KRYLOV_TOL * nu[0] or k == dim:
                return x
            if k == cap:
                raise DegenerateInstanceError(
                    f"spectral solve did not converge within {cap} Krylov vectors"
                )
        # twice on each side of the QR, so that a nearly dependent new block
        # cannot bring back directions the basis already holds
        done = basis[:, :k]
        block = min(block, cap - k)
        w = w[:, :block]
        for _ in range(2):
            w = w - done @ (done.T @ w)
        w = np.linalg.qr(w)[0]
        for _ in range(2):
            w = w - done @ (done.T @ w)
        basis[:, k : k + block] = np.linalg.qr(w)[0]


def _edge_residuals(g: ViewGraph, pos: np.ndarray, t: np.ndarray) -> np.ndarray:
    ti = t[pos[g.edge_array[:, 0]]]
    tj = t[pos[g.edge_array[:, 1]]]
    diff = ti - tj
    d = g.direction_array
    along = np.einsum("ij,ij->i", diff, d)
    rej = diff - along[:, None] * d
    return np.linalg.norm(rej, axis=1)


def _lowest_eigenpairs(g: ViewGraph, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two smallest eigenpairs of the centroid-lifted form.

    Returns (eigenvalues, eigenvectors as the columns of a (3N, 2) array).
    """
    n = verts.size
    a = _assemble(g, verts)

    # Rigid translations span a 3-dim null space of the form; lift them with
    # a centroid penalty so the smallest eigenvector is automatically
    # centroid-free.  Scanning in row blocks keeps the temporary of
    # absolute values small.
    rows = range(0, 3 * n, _ROW_BLOCK)
    mu = 2.0 * max(float(np.abs(a[r : r + _ROW_BLOCK]).sum(axis=1).max()) for r in rows) + 1.0
    blocks = a.reshape(n, 3, n, 3)
    for c in range(3):
        blocks[:, c, :, c] += mu / n

    # Shift-invert: the largest eigenvalues of the inverse belong to the
    # smallest of the form.  The shift keeps the factorization defined when
    # the smallest eigenvalue is 0 (noise-free directions); eigenvalues are
    # taken as Rayleigh quotients of the unshifted form, so it cancels.
    a.reshape(-1)[:: 3 * n + 1] += _SHIFT * mu
    vecs = _top_inverse_pairs(_cholesky(a, "constrained spectral form"), 3 * n)

    pos, _, _ = _vertex_positions(g, verts)
    evals = np.empty(2)
    for k in range(2):
        t = vecs[:, k].reshape(n, 3)
        sq = _edge_residuals(g, pos, t) ** 2
        evals[k] = float(sq.sum()) + mu / n * float(np.sum(t.sum(axis=0) ** 2))
    return evals, vecs


def _gauge_fixed(t: np.ndarray) -> np.ndarray:
    c = t - t.mean(axis=0)
    return c / np.linalg.norm(c)


def _solve_spectral(g: ViewGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One constrained eigen-solve; returns (verts, t, residuals)."""
    verts = _solver_vertices(g)
    evals, evecs = _lowest_eigenpairs(g, verts)

    if evals[1] - evals[0] < _GAP_TOL:
        raise DegenerateInstanceError(
            f"constrained spectral gap {evals[1] - evals[0]:.3e} below {_GAP_TOL}; "
            "instance is (near-)degenerate"
        )

    t = _gauge_fixed(evecs[:, 0].reshape(verts.size, 3))
    pos, _, _ = _vertex_positions(g, verts)
    return verts, t, _edge_residuals(g, pos, t)


def _to_estimate(verts, t, res, converged: bool, iterations: int) -> LocationEstimate:
    locations = {int(v): t[k].copy() for k, v in enumerate(verts)}
    return LocationEstimate(
        locations=locations, residuals=res, converged=converged, iterations=iterations
    )


def solve_ls_spectral(g: ViewGraph) -> LocationEstimate:
    """Least-squares locations: smallest constrained eigenvector.

    Minimizes the sum of squared projection residuals subject to zero
    centroid and unit total squared norm.  Raises DegenerateInstanceError
    when the two smallest constrained eigenvalues (nearly) coincide, e.g.
    for collinear locations or non-rigid graphs.
    """
    verts, t, res = _solve_spectral(g)
    return _to_estimate(verts, t, res, converged=True, iterations=1)


def solve_irls_lud(g: ViewGraph, max_iters: int = 100, delta: float = 1e-8) -> LocationEstimate:
    """Robust locations by iteratively reweighted least squares.

    Approximately minimizes the sum over edges of the distance from
    t_i - t_j to the ray {l * gamma : l >= 1}.  Starting from the spectral
    solution (sign- and scale-adjusted so the length floor starts inactive
    on typical edges), each round sets l_e = max(1, <t_i - t_j, gamma_e>),
    computes residuals r_e = ||(t_i - t_j) - l_e gamma_e|| and weights
    1 / max(r_e, delta), and solves the weighted normal equations, a graph
    Laplacian system.  The floor l >= 1 prevents the near-collapsed
    configurations that otherwise minimize the unsquared objective under
    heavy corruption; ``delta`` is the residual scale below which an edge is
    treated as an inlier.

    Iterates are compared after gauge fixing and similarity alignment;
    convergence at change <= 1e-10 or after ``max_iters`` total iterations
    (the initialization counts as the first).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")

    verts, t, _ = _solve_spectral(g)
    n = verts.size
    pos, ia, ja = _vertex_positions(g, verts)
    gam = g.direction_array
    # flat indices of each edge's four Laplacian entries and its two rows of
    # the right-hand side, in the order the bincounts below sum them
    lap_index = np.concatenate([ia * n + ia, ja * n + ja, ia * n + ja, ja * n + ia])
    rhs_index = (3 * np.concatenate([ia, ja])[:, None] + np.arange(3)).ravel()

    # Resolve the spectral sign ambiguity toward positive displacements and
    # rescale so the length floor starts inactive: consistent data then has
    # every l_e = <diff, gamma> >= 1 and the exact shape is a fixed point.
    # The cap keeps near-zero dots of corrupted edges from blowing the scale.
    dots = np.einsum("ij,ij->i", t[ia] - t[ja], gam)
    if dots.sum() < 0.0:
        t = -t
        dots = -dots
    positive = dots[dots > 0.0]
    med = float(np.median(positive)) if positive.size else 1.0
    low = float(positive.min()) if positive.size else 1.0
    t = t * min(1.0 / max(low, 1e-12), 10.0 / max(med, 1e-12))

    def smoothed_objective(r):
        # Huber-style descent function matched to the 1/max(r, delta) weights
        small = r < delta
        return float(np.where(small, (r * r + delta * delta) / (2.0 * delta), r).sum())

    def floored_residuals(tt):
        # lengths l_e = max(1, <t_i - t_j, gamma_e>) and residuals r_e
        diffs = tt[ia] - tt[ja]
        ell = np.maximum(1.0, np.einsum("ij,ij->i", diffs, gam))
        return ell, np.linalg.norm(diffs - ell[:, None] * gam, axis=1)

    trace = []
    converged = False
    iterations = 1
    ell, r = floored_residuals(t)
    for _ in range(max_iters - 1):
        w = 1.0 / np.maximum(r, delta)

        lap = np.bincount(lap_index, weights=np.concatenate([w, w, -w, -w]), minlength=n * n)
        lap = lap.reshape(n, n)
        contrib = (w * ell)[:, None] * gam
        rhs = np.bincount(rhs_index, weights=np.concatenate([contrib, -contrib]).ravel(), minlength=3 * n)
        mu = float(np.trace(lap)) / n + 1.0
        lap += mu / n
        t_new = _cholesky(lap, "weighted Laplacian")(rhs.reshape(n, 3))
        t_new = t_new - t_new.mean(axis=0)

        iterations += 1
        ell, r = floored_residuals(t_new)
        trace.append(smoothed_objective(r))

        a = _gauge_fixed(t_new)
        b = _gauge_fixed(t)
        s, shift = _fit_similarity(a, b)
        change = float(np.linalg.norm(s * a + shift - b))
        t = t_new
        if change <= _CONVERGENCE_TOL:
            converged = True
            break

    t = _gauge_fixed(t)
    res = _edge_residuals(g, pos, t)
    est = _to_estimate(verts, t, res, converged=converged, iterations=iterations)
    est.objective_trace = trace
    return est


def _fit_similarity(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares scale and shift mapping rows of x onto rows of y."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    denom = float(np.sum(xc * xc))
    if denom < 1e-15:
        raise ValueError("all source points coincide; similarity fit is undefined")
    s = float(np.sum(xc * yc)) / denom
    b = y.mean(axis=0) - s * x.mean(axis=0)
    return s, b


def align_similarity(
    est: LocationEstimate | Mapping[int, np.ndarray],
    gt_locations: Mapping[int, np.ndarray],
) -> tuple[float, np.ndarray, dict[int, np.ndarray]]:
    """Best scale/shift of an estimate onto reference locations.

    Returns (scale, shift, aligned) where aligned[v] = scale * est[v] + shift
    for every estimated vertex.  The scale is unconstrained in sign, so a
    globally reflected estimate aligns as well as an unreflected one.

    Raises:
        ValueError: if an estimated vertex has no reference location, or if
            all estimated points coincide.
    """
    locs = est.locations if isinstance(est, LocationEstimate) else est
    verts = sorted(locs)
    if not verts:
        raise ValueError("empty estimate")
    missing = [v for v in verts if v not in gt_locations]
    if missing:
        raise ValueError(f"vertices {missing[:5]} have no reference location")
    x = np.array([locs[v] for v in verts], dtype=np.float64)
    y = np.array([gt_locations[v] for v in verts], dtype=np.float64)
    s, b = _fit_similarity(x, y)
    aligned = {v: s * locs[v] + b for v in verts}
    return s, b, aligned
