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

The spectral solve never forms a matrix.  It finds the two smallest
eigenpairs of the 3N x 3N form A by block Krylov iteration on c I - A,
where c is the Gershgorin bound on A's spectrum; rigid translations, A's
null space, are projected out of every block.  Its products with A are a
gather and one segment sum over the edges, so its memory is O(m + N k) for
k Krylov vectors (110 to 150 at N = 1000, allocated 32 at a time) instead
of the 72 MB of the dense form at N = 1000, and it loads no scipy.  Each
IRLS round refills one N x N array with its Laplacian and solves it with
one Cholesky factorization in that array (scipy's, imported on first use);
non-finite weights or a factorization that fails raise
DegenerateInstanceError.  At the densities screening leaves (tens of edges
per vertex) a sparse LU of the Laplacian fills most of the dense one, and
preconditioned CG needs hundreds of iterations per solve.

Locations are recoverable only up to translation and scale (and a global
reflection, since the residuals are even in t).  Estimates are gauge-fixed
to zero centroid and unit sum of squared norms over the solved vertices;
comparisons against ground truth go through the closed-form similarity
alignment, whose scale is sign-free and absorbs the reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import Locations, ViewGraph

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

# IRLS's inlier floor delta: an edge whose residual is below it weighs 1 / delta.
_DELTA = 1e-8

# Krylov eigensolver: start vectors, steps between convergence checks,
# residual tolerance relative to the largest Ritz value, error bound of the
# second Ritz value relative to the gap, basis cap, and the number of
# basis vectors allocated at a time.
_KRYLOV_BLOCK = 2
_KRYLOV_CHECK = 4
_KRYLOV_TOL = 1e-13
_GAP_RTOL = 1e-10
_KRYLOV_MAX_COLS = 400
_KRYLOV_CHUNK = 32

# Floor of the distance between Ritz values in the second pair's error bound.
_TINY = 1e-300


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

    locations: Locations
    residuals: np.ndarray
    converged: bool
    iterations: int
    objective_trace: list[float] | None = None


def _solver_vertices(g: ViewGraph) -> tuple[np.ndarray, np.ndarray]:
    """Vertices with an edge, and the (2, m) rows among them of each edge's ends."""
    verts = g.active_vertices()
    if verts.size < 2:
        raise ValueError("need at least 2 vertices with edges")
    if not g.is_connected_over_active():
        raise ValueError("measurement graph is not connected")
    return verts, np.searchsorted(verts, g.edge_array.T)


def _cholesky(a: np.ndarray, what: str):
    """Cholesky-factor the symmetric, finite ``a`` in its own storage;
    returns the function b -> a^-1 b.

    The one use of scipy: it is imported here, on the first factorization,
    so that callers which never run IRLS never pay its import.
    """
    import scipy.linalg

    try:
        # a.T is the Fortran-ordered view of the same symmetric matrix, so
        # LAPACK factors it in place instead of copying it first
        factor = scipy.linalg.cho_factor(a.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInstanceError(f"{what} is not positive definite: {exc}") from None
    return partial(scipy.linalg.cho_solve, factor, check_finite=False)


def _form(g: ViewGraph, ends: np.ndarray, n: int):
    """Matrix-vector product with the 3N x 3N form A of the projection
    objective on n = N rows joined by the edges ``ends``, and the Gershgorin
    bound c on A's largest eigenvalue; returns (matvec, c).

    Edge e between rows i and j adds P_e x_i - P_e x_j to row i and
    P_e x_j - P_e x_i to row j.  So each row is its diagonal block, the sum
    of its edges' projectors, times its own location, minus the projected
    locations at the far ends of its half-edges.  The half-edges are ordered
    by their row, so one segment sum adds those; each solved vertex has an
    edge, so no segment is empty.  ``matvec`` takes and returns (b, 3N)
    arrays, one vector per row; inside, components lead, so every step runs
    over contiguous half-edge arrays.
    """
    half = ends.ravel()
    order = np.argsort(half, kind="stable")
    far = ends[::-1].ravel()[order]
    gam = g.direction_array[order % g.num_edges]
    starts = np.searchsorted(half[order], np.arange(n))

    proj = np.eye(3)[None, :, :] - gam[:, :, None] * gam[:, None, :]
    diag = np.add.reduceat(proj, starts)
    rows = np.abs(diag).sum(axis=2) + np.add.reduceat(np.abs(proj).sum(axis=2), starts)
    c = float(rows.max())
    diag = np.ascontiguousarray(diag.transpose(1, 2, 0))
    gam = np.ascontiguousarray(gam.T)

    def matvec(q: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(q.reshape(q.shape[0], n, 3).transpose(0, 2, 1))
        xf = np.take(x, far, axis=2)
        xf -= np.einsum("bkh,kh->bh", xf, gam)[:, None, :] * gam
        y = np.einsum("kln,bln->bkn", diag, x) - np.add.reduceat(xf, starts, axis=2)
        return y.transpose(0, 2, 1).reshape(q.shape)

    return matvec, c


def _without_translations(w: np.ndarray) -> np.ndarray:
    """Rows of ``w`` minus their mean location, in place."""
    x = w.reshape(w.shape[0], -1, 3)
    x -= x.mean(axis=1, keepdims=True)
    return w


def _top_pairs(apply, dim: int) -> np.ndarray:
    """Eigenvectors of the two largest eigenvalues of the symmetric
    ``apply`` on the vectors free of translations, as the columns of a
    (dim, 2) array.

    Block Krylov iteration from a fixed start block, with full
    reorthogonalization: each image is orthogonalized twice against the
    basis, and the coefficients fill the next block column of the projected
    matrix.  What is left over is the part of the image outside the basis;
    it gives every Ritz pair's residual without applying the operator again,
    and after one more pass and a QR, the next block.  The first pair must
    reach a residual of ``_KRYLOV_TOL`` times the largest Ritz value.  The
    second only feeds the gap test, and its Ritz value is off by about its
    residual squared over its distance to the third, so that bound must be
    below ``_GAP_RTOL`` times the gap.  The loop also stops once the basis
    spans every translation-free vector.  A block of two finds a doubled
    lowest eigenvalue, the signature of a degenerate instance, which a
    single start vector cannot.
    """
    free = dim - 3
    cap = min(free, _KRYLOV_MAX_COLS)
    basis = np.empty((min(cap, _KRYLOV_CHUNK), dim))
    projected = np.empty((basis.shape[0],) * 2)
    block = min(_KRYLOV_BLOCK, free)
    start = _without_translations(np.random.default_rng(0).standard_normal((block, dim)))
    basis[:block] = np.linalg.qr(start.T)[0].T
    k = 0
    step = 0
    while True:
        w = apply(basis[k : k + block])
        done = basis[: k + block]
        coef = np.zeros((k + block, block))
        for _ in range(2):
            part = done @ w.T
            w -= part.T @ done
            coef += part
        projected[: k + block, k : k + block] = coef
        projected[k : k + block, :k] = coef[:k].T
        projected[k : k + block, k : k + block] = (coef[k:] + coef[k:].T) / 2.0
        k += block
        step += 1
        if step % _KRYLOV_CHECK == 0 or k == cap:
            theta, y = np.linalg.eigh(projected[:k, :k])
            theta, y = theta[::-1], y[:, ::-1]
            res = np.linalg.norm(w.T @ y[k - block : k, :2], axis=0)
            off = res[1] ** 2 / max(theta[1] - theta[2], _TINY)
            if k == free or (
                res[0] <= _KRYLOV_TOL * theta[0]
                and off <= _GAP_RTOL * max(theta[0] - theta[1], _GAP_TOL)
            ):
                return basis[:k].T @ y[:, :2]
            if k == cap:
                raise DegenerateInstanceError(
                    f"spectral solve did not converge within {cap} Krylov vectors"
                )
        # once more after the QR, so that a nearly dependent new block cannot
        # bring back directions the basis already holds
        block = min(block, cap - k)
        if k + block > basis.shape[0]:
            # grown a chunk at a time, so memory follows the vectors used
            rows = min(cap, basis.shape[0] + _KRYLOV_CHUNK)
            basis = np.concatenate([basis[:k], np.empty((rows - k, dim))])
            projected = np.pad(projected, (0, rows - projected.shape[0]))
        done = basis[:k]
        w = np.linalg.qr(_without_translations(w[:block]).T)[0].T
        w -= (w @ done.T) @ done
        basis[k : k + block] = np.linalg.qr(_without_translations(w).T)[0].T


def _edge_residuals(g: ViewGraph, ends: np.ndarray, t: np.ndarray) -> np.ndarray:
    diff = t[ends[0]] - t[ends[1]]
    d = g.direction_array
    along = np.einsum("ij,ij->i", diff, d)
    rej = diff - along[:, None] * d
    return np.linalg.norm(rej, axis=1)


def _lowest_eigenpairs(g: ViewGraph, ends: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two smallest eigenpairs of the form on translation-free locations.

    Returns (eigenvalues, eigenvectors as the columns of a (3N, 2) array).
    Rigid translations span the form's null space; they are kept out of the
    Krylov basis, and the largest eigenvalues of c I - A on the rest belong
    to the smallest of A.  The eigenvalues are the Rayleigh quotients of the
    unshifted form, so c cancels from the gap test.
    """
    matvec, c = _form(g, ends, n)
    vecs = _top_pairs(lambda q: c * q - matvec(q), 3 * n)
    evals = np.empty(2)
    for k in range(2):
        t = vecs[:, k].reshape(-1, 3)
        evals[k] = float(np.sum(_edge_residuals(g, ends, t) ** 2)) / float(np.sum(t * t))
    return evals, vecs


def _gauge_fixed(t: np.ndarray) -> np.ndarray:
    c = t - t.mean(axis=0)
    return c / np.linalg.norm(c)


def _solve_spectral(g: ViewGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One constrained eigen-solve; returns (verts, ends, t, residuals)."""
    verts, ends = _solver_vertices(g)
    evals, evecs = _lowest_eigenpairs(g, ends, verts.size)

    if evals[1] - evals[0] < _GAP_TOL:
        raise DegenerateInstanceError(
            f"constrained spectral gap {evals[1] - evals[0]:.3e} below {_GAP_TOL}; "
            "instance is (near-)degenerate"
        )

    t = _gauge_fixed(evecs[:, 0].reshape(verts.size, 3))
    return verts, ends, t, _edge_residuals(g, ends, t)


def solve_ls_spectral(g: ViewGraph) -> LocationEstimate:
    """Least-squares locations: smallest constrained eigenvector.

    Minimizes the sum of squared projection residuals subject to zero
    centroid and unit total squared norm.  Raises DegenerateInstanceError
    when the two smallest constrained eigenvalues (nearly) coincide, e.g.
    for collinear locations or non-rigid graphs.
    """
    verts, _, t, res = _solve_spectral(g)
    return LocationEstimate(Locations(verts, t), res, converged=True, iterations=1)


def solve_irls_lud(g: ViewGraph, max_iters: int = 100) -> LocationEstimate:
    """Robust locations by iteratively reweighted least squares.

    Approximately minimizes the sum over edges of the distance from
    t_i - t_j to the ray {l * gamma : l >= 1}.  Starting from the spectral
    solution (sign- and scale-adjusted so the length floor starts inactive
    on typical edges), each round sets l_e = max(1, <t_i - t_j, gamma_e>),
    computes residuals r_e = ||(t_i - t_j) - l_e gamma_e|| and weights
    1 / max(r_e, delta), and solves the weighted normal equations, a graph
    Laplacian system.  The floor l >= 1 prevents the near-collapsed
    configurations that otherwise minimize the unsquared objective under
    heavy corruption; delta = 1e-8 is the residual scale below which an edge
    is treated as an inlier.

    Iterates are compared after gauge fixing and similarity alignment;
    convergence at change <= 1e-10 or after ``max_iters`` total iterations
    (the initialization counts as the first).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    verts, ends, t, _ = _solve_spectral(g)
    n = verts.size
    ia, ja = ends
    gam = g.direction_array
    # the rows of the right-hand side at each edge's two ends, in the order
    # the bincounts below sum them
    rhs_index = (3 * ends.reshape(-1, 1) + np.arange(3)).ravel()
    # the Laplacian, rebuilt and factored in this one array every round
    lap = np.empty((n, n))

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
        small = r < _DELTA
        return float(np.where(small, (r * r + _DELTA * _DELTA) / (2.0 * _DELTA), r).sum())

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
        w = 1.0 / np.maximum(r, _DELTA)

        # the graph has one edge per pair, so each off-diagonal entry is
        # one -w; the diagonal sums each vertex's weights
        lap.fill(0.0)
        lap[ia, ja] = lap[ja, ia] = -w
        lap.flat[:: n + 1] = np.bincount(ends.ravel(), weights=np.concatenate([w, w]), minlength=n)
        contrib = (w * ell)[:, None] * gam
        rhs = np.bincount(rhs_index, weights=np.concatenate([contrib, -contrib]).ravel(), minlength=3 * n)
        mu = float(np.trace(lap)) / n + 1.0
        lap += mu / n
        # weights are at most 1 / delta, so finite weights bound every entry
        # and the factorization need not scan all n^2 of them
        if not (np.isfinite(w).all() and np.isfinite(rhs).all()):
            raise DegenerateInstanceError(
                f"IRLS iteration {iterations + 1}: weighted Laplacian or right-hand side is not finite"
            )
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
    res = _edge_residuals(g, ends, t)
    return LocationEstimate(Locations(verts, t), res, converged, iterations, trace)


def _fit_similarity(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares scale and shift mapping rows of x onto rows of y."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    denom = float(np.sum(xc * xc))
    # scale-free: a spread below 1e-10 of the points' size is the rounding
    # of their mean, not a shape
    if denom <= 1e-20 * float(np.sum(x * x)):
        raise ValueError("all source points coincide; similarity fit is undefined")
    s = float(np.sum(xc * yc)) / denom
    b = y.mean(axis=0) - s * x.mean(axis=0)
    return s, b


def align_similarity(
    est: LocationEstimate | Locations, reference: Locations
) -> tuple[float, np.ndarray, Locations]:
    """Best scale/shift of an estimate onto reference locations.

    Returns (scale, shift, aligned), where aligned holds scale * x + shift
    for each estimated location x.  The scale is unconstrained in sign, so a
    globally reflected estimate aligns as well as an unreflected one.

    Raises:
        ValueError: if an estimated vertex has no reference location, or if
            all estimated points coincide.
    """
    locs = est.locations if isinstance(est, LocationEstimate) else est
    verts = locs.vertices
    if not verts.size:
        raise ValueError("empty estimate")
    missing = verts[~np.isin(verts, reference.vertices)]
    if missing.size:
        raise ValueError(f"vertices {missing[:5].tolist()} have no reference location")
    y = reference.coords[np.searchsorted(reference.vertices, verts)]
    s, b = _fit_similarity(locs.coords, y)
    return s, b, Locations(verts, s * locs.coords + b)
