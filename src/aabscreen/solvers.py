"""Camera location recovery from pairwise directions at desk scale.

The least-squares solver minimizes projection residuals ||P(t_i - t_j)||^2
with P = I - gamma gamma^T, the component of the displacement orthogonal to
the measured direction, as a single constrained eigenvector problem.

The robust solver minimizes the sum of unsquared deviations
||(t_i - t_j) - l_e gamma_e|| over locations and per-edge displacement
lengths l_e >= 1, least unsquared deviations (LUD, Ozyesil and Singer,
CVPR 2015), by ADMM from the spectral solution.  The length floor is
essential: under a norm gauge alone, the unsquared objective is globally
minimized by near-collapsed configurations once a sizable fraction of
directions is corrupted.

The spectral solve never forms a matrix.  It finds the two smallest
eigenpairs of the 3N x 3N form A by block Krylov iteration on c I - A,
where c is the Gershgorin bound on A's spectrum; rigid translations, A's
null space, are projected out of every block.  Its products with A are a
gather and one segment sum over the edges, so its memory is O(m + N k) for
k Krylov vectors (110 to 150 at N = 1000, allocated 32 at a time) instead
of the 72 MB of the dense form at N = 1000.  Every ADMM iteration solves
the same unweighted graph Laplacian for any penalty, so the robust solver
inverts it once, an N x N array (8 MB at N = 1000), and each iteration
multiplies by the inverse; a non-finite start or a singular Laplacian
raises DegenerateInstanceError.  Only numpy is used.

Locations are recoverable only up to translation and scale (and a global
reflection, since the residuals are even in t).  Estimates are gauge-fixed
to zero centroid and unit sum of squared norms over the solved vertices;
comparisons against ground truth go through the closed-form similarity
alignment, whose scale is sign-free and absorbs the reflection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Locations, ViewGraph
from .streams import require_integers

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

# LUD by ADMM (Boyd et al. 2011): the over-relaxation (section 3.4.3), the
# absolute and relative stopping tolerances (section 3.3.1), the iterations
# between stop tests, and the residual balancing ratio and factor
# (section 3.4.1).
_ALPHA = 1.8
_EPS_ABS = 1e-4
_EPS_REL = 1e-3
_CHECK_EVERY = 10
_BALANCE_MU = 10.0
_BALANCE_TAU = 2.0
# The start's scale search: log 1e12, how far its bracket reaches below
# the scales that leave every length floor active and the largest scale it
# considers; and its golden-section steps, which shrink that bracket, at
# most 2 log 1e12 + log 2 wide, below 1e-12.
_SCALE_RANGE = np.log(1e12)
_SCALE_STEPS = 72

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
    (robust solver only) records the LUD objective of the iterate at every
    stop test, before gauge fixing.
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


def solve_irls_lud(g: ViewGraph, max_iters: int = 5000) -> LocationEstimate:
    """Robust locations: least unsquared deviations (LUD) solved by ADMM.

    Minimizes the sum over edges of the distance from t_i - t_j to the ray
    {l * gamma_e : l >= 1}, subject to zero centroid, by scaled ADMM on
    y_e = t_i - t_j with over-relaxation (Boyd et al., Found. Trends Mach.
    Learn. 2011).  It starts from the spectral solution, signed toward
    positive displacements and scaled to the least objective along it.
    Each iteration solves the unweighted graph Laplacian, inverted once,
    for t, then moves each edge's y to the closed-form prox of its distance
    to the ray.  Every ``_CHECK_EVERY`` iterations and after the last, the
    primal and dual residuals are tested against Boyd's stopping
    tolerances, the penalty rho is rebalanced and the objective recorded;
    ``converged`` is True exactly when the tolerances were met.  The floor
    l >= 1 prevents the near-collapsed configurations that otherwise
    minimize the unsquared objective under heavy corruption.

    Raises ValueError unless ``max_iters`` is an integer >= 1.
    """
    require_integers(max_iters=max_iters)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    verts, ends, t, _ = _solve_spectral(g)
    n = verts.size
    ia, ja = ends

    # the iteration keeps components leading, (3, N) and (3, m), so every
    # step runs over contiguous arrays and the product with the inverse is
    # one (3, N) x (N, N) matrix product
    gam = np.ascontiguousarray(g.direction_array.T)
    t = np.ascontiguousarray(t.T)

    def incidence(tt):
        """B t: t_i - t_j for every edge."""
        return np.take(tt, ia, axis=1) - np.take(tt, ja, axis=1)

    # Resolve the spectral sign ambiguity toward positive displacements,
    # then take the scale of the spectral shape with the least objective:
    # consistent data then starts at an optimum, a fixed point.
    y = incidence(t)
    if np.einsum("ij,ij->", y, gam) < 0.0:
        y = -y
    y *= _best_scale(y, gam)
    if not np.isfinite(y).all():
        raise DegenerateInstanceError("LUD start is not finite")

    def adjoint(w):
        """B^T w: each edge adds its w at its first end and subtracts it at
        its second."""
        return np.stack(
            [np.bincount(ia, weights=c, minlength=n) - np.bincount(ja, weights=c, minlength=n) for c in w]
        )

    # L + 11^T / N is definite on a connected graph, and its inverse maps
    # vectors summing to zero to locations summing to zero
    inverse = np.full((n, n), 1.0 / n)
    inverse[ia, ja] = inverse[ja, ia] = 1.0 / n - 1.0
    inverse.flat[:: n + 1] += np.bincount(ends.ravel(), minlength=n)
    try:
        _invert_in_place(inverse)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInstanceError(f"graph Laplacian is singular: {exc}") from None

    eps_pri = np.sqrt(3 * g.num_edges) * _EPS_ABS
    eps_dual = np.sqrt(3 * n) * _EPS_ABS
    u = np.zeros_like(y)
    rho = 1.0
    trace = []
    converged = False
    for iterations in range(1, max_iters + 1):
        t = adjoint(y - u) @ inverse
        t -= t.mean(axis=1, keepdims=True)
        bt = incidence(t)
        v = _ALPHA * bt + (1.0 - _ALPHA) * y + u
        y_prev = y
        # prox of dist(., ray) / rho: move v toward its projection p onto
        # the ray by at most 1 / rho; u keeps what is left, v - y
        u = v - np.maximum(1.0, np.einsum("ij,ij->j", v, gam)) * gam
        u /= np.maximum(1.0, rho * np.sqrt(np.einsum("ij,ij->j", u, u)))
        y = v - u
        if iterations % _CHECK_EVERY and iterations < max_iters:
            continue

        trace.append(_lud_objective(bt, gam))
        r = float(np.linalg.norm(bt - y))
        s = rho * float(np.linalg.norm(adjoint(y - y_prev)))
        scale = max(float(np.linalg.norm(bt)), float(np.linalg.norm(y)))
        dual_scale = rho * float(np.linalg.norm(adjoint(u)))
        if r <= eps_pri + _EPS_REL * scale and s <= eps_dual + _EPS_REL * dual_scale:
            converged = True
            break
        # residual balancing; the scaled dual u = lambda / rho follows rho
        if r > _BALANCE_MU * s:
            rho *= _BALANCE_TAU
            u /= _BALANCE_TAU
        elif s > _BALANCE_MU * r:
            rho /= _BALANCE_TAU
            u *= _BALANCE_TAU

    t = _gauge_fixed(t.T)
    res = _edge_residuals(g, ends, t)
    return LocationEstimate(Locations(verts, t), res, converged, iterations, trace)


def _best_scale(diffs: np.ndarray, gam: np.ndarray) -> float:
    """The scale c > 0 with the least ``_lud_objective`` of c ``diffs``.

    The objective is convex in c (each term is the distance from c d_e to
    a convex set), hence unimodal in log c, and golden-section search on
    log c finds its minimum.  Past the scale at which the shortest positive
    component along gamma_e reaches the floor l = 1, no floor is active and
    the objective only grows, so the search ends there.  Below the scale at
    which the longest one does, every floor is active, but the minimum can
    still lie there when most displacements are far off their directions,
    so the search starts 1e12 times lower.  Ties keep the lower part: on
    consistent data, whose objective is 0 from the upper end on, the search
    ends at that end.  Without a positive component the scale is 1.
    """
    along = np.einsum("ij,ij->j", diffs, gam)
    positive = along[along > 0.0]
    if not positive.size:
        return 1.0
    # the locations have unit norm, so no component exceeds 2, and the floor
    # on the shortest keeps the scale finite
    lo = -np.log(positive.max()) - _SCALE_RANGE
    hi = -np.log(max(positive.min(), np.exp(-_SCALE_RANGE)))
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = (_lud_objective(np.exp(x) * diffs, gam) for x in (a, b))
    for _ in range(_SCALE_STEPS):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = _lud_objective(np.exp(a) * diffs, gam)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = _lud_objective(np.exp(b) * diffs, gam)
    return float(np.exp(hi))


def _invert_in_place(a: np.ndarray) -> None:
    """Overwrite the symmetric positive definite ``a`` with its inverse.

    Through the blocks [[p, q], [q^T, r]] of ``a`` and the Schur complement
    s = r - q^T p^-1 q, with x = p^-1 q and y = x s^-1:
    a^-1 = [[p^-1 + y x^T, -y], [-y^T, s^-1]].  ``np.linalg.inv`` of all
    of ``a`` would hold two N x N work arrays and its result beside ``a``;
    this holds at most about 1.25 N^2 floats beside it.
    """
    h = a.shape[0] // 2
    p, q, r = a[:h, :h], a[:h, h:], a[h:, h:]
    p_inv = np.linalg.inv(p)
    x = p_inv @ q
    r -= q.T @ x
    s_inv = np.linalg.inv(r)
    y = x @ s_inv
    np.matmul(y, x.T, out=p)
    p += p_inv
    q[...] = -y
    a[h:, :h] = -y.T
    r[...] = s_inv


def _lud_objective(diffs: np.ndarray, gam: np.ndarray) -> float:
    """Sum over the columns of (3, m) ``diffs`` of the distance to the ray
    {l gamma : l >= 1} of the matching column of ``gam``."""
    off = diffs - np.maximum(1.0, np.einsum("ij,ij->j", diffs, gam)) * gam
    return float(np.sqrt(np.einsum("ij,ij->j", off, off)).sum())


def _fit_similarity(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Least-squares scale and shift mapping rows of x onto rows of y.

    Each set is first scaled by a power of two to a largest magnitude in
    [0.5, 1), so that no square or product over- or underflows at any
    finite size; such a scaling is exact and leaves every rounding as it is.
    """
    ex = np.frexp(np.abs(x).max())[1]
    ey = np.frexp(np.abs(y).max())[1]
    xs = np.ldexp(x, -ex)
    ys = np.ldexp(y, -ey)
    xc = xs - xs.mean(axis=0)
    yc = ys - ys.mean(axis=0)
    denom = float(np.sum(xc * xc))
    # scale-free: a spread below 1e-10 of the points' size is the rounding
    # of their mean, not a shape
    if denom <= 1e-20 * float(np.sum(xs * xs)):
        raise ValueError("all source points coincide; similarity fit is undefined")
    s = float(np.ldexp(np.sum(xc * yc) / denom, ey - ex))
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
