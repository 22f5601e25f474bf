"""Gain-function approximation from particles.

The gain at a particle is the gradient of the solution of the
probability-weighted Poisson equation

    -(1/rho) div(rho grad phi) = h - hbar,        hbar = E_rho[h],

with one scalar equation per observation component.  Three approximations
are provided (constant gain, Galerkin on a basis, diffusion map), plus the
exact 1-D gain for h(x) = x on a Gaussian mixture, in closed form.  Each
approximation takes the particles (N, d) and h at them (N, m) and returns
the gains as one float array of shape (N, d, m).  A Galerkin basis is one
function x (N, d) -> (psi (N, M), grad psi (N, M, d)).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .core import _BLOCK_ELEMS
from .exceptions import GainSolveError
from .models import Density1D


def _as_matrix(values: np.ndarray) -> np.ndarray:
    """Particles or observation values as an (N, k) float array; 1-D gives k = 1."""
    a = np.asarray(values, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return a


# A Galerkin basis maps particles x (N, d) to the values psi (N, M) of its M
# functions and their gradients (N, M, d).
Basis = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def coordinate_basis(dim: int) -> Basis:
    """The d coordinate functions x_1, ..., x_d, whose gradients are the unit vectors."""
    eye = np.eye(dim)

    def basis(x):
        return x, np.broadcast_to(eye, (x.shape[0], dim, dim))

    return basis


def constant_gain(particles: np.ndarray, h_values: np.ndarray) -> np.ndarray:
    """Expected-gain approximation: empirical state/observation cross-covariance.

    K = (1/N) sum_i X^i (h(X^i) - h^{(N)})^T, arranged d x m and shared by
    all particles: the (N, d, m) result is a read-only broadcast view.  For a
    linear observation h = Hx and Gaussian particles this converges to the
    Kalman gain Sigma H^T.
    """
    x = _as_matrix(particles)
    h = _as_matrix(h_values)
    n = x.shape[0]
    if n < 2:
        raise ValueError("constant gain requires at least 2 particles")
    centered = h - h.mean(axis=0)
    gain = x.T @ centered / n
    return np.broadcast_to(gain, (n,) + gain.shape)


# Relative ridge applied to the Galerkin normal matrix only when it is
# numerically singular; a well-conditioned system is solved exactly.
GALERKIN_RIDGE_REL = 1e-8
_COND_LIMIT = 1e12


def _solve_gram(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A kappa = b, adding a relative ridge only if A is ill-conditioned."""
    # LAPACK would print its rejection of a nonfinite A and go on
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise GainSolveError("Galerkin system A kappa = b has nonfinite entries "
                             "(the basis or h overflows on the ensemble)")
    M = A.shape[0]
    cond = np.linalg.cond(A)
    if np.isfinite(cond) and cond < _COND_LIMIT:
        return np.linalg.solve(A, b)
    ridge = GALERKIN_RIDGE_REL * np.trace(A) / M
    if ridge <= 0:
        raise GainSolveError(
            "Galerkin system is singular even after ridge "
            "(all basis gradients vanish on the ensemble)"
        )
    return np.linalg.solve(A + ridge * np.eye(M), b)


def galerkin_gain(particles: np.ndarray, h_values: np.ndarray, basis: Basis) -> np.ndarray:
    """Weak-form gain approximation on the span of the basis.

    Assembles b_k = (1/N) sum_i (h(X^i) - h^{(N)}) psi_k(X^i) and the Gram
    matrix A_kl = (1/N) sum_i grad psi_l . grad psi_k, solves A kappa = b per
    observation component, and evaluates K^i = sum_l kappa_l grad psi_l(X^i).
    """
    x = _as_matrix(particles)
    h = _as_matrix(h_values)
    n, d = x.shape
    if n < 2:
        raise ValueError("galerkin gain requires at least 2 particles")

    psi, grads = basis(x)                    # (N, M), (N, M, d)
    flat = grads.transpose(1, 0, 2).reshape(psi.shape[1], n * d)
    A = flat @ flat.T / n                    # one symmetric product (syrk)
    centered = h - h.mean(axis=0)            # (N, m)
    b = psi.T @ centered / n                 # (M, m)
    kappa = _solve_gram(A, b)                # (M, m)
    return np.einsum("nmd,mj->ndj", grads, kappa)


CG_RTOL = 1e-14
CG_MAXITER = 1000


def auto_bandwidth(particles: np.ndarray) -> float:
    """Rule-of-thumb kernel bandwidth: median pairwise sq. distance / (4 log N)."""
    return _median_bandwidth(_pairwise_sq_dists(_as_matrix(particles)))


def _median_bandwidth(d2: np.ndarray) -> float:
    """:func:`auto_bandwidth` from the matrix of pairwise squared distances."""
    n = d2.shape[0]
    # The strict upper triangle row by row, in np.triu_indices order but
    # without its two N(N-1)/2 index arrays.
    upper = np.concatenate([d2[i, i + 1:] for i in range(n - 1)])
    # np.median(upper) bit for bit with one select, and without its NaN
    # check, which imports numpy.ma inside the first call of a process, where
    # its objects can pin the heap above later calls' N x N buffers.  The
    # max propagates a NaN; after the select, upper[:h] holds the h smallest
    # values, so its max is the lower middle one of an even count.
    h = upper.size // 2
    if np.isnan(upper.max()):
        med = np.nan
    else:
        upper.partition(h)
        med = float(upper[h] if upper.size % 2 else (upper[:h].max() + upper[h]) / 2.0)
    if med <= 0:
        return 1.0
    return med / (4.0 * max(np.log(n), 1.0))


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an N x N array, about _BLOCK_ELEMS entries each."""
    rows = max(1, _BLOCK_ELEMS // n)
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _sq_dist_blocks(x: np.ndarray, out: np.ndarray) -> Iterator[slice]:
    """Fills out (N x N) with |x_i - x_j|^2 = sum_k (x_ik - x_jk)^2, yielding each row block.

    x_ik - x_jk only changes sign under i <-> j, so out is exactly symmetric with a zero
    diagonal, and a shift of the particles cancels in each difference.  One scratch block.
    """
    xt = np.ascontiguousarray(x.T)
    blocks = _row_blocks(x.shape[0])
    tmp = np.empty((blocks[0].stop, x.shape[0]))
    for blk in blocks:
        rows, part = out[blk], tmp[:blk.stop - blk.start]
        for k, col in enumerate(xt):
            dst = part if k else rows
            np.square(np.subtract(col[blk, None], col, out=dst), out=dst)
            if k:
                rows += part
        yield blk


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """|x_i - x_j|^2 (``_sq_dist_blocks``), the only N x N array the function allocates."""
    d2 = np.empty((x.shape[0],) * 2)
    list(_sq_dist_blocks(x, d2))  # fills every block
    return d2


def _component_sizes(T: np.ndarray) -> list[int]:
    """Sizes of the connected components of the graph T_ij > 0, in order found.

    Breadth-first search that reads the rows of the frontier in blocks of
    about _BLOCK_ELEMS entries; each row is read at most once, and the
    search stops as soon as every particle is labelled, so a connected
    kernel usually costs one row.
    """
    n = T.shape[0]
    seen = np.zeros(n, dtype=bool)
    rows = max(1, _BLOCK_ELEMS // n)
    sizes: list[int] = []
    while sum(sizes) < n:
        frontier = np.flatnonzero(~seen)[:1]
        seen[frontier] = True
        size = 1
        while frontier.size and sum(sizes) + size < n:
            reached = np.zeros(n, dtype=bool)
            for lo in range(0, frontier.size, rows):
                reached |= (T[frontier[lo:lo + rows]] > 0.0).any(axis=0)
            frontier = np.flatnonzero(reached & ~seen)
            seen[frontier] = True
            size += frontier.size
        sizes.append(size)
    return sizes


def _solve_fixed_point(T: np.ndarray, pi: np.ndarray, rhs: np.ndarray,
                       eps: float) -> np.ndarray:
    """Phi with Phi = T Phi + rhs and pi^T Phi = 0, for pi^T rhs = 0.

    Preconditioned conjugate gradients on I - T written as the graph
    Laplacian diag(off) - T_off, off_i = sum_{j != i} T_ij, in the
    pi-weighted inner product (pi_i T_ij is symmetric, so the Laplacian is
    self-adjoint there) with the Jacobi preconditioner diag(off).  T's
    diagonal is zeroed in place for the solve and restored on every exit;
    the Laplacian form never computes 1 - T_ii, which cancels at a weakly
    connected particle.  Each iteration costs one product with T, shared by
    the m columns; a column leaves the iteration once its normwise backward
    error |res| / (2 max(off) |Phi| + |rhs|) (pi-norms) is at most CG_RTOL,
    where res is the residual with its pi-mean removed.
    """
    n, m = rhs.shape
    diag_idx = np.diag_indices(n)
    diag = T[diag_idx]
    T[diag_idx] = 0.0
    try:
        off = T.sum(axis=1)[:, None]
        norm_bound = 2.0 * float(off.max())        # >= |diag(off) - T_off|
        phi = np.empty_like(rhs)                   # filled as columns converge
        cols = np.arange(m)                        # columns still iterating
        u, r = np.zeros_like(rhs), rhs.copy()
        rhs_norm = np.sqrt(pi @ (r * r))
        z = r / off
        p = z
        rz = pi @ (r * z)
        for it in range(CG_MAXITER + 1):
            # pi^T r = pi^T rhs, rounding's remnant of h - hbar, is the same at
            # every iterate (pi^T q = 0) and the final pinning drops it, so
            # the residual is measured without it.
            rc = r - pi @ r
            res = np.sqrt(pi @ (rc * rc))
            scale = norm_bound * np.sqrt(pi @ (u * u)) + rhs_norm
            done = res <= CG_RTOL * scale
            if done.any():
                phi[:, cols[done]] = u[:, done]
                if done.all():
                    break
                keep = ~done
                cols, u, r, p = cols[keep], u[:, keep], r[:, keep], p[:, keep]
                rz, rhs_norm = rz[keep], rhs_norm[keep]
            if it == CG_MAXITER:
                raise GainSolveError(
                    f"diffusion-map fixed point did not converge at eps={eps:.3e}, "
                    f"N={n}: backward error {float(np.max(res / scale)):.3e} after "
                    f"{it} conjugate-gradient iterations (tolerance {CG_RTOL:.0e})"
                )
            q = off * p
            q -= T @ p
            alpha = rz / (pi @ (p * q))
            u += alpha * p
            r -= alpha * q
            z = r / off
            rz_old, rz = rz, pi @ (r * z)
            p *= rz / rz_old
            p += z
    finally:
        T[diag_idx] = diag
    phi -= pi @ phi
    return phi


def _markov_matrix(x: np.ndarray, eps: float | str) -> tuple[np.ndarray, np.ndarray, float]:
    """The Markov matrix T of the particles x (N, d), its stationary weights pi, and eps.

    The Gaussian kernel g_ij = exp(-|X^i - X^j|^2 / (4 eps)) on distances summed
    coordinate by coordinate (eps "auto" being the median rule on them) is
    normalized by one vector s = row^(-1/2): T_ij = g_ij s_j / c_i, c = row sums
    of g s, pi = deg / sum(deg), deg = s c; that is, k_ij = g_ij / sqrt(row_i row_j)
    and T = k / deg_i.  T is built in one N x N buffer, in two passes over row
    blocks of about 128 KB.  A row whose off-diagonal mass is lost to rounding,
    or a kernel graph T_ij > 0 in several connected parts, leaves the fixed
    point without a unique solution and raises ``GainSolveError``.
    """
    n = x.shape[0]
    if n < 2:
        raise ValueError("diffusion map gain requires at least 2 particles")
    auto = isinstance(eps, str)
    if auto and eps != "auto":
        raise ValueError(f"unknown bandwidth spec {eps!r}")
    if not auto and float(eps) <= 0:
        raise GainSolveError("kernel bandwidth eps must be positive")

    T = _pairwise_sq_dists(x) if auto else np.empty((n, n))
    eps = _median_bandwidth(T) if auto else float(eps)
    # g = exp(-d2 / (4 eps)) and its row sums: a numeric eps as each block's
    # distances are made, "auto" after its median has read them all.
    # d2 / -(4 eps) has the bits of -d2 / (4 eps)
    row = np.empty(n)
    for blk in _row_blocks(n) if auto else _sq_dist_blocks(x, T):
        np.divide(T[blk], -(4.0 * eps), out=T[blk])
        np.exp(T[blk], out=T[blk])
        T[blk].sum(axis=1, out=row[blk])
    # exp(0) = 1 on the diagonal, so row == 1 where a row's off-diagonal mass is
    # below the rounding of 1 + mass (about 1.1e-16), underflowing or not: an
    # identity row of T to rounding, which silently zeroes that particle's gain
    # (and leaves the fixed point without a unique solution).
    isolated = np.flatnonzero(row - 1.0 < n * 1e-300)
    if isolated.size:
        del T                          # the hint's distances replace it
        first = int(isolated[0])
        nearest = float(np.min(np.delete(np.sum((x - x[first]) ** 2, axis=1), first)))
        hint = "" if auto else f"; try eps around {_median_bandwidth(_pairwise_sq_dists(x)):.3e}"
        raise GainSolveError(
            f"{isolated.size} of {n} particles isolated: their off-diagonal kernel mass is "
            f"below the rounding of 1 at eps={eps:.3e} (first: particle {first}, "
            f"nearest-neighbour squared distance {nearest:.3e}){hint}"
        )
    s = 1.0 / np.sqrt(row)
    c = np.empty(n)
    for blk in _row_blocks(n):
        T[blk] *= s
        T[blk].sum(axis=1, out=c[blk])
        T[blk] /= c[blk, None]
    sizes = _component_sizes(T)
    if len(sizes) > 1:
        raise GainSolveError(
            f"the kernel graph splits into {len(sizes)} components of sizes "
            f"{sorted(sizes, reverse=True)} at eps={eps:.3e}: no unique fixed point"
        )
    deg = s * c
    return T, deg / deg.sum(), eps


def diffusion_map_gain(particles: np.ndarray, h_values: np.ndarray, eps: float | str) -> np.ndarray:
    """Diffusion-map gain approximation.

    Builds the row-stochastic Markov matrix T of the Gaussian kernel, on
    distances summed coordinate by coordinate and normalized by one scaling
    vector, and its stationary weights pi (``_markov_matrix``), then solves
    the fixed-point equation

        Phi = T Phi + eps (h - hbar),      hbar = sum_i pi_i h(X^i),

    pinned by pi^T Phi = 0, as along the sweeps Phi <- T Phi + eps (h - hbar)
    from Phi = 0, whose limit it is.  T is reversible with respect to pi, so
    the solve is Jacobi-preconditioned conjugate gradients on T itself
    (``_solve_fixed_point``): one product with T per iteration and no
    factorisation.  Gains are read off as

        K^i = sum_j s_ij X^j,  s_ij = T_ij (r_j - sum_k T_ik r_k) / (2 eps),

    with r = Phi + eps h, from the one matrix product T [r | r (x) X | X]
    (N x (m + dm + d)).  Vector observations share the kernel and solve one
    fixed-point problem per component.  A nonfinite gain raises
    ``GainSolveError``, as do the kernel's own refusals.

    Memory: a call peaks at T and the upper triangle whose median sets eps
    ``"auto"`` (1.5 N x N float64 arrays), or at T and one row block with a
    numeric eps (1.5 N x N for a refusal); the solve adds a few N x m vectors.
    """
    x = _as_matrix(particles)
    h = _as_matrix(h_values)
    n, d = x.shape
    m = h.shape[1]
    T, pi, eps = _markov_matrix(x, eps)

    hbar = pi @ h                                  # (m,)
    phi = _solve_fixed_point(T, pi, eps * (h - hbar), eps)

    r = phi + eps * h                              # (N, m)
    # K^i = (1/2eps) [ sum_j T_ij r_j X^j - (T r)_i sum_j T_ij X^j ]: the three
    # sums are the column blocks of one product T [r | r (x) x | x].
    rx = (x[:, :, None] * r[:, None, :]).reshape(n, d * m)
    Tr, TrX, TX = np.split(T @ np.concatenate([r, rx, x], axis=1), [m, m + d * m], axis=1)
    gains = (TrX.reshape(n, d, m) - TX[:, :, None] * Tr[:, None, :]) / (2.0 * eps)
    if not np.all(np.isfinite(gains)):
        raise GainSolveError(f"diffusion-map gain is nonfinite at eps={eps:.3e}, N={n}")
    return gains


# The standard library's erfc, element-wise, so cips needs numpy alone at run time.
_erfc = np.vectorize(math.erfc, otypes=[float])


def exact_gain_1d(density: Density1D, x_points: np.ndarray) -> np.ndarray:
    """Exact scalar gain for h(x) = x on a Gaussian mixture, in closed form.

    K(x) = (1/rho(x)) int_{-inf}^x (hbar - y) rho(y) dy solves
    -(rho K)' = (x - hbar) rho.  With z_k = (x - mu_k) / sigma_k it is
    sum_k w_k [sigma_k phi(z_k) + (hbar - mu_k) Phi(z_k)] / rho(x); right of
    hbar the equal form with -(hbar - mu_k) Phi(-z_k) integrates the other
    tail.  Phi comes from erfc, accurate in both tails (1 + erf cancels).
    """
    x = np.atleast_1d(np.asarray(x_points, dtype=float))
    rho = density.pdf(x)
    if np.any(rho < 1e-300):
        raise ValueError("density underflows (< 1e-300) at a query point")
    sd = np.sqrt(density.variances)
    z = (x[:, None] - density.means) / sd
    side = np.where(x <= density.mean(), -1.0, 1.0)[:, None]
    tail = 0.5 * _erfc(side * z / np.sqrt(2.0))     # Phi(z) left, Phi(-z) right
    phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return (sd * phi - side * (density.mean() - density.means) * tail) @ density.weights / rho
