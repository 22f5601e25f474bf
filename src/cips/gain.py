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

The diffusion map's fixed point Phi = T Phi + eps (h - hbar) is solved as
Phi = eps Psi with Psi = T Psi + (h - hbar), and the gain is read off Psi
with eps cancelled: the bandwidth eps enters only the kernel T.
"""

from __future__ import annotations

import math
from typing import Callable

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
    return _dists_and_bandwidth(_as_matrix(particles))[1]


# The median of the N(N-1)/2 pair distances is selected without copying them
# (Floyd & Rivest 1975): a sample of about _SAMPLE_OFFSETS N pairs places two
# pivots _BRACKET sqrt(sample size) sample ranks outside the median's rank(s),
# one pass over the triangle counts the entries below and gathers those
# between, and a select in the gathered ones finishes.
_SAMPLE_OFFSETS = 16
_BRACKET = 2.0


def _dists_and_bandwidth(x: np.ndarray) -> tuple[np.ndarray, float]:
    """The pairwise squared distances and the median rule on them, counted while they are built."""
    tally = _new_tally(x, 0)
    d2 = _pairwise_sq_dists(x, tally)
    _tally(_diagonal_squares(d2), tally)
    return d2, _median_bandwidth(d2, x, tally)


def _median_bandwidth(d2: np.ndarray, x: np.ndarray, tally: dict | None = None) -> float:
    """:func:`auto_bandwidth` from the strict upper triangle of d2, bit for bit np.median's.

    The pivots come from pair distances of the particles x (``_new_tally``);
    ``tally`` is a first count already made, as the build makes it.
    The median is the entry of rank h for an odd pair count and the mean
    (a + b) / 2.0 of ranks h - 1 and h for an even one, as in np.median
    (h = half the count, ranks from 0).  An entry tied with a pivot is
    classed with the bracket; when both pivots are one value, the bracket's
    entries are that value and only counted.  A NaN is in none of the
    classes below, within and above the bracket and makes the median NaN,
    as np.median's does (without its NaN check, which imports numpy.ma
    inside the first call of a process, where its objects can pin the heap
    above later calls' N x N buffers).  Pivots that miss a rank are placed
    again four times as far out in the sample and the triangle is counted
    again; past the sample's ends they are -inf and inf, which gather every
    entry.
    """
    n = d2.shape[0]
    ranks = _median_ranks(n)
    widen = 0
    while True:
        if tally is None:
            tally = _new_tally(x, widen)
            for blk in _row_blocks(n):
                _tally(d2[blk, blk.stop:], tally)
            _tally(_diagonal_squares(d2), tally)
        lo, hi, below = tally["lo"], tally["hi"], tally["below"]
        mid = np.concatenate(tally["pieces"])
        if np.isnan(mid).any():
            med = np.nan
            break
        k = ranks[-1] - below                   # the upper rank among the bracket's entries
        if below <= ranks[0] and k < (mid.size if lo < hi else tally["ties"]):
            if lo < hi:
                mid.partition(k)
                b = mid[k]
                # mid[:k] holds the k smallest: its max is the lower middle entry
                a = mid[:k].max() if len(ranks) == 2 else b
            else:
                a = b = lo
            med = float((a + b) / 2.0 if len(ranks) == 2 else b)
            break
        tally, widen = None, widen + 1
    if med <= 0:
        return 1.0
    return med / (4.0 * max(np.log(n), 1.0))


def _median_ranks(n: int) -> tuple[int, ...]:
    """The ranks (from 0) of the entries whose mean is the median of N particles' pair distances."""
    size = n * (n - 1) // 2
    h = size // 2
    return (h,) if size % 2 else (h - 1, h)


def _pair_sample(x: np.ndarray) -> np.ndarray:
    """|x_i - x_j|^2 over the pairs (i, i + o mod N), o at up to about _SAMPLE_OFFSETS strides of 1..N/2.

    Every particle is in as many pairs as every other, and the index gaps
    are spread as those of the whole triangle; nothing is drawn at random.
    """
    n = x.shape[0]
    half = n // 2
    step = max(1, half // _SAMPLE_OFFSETS)
    offsets = np.arange(1 + (step - 1) // 2, half + 1, step)     # the middles of the strides
    j = np.arange(n) + offsets[:, None]          # i + o, read from x twice over
    sample = np.zeros(j.shape)
    for col in x.T:
        sample += (np.concatenate([col, col])[j] - col) ** 2
    return sample.ravel()


def _new_tally(x: np.ndarray, widen: int) -> dict:
    """Pivots lo <= hi around the median's ranks among x's pair distances, and no counts yet.

    lo and hi are the entries of ``_pair_sample(x)`` _BRACKET 4**widen
    sqrt(m) ranks below and above where the ranks fall among its m non-NaN
    entries, or -inf and inf past its ends.
    """
    n = x.shape[0]
    sample = _pair_sample(x)
    ranks = _median_ranks(n)
    size = n * (n - 1) // 2
    m = sample.size - int(np.count_nonzero(np.isnan(sample)))
    margin = _BRACKET * 4.0 ** widen * math.sqrt(m)
    j_lo = math.floor(ranks[0] * m / size - margin)
    j_hi = math.ceil((ranks[-1] + 1) * m / size + margin)
    # two one-rank selects (numpy's select of two ranks at once took 8 times one's time)
    if 0 <= j_hi < m:
        sample.partition(j_hi)
    if 0 <= j_lo < m:
        sample[:j_hi].partition(j_lo)
    return {"lo": sample[j_lo] if 0 <= j_lo < m else -np.inf,
            "hi": sample[j_hi] if 0 <= j_hi < m else np.inf,
            "below": 0, "ties": 0, "pieces": []}


def _tally(part: np.ndarray, tally: dict) -> None:
    """Class the entries of ``part`` against ``tally``'s pivots lo <= hi.

    An entry below lo adds to ``below``; one in [lo, hi], or a NaN, is
    gathered into ``pieces``, or when lo == hi adds to ``ties`` and only a
    NaN is gathered.
    """
    lo, hi = tally["lo"], tally["hi"]
    below = part < lo
    mid = below == (part > hi)      # neither below lo nor above hi, as a NaN is neither
    tally["below"] += np.count_nonzero(below)
    if lo < hi:
        tally["pieces"].append(part[mid])
    else:       # the bracket's entries all equal lo: count them, and gather only NaNs
        tally["ties"] += np.count_nonzero(mid)
        tally["pieces"].append(part[mid & (part != lo)])


def _block_rows(n: int) -> int:
    """Rows in a block of an N x N array: about _BLOCK_ELEMS entries, and at most N."""
    return min(n, max(1, _BLOCK_ELEMS // n))


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an N x N array, _block_rows(N) rows each but the last."""
    rows = _block_rows(n)
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _diagonal_squares(d2: np.ndarray) -> np.ndarray:
    """The strict upper triangles of the row blocks' diagonal squares d2[blk, blk], in one array.

    With the rectangles d2[blk, blk.stop:] they make up d2's strict upper triangle.
    """
    n = d2.shape[0]
    rows = _block_rows(n)
    iu, ju = np.triu_indices(rows, 1)
    start = np.arange(0, n, rows)[:, None]
    i, j = (start + iu).ravel(), (start + ju).ravel()
    keep = j < n
    return d2[i[keep], j[keep]]


def _pairwise_sq_dists(x: np.ndarray, tally: dict | None = None) -> np.ndarray:
    """|x_i - x_j|^2 = sum_k (x_ik - x_jk)^2 as one N x N array, filled by row blocks.

    x_ik - x_jk only changes sign under i <-> j, so the array is exactly symmetric with a
    zero diagonal, and a shift of the particles cancels in each difference.  One scratch block.
    If ``tally`` is given, each finished block's part right of its diagonal square,
    d2[blk, blk.stop:], is classed into it (``_tally``) while in cache.
    """
    n = x.shape[0]
    d2 = np.empty((n, n))
    xt = np.ascontiguousarray(x.T)
    blocks = _row_blocks(n)
    tmp = np.empty((blocks[0].stop, n))
    for blk in blocks:
        rows, part = d2[blk], tmp[:blk.stop - blk.start]
        for k, col in enumerate(xt):
            dst = part if k else rows
            np.square(np.subtract(col[blk, None], col, out=dst), out=dst)
            if k:
                rows += part
        if tally is not None:
            _tally(d2[blk, blk.stop:], tally)
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
    rows = _block_rows(n)
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
    """Phi with Phi = T Phi + rhs and pi^T Phi = 0, for pi^T rhs = 0; eps only labels errors.

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
    and T = k / deg_i.  T is built in the one N x N buffer of the distances, for
    either kind of eps, in two passes over row blocks of about 128 KB.  A row
    whose off-diagonal mass is lost to rounding, or a kernel graph T_ij > 0 in
    several connected parts, leaves the fixed point without a unique solution
    and raises ``GainSolveError``.
    """
    n = x.shape[0]
    if n < 2:
        raise ValueError("diffusion map gain requires at least 2 particles")
    auto = isinstance(eps, str)
    if auto and eps != "auto":
        raise ValueError(f"unknown bandwidth spec {eps!r}")
    if not auto and float(eps) <= 0:
        raise GainSolveError("kernel bandwidth eps must be positive")

    T, eps = _dists_and_bandwidth(x) if auto else (_pairwise_sq_dists(x), float(eps))
    # g = exp(-d2 / (4 eps)) and its row sums; d2 / -(4 eps) has the bits of -d2 / (4 eps)
    row = np.empty(n)
    for blk in _row_blocks(n):
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
        hint = "" if auto else f"; try eps around {_dists_and_bandwidth(x)[1]:.3e}"
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
    vector, and its stationary weights pi (``_markov_matrix``).  The paper's
    fixed point Phi = T Phi + eps (h - hbar), hbar = sum_i pi_i h(X^i), is
    linear in its right-hand side, so Phi = eps Psi with

        Psi = T Psi + (h - hbar),

    pinned by pi^T Psi = 0, the limit of the sweeps Psi <- T Psi + (h - hbar)
    from Psi = 0.  T is reversible with respect to pi, so the solve is
    Jacobi-preconditioned conjugate gradients on T itself
    (``_solve_fixed_point``): one product with T per iteration and no
    factorisation.  The paper's readout K^i = sum_j s_ij X^j,
    s_ij = T_ij (r_j - sum_k T_ik r_k) / (2 eps) with r = Phi + eps h, has
    r = eps (Psi + h), so eps cancels and the gains are

        K^i = (1/2) [ sum_j T_ij r_j X^j - (T r)_i sum_j T_ij X^j ],  r = Psi + h,

    from the one matrix product T [r | r (x) X | X] (N x (m + dm + d)).  eps
    enters only the kernel: as eps -> inf, T -> 1 pi^T and K tends to the
    constant gain, with no overflow at any finite eps.  Vector observations
    share the kernel and solve one fixed-point problem per component.  A
    nonfinite gain raises ``GainSolveError``, as do the kernel's own refusals.

    Memory: a call peaks at one N x N float64 array, T, and one row block of
    about 128 KB.  eps ``"auto"``, and a refusal's hint after T is released,
    add twice the distances between the median's pivots (about N^1.5 / 2),
    gathered while T is built: 1.06 N x N at N = 1000.  The solve adds a few
    N x m vectors.
    """
    x = _as_matrix(particles)
    h = _as_matrix(h_values)
    n, d = x.shape
    m = h.shape[1]
    T, pi, eps = _markov_matrix(x, eps)

    r = _solve_fixed_point(T, pi, h - pi @ h, eps) + h       # Psi + h, (N, m)
    # the three sums are the column blocks of one product T [r | r (x) x | x]
    rx = (x[:, :, None] * r[:, None, :]).reshape(n, d * m)
    Tr, TrX, TX = np.split(T @ np.concatenate([r, rx, x], axis=1), [m, m + d * m], axis=1)
    gains = (TrX.reshape(n, d, m) - TX[:, :, None] * Tr[:, None, :]) / 2.0
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
