"""Seeded randomness and symmetric-matrix primitives shared by all modules.

Conventions enforced here and relied on everywhere else:

* every random draw flows through an :class:`RngStream`, so a pipeline is a
  pure function of its seed;
* an ensemble mean sums each coordinate pairwise over one contiguous copy,
  so the same particles give the same bits whatever their memory layout,
  and single-threaded runs are bit-reproducible;
* near-PSD matrices with round-off eigenvalues in ``[-1e-10 * trace, 0)``
  are repaired by clipping, anything more negative is an error;
* a singular empirical covariance gets one diagonal-jitter retry before it
  is declared singular;
* passes over large arrays run in blocks of ``_BLOCK_ELEMS`` entries.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotPositiveDefiniteError

# Eigenvalues of a nominally PSD matrix may dip below zero by round-off.
# Relative clip threshold for the repair policy:
PSD_CLIP_REL = 1e-10

SYMMETRY_RTOL = 1e-12

# One-shot diagonal jitter, relative to the mean eigenvalue, applied before
# declaring an empirical covariance singular.
_JITTER_REL = 1e-9

# Passes over arrays that grow with N (the diffusion map's N x N rows, the
# static benchmark's replicate draws) run in blocks of about 128 KB (2**14
# float64).  A block stays in cache between the operations of a pass and far
# below the whole array, so glibc reuses the freed heap on the next call
# instead of trimming it (1 MB blocks: ~125 page faults a gain call at N=200).
_BLOCK_ELEMS = 2**14


class RngStream:
    """Counter-based random stream with derivable sub-streams.

    Wraps ``numpy.random.Generator`` (PCG64) seeded through a
    ``SeedSequence``.  The same ``seed`` always yields the same sample
    sequence.  ``substream(i)`` derives an independent stream; nested
    derivation is supported and the full derivation path identifies the
    stream, so per-particle / per-replicate streams do not collide.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self._path))
        )

    def substream(self, index: int) -> "RngStream":
        """Independent stream derived from this one by integer index."""
        return RngStream(self.seed, self._path + (int(index),))

    def __getattr__(self, name):
        # Delegate sampling methods; copy and pickle probe private names before _gen is set.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._gen, name)

    def __repr__(self):  # pragma: no cover
        return f"RngStream(seed={self.seed}, path={self._path})"


def symmetrize(mat: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate symmetry of ``mat`` and return (mat + mat.T) / 2.

    Raises ``ValueError`` if the relative asymmetry exceeds ``rtol``.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(np.abs(mat).max(), 1.0)
    asym = np.abs(mat - mat.T).max()
    if asym > rtol * scale:
        raise ValueError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds {rtol:.1e} * {scale:.3e}"
        )
    return 0.5 * (mat + mat.T)


def empirical_moments(particles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and unbiased (N-1)-normalized covariance.

    Batched: (..., N, d) particles give (..., d) and (..., d, d).  They are
    copied once into contiguous coordinate rows, each summed pairwise and
    centred in place, so every memory layout, and each ensemble of a batch
    alone, gives the same bits.  An ensemble state caches its own moments.
    """
    x = np.asarray(particles, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[-2]
    if n < 2:
        raise ValueError("empirical moments require at least 2 particles")
    rows = np.array(x.swapaxes(-1, -2), order="C")
    mean = rows.sum(axis=-1) / n
    rows -= mean[..., None]
    cov = rows @ rows.swapaxes(-1, -2) / (n - 1)
    return mean, 0.5 * (cov + cov.swapaxes(-1, -2))


def solve_with_jitter(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve cov @ X = rhs, retrying once with diagonal jitter if cov is singular."""
    d = cov.shape[0]
    try:
        return np.linalg.solve(cov, rhs)
    except np.linalg.LinAlgError:
        jitter = _JITTER_REL * np.trace(cov) / d
        try:
            return np.linalg.solve(cov + jitter * np.eye(d), rhs)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                "empirical covariance singular even after jitter"
            ) from exc


def is_positive_definite(mat: np.ndarray) -> bool:
    """Cholesky-based SPD check (symmetry is assumed)."""
    try:
        np.linalg.cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


def _clipped_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD matrix, applying the clip policy.

    Eigenvalues in ``[-PSD_CLIP_REL * trace, 0)`` are set to 0; smaller ones
    raise :class:`NotPositiveDefiniteError`.
    """
    eigval, eigvec = np.linalg.eigh(mat)
    tol = PSD_CLIP_REL * max(np.trace(mat), 0.0)
    if eigval.min() < -tol:
        raise NotPositiveDefiniteError(
            f"eigenvalue {eigval.min():.6e} below -{PSD_CLIP_REL:.0e} * trace "
            f"(= {-tol:.6e})"
        )
    return np.clip(eigval, 0.0, None), eigvec


def sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root R of a symmetric PSD matrix, R @ R = mat."""
    mat = symmetrize(mat)
    eigval, eigvec = _clipped_eigh(mat)
    root = (eigvec * np.sqrt(eigval)) @ eigvec.T
    return 0.5 * (root + root.T)


def psd_factor(mat: np.ndarray) -> np.ndarray:
    """Factor L with L @ L.T = mat for sampling.

    Uses Cholesky when ``mat`` is PD, otherwise the eigenvalue-clipped
    factor (handles semidefinite covariances such as exact zeros).
    """
    mat = symmetrize(mat)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        eigval, eigvec = _clipped_eigh(mat)
        return eigvec * np.sqrt(eigval)


def sample_gaussian(
    rng: RngStream,
    mean: np.ndarray,
    cov: np.ndarray,
    size: int | None = None,
) -> np.ndarray:
    """Draw from N(mean, cov).

    Returns shape ``(d,)`` for ``size=None``, else ``(size, d)``.  ``cov``
    must be symmetric PSD; degenerate directions produce exactly the mean
    component (zero covariance gives back ``mean``).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    d = mean.shape[0]
    if cov.shape != (d, d):
        raise ValueError(
            f"dimension mismatch: mean has length {d}, cov has shape {cov.shape}"
        )
    factor = psd_factor(cov)
    n = 1 if size is None else int(size)
    z = rng.standard_normal((n, factor.shape[1]))
    out = mean + z @ factor.T
    return out[0] if size is None else out
