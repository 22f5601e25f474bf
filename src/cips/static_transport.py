"""Static Gaussian update maps.

Two ways to move a prior sample to the conditional law of X given Y = y in a
jointly Gaussian model: the symmetric optimal-transport affine map and the
random perturbed-observation map.  Both reproduce the conditional mean and
covariance of the exact Bayes update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, sample_gaussian, sym_sqrt, symmetrize
from .exceptions import NotPositiveDefiniteError


@dataclass(frozen=True)
class JointGaussian:
    """Jointly Gaussian (X, Y) given by means and covariance blocks."""

    mean_x: np.ndarray   # (d,)
    mean_y: np.ndarray   # (m,)
    cov_x: np.ndarray    # (d, d)
    cov_xy: np.ndarray   # (d, m)
    cov_y: np.ndarray    # (m, m)

    def __post_init__(self):
        mean_x = np.atleast_1d(np.asarray(self.mean_x, dtype=float))
        mean_y = np.atleast_1d(np.asarray(self.mean_y, dtype=float))
        cov_x = symmetrize(np.atleast_2d(np.asarray(self.cov_x, dtype=float)))
        cov_y = symmetrize(np.atleast_2d(np.asarray(self.cov_y, dtype=float)))
        cov_xy = np.atleast_2d(np.asarray(self.cov_xy, dtype=float))
        object.__setattr__(self, "mean_x", mean_x)
        object.__setattr__(self, "mean_y", mean_y)
        object.__setattr__(self, "cov_x", cov_x)
        object.__setattr__(self, "cov_xy", cov_xy)
        object.__setattr__(self, "cov_y", cov_y)
        d, m = mean_x.shape[0], mean_y.shape[0]
        if cov_x.shape != (d, d) or cov_y.shape != (m, m) or cov_xy.shape != (d, m):
            raise ValueError("mean and covariance block shapes are inconsistent")
        joint = self.joint_cov()
        eigmin = np.linalg.eigvalsh(joint).min()
        if eigmin < -1e-10 * max(np.trace(joint), 1.0):
            raise NotPositiveDefiniteError(
                f"joint covariance has eigenvalue {eigmin:.3e}"
            )
        try:
            np.linalg.cholesky(cov_y)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("cov_y must be positive definite") from exc

    @property
    def dim_x(self) -> int:
        return self.mean_x.shape[0]

    @property
    def dim_y(self) -> int:
        return self.mean_y.shape[0]

    def joint_cov(self) -> np.ndarray:
        top = np.hstack([self.cov_x, self.cov_xy])
        bottom = np.hstack([self.cov_xy.T, self.cov_y])
        return np.vstack([top, bottom])

    def gain(self) -> np.ndarray:
        """Best-linear-estimator gain K = cov_xy cov_y^{-1}."""
        return np.linalg.solve(self.cov_y.T, self.cov_xy.T).T

    def sample(self, rng: RngStream, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n joint draws; returns (x, y) with shapes (n, d) and (n, m)."""
        d = self.dim_x
        xy = sample_gaussian(rng, np.concatenate([self.mean_x, self.mean_y]), self.joint_cov(), n)
        return xy[:, :d], xy[:, d:]


def _observation(y: np.ndarray, dim_y: int) -> np.ndarray:
    """y as a float vector; ``ValueError`` unless it has length dim_y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (dim_y,):
        raise ValueError(f"y has shape {y.shape}, expected ({dim_y},) to match cov_y")
    return y


def blue_update(jg: JointGaussian, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and covariance of X given Y = y.

    mean = E[X] + K (y - E[Y]) with K = cov_xy cov_y^{-1}; for a Gaussian
    joint this is the exact Bayes posterior, otherwise the best linear
    estimator.  Raises ``ValueError`` unless y has jg's observation dimension.
    """
    y = _observation(y, jg.dim_y)
    K = jg.gain()
    mean = jg.mean_x + K @ (y - jg.mean_y)
    cov = jg.cov_x - K @ jg.cov_xy.T
    return mean, symmetrize(cov, rtol=1e-9)


@dataclass(frozen=True)
class AffineMap:
    """Affine update x0 -> matrix (x0 - mean_x) + gain (y - mean_y) + mean_x."""

    matrix: np.ndarray  # (d, d) symmetric PSD transport factor
    gain: np.ndarray    # (d, m)
    mean_x: np.ndarray
    mean_y: np.ndarray

    def __call__(self, x0: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Map prior samples x0 (n, d); ``ValueError`` unless y has mean_y's length."""
        x0 = np.asarray(x0, dtype=float)
        y = _observation(y, np.size(self.mean_y))
        shift = self.gain @ (y - self.mean_y) + self.mean_x
        return (x0 - self.mean_x) @ self.matrix.T + shift


def ot_affine_map(jg: JointGaussian) -> AffineMap:
    """Deterministic optimal-transport update map for a Gaussian joint.

    The matrix part is the unique symmetric PSD solution A of
    A cov_x A = cov_x - K cov_y K^T, computed by the two-square-roots
    formula A = cov_x^{-1/2} (cov_x^{1/2} M cov_x^{1/2})^{1/2} cov_x^{-1/2}.
    Raises ``NotPositiveDefiniteError`` when cov_x is not positive definite or
    the map has a nonfinite entry (cov_x^{1/2} M cov_x^{1/2} overflows).
    """
    try:
        np.linalg.cholesky(jg.cov_x)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("cov_x must be positive definite for the OT map") from exc
    K = jg.gain()
    M = symmetrize(jg.cov_x - K @ jg.cov_y @ K.T, rtol=1e-9)
    root_x = sym_sqrt(jg.cov_x)
    root_x_inv = np.linalg.inv(root_x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        inner = root_x @ M @ root_x
    if not np.all(np.isfinite(inner)):
        raise NotPositiveDefiniteError("the OT map of this cov_x has nonfinite entries")
    A = symmetrize(root_x_inv @ sym_sqrt(inner) @ root_x_inv, rtol=1e-6)
    return AffineMap(matrix=A, gain=K, mean_x=jg.mean_x, mean_y=jg.mean_y)


def perturbed_enkf_map(
    jg: JointGaussian,
    y: np.ndarray,
    rng: RngStream,
    size: int,
) -> np.ndarray:
    """Random perturbed-observation update samples.

    Draws ``size`` independent joint samples (x0, y0) and maps each to
    x0 + K (y - y0); the output is distributed as the conditional law of X
    given Y = y when the joint is Gaussian.  Raises ``ValueError`` unless y
    has jg's observation dimension.
    """
    y = _observation(y, jg.dim_y)
    K = jg.gain()
    x0, y0 = jg.sample(rng, size)
    return x0 + (y - y0) @ K.T
