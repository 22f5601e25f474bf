"""Importance-sampling baselines: static estimator weights and a bootstrap filter.

Weights are kept in the log domain throughout; the static benchmark at
d >= 10 underflows otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream
from .exceptions import WeightCollapseError
from .models import FilterModel

# Systematic resampling triggers when the effective sample size falls below
# this fraction of N.
RESAMPLE_THRESHOLD = 0.5


@dataclass(frozen=True)
class WeightedEnsemble:
    """Particles with normalized importance weights."""

    particles: np.ndarray  # (N, d)
    weights: np.ndarray    # (N,)

    def __post_init__(self):
        x = np.asarray(self.particles, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "particles", x)
        object.__setattr__(self, "weights", w)
        if x.shape[0] < 2:
            raise ValueError("an ensemble needs at least 2 particles")
        if w.shape != (x.shape[0],):
            raise ValueError("one weight per particle required")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")

    @property
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted mean sum_i w_i X^i and covariance sum_i w_i (X^i - m)(X^i - m)^T."""
        mean = self.weights @ self.particles
        centered = self.particles - mean
        return mean, centered.T @ (self.weights[:, None] * centered)


def uniform_weighted(particles: np.ndarray) -> WeightedEnsemble:
    x = np.asarray(particles, dtype=float)
    n = x.shape[0]
    return WeightedEnsemble(particles=x, weights=np.full(n, 1.0 / n))


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum_i w_i^2 of normalized weights, in [1, N]."""
    return float(1.0 / np.sum(weights**2))


def _shifted_weights(logw: np.ndarray) -> np.ndarray:
    """exp(logw - max) along the last axis, in place, so the largest weight is 1."""
    top = logw.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise WeightCollapseError("all importance weights collapsed to zero")
    logw -= top
    return np.exp(logw, out=logw)


def _log_likelihood(samples: np.ndarray, z1: np.ndarray, sigma_w: float) -> np.ndarray:
    """-|Z_1 - X^i|^2 / (2 sigma_w^2), (..., N), in place in np.sum's order for d < 8."""
    out = np.square(z1[..., None, 0] - samples[..., 0])
    diff = np.empty_like(out)
    for k in range(1, samples.shape[-1]):
        np.subtract(z1[..., None, k], samples[..., k], out=diff)
        out += np.square(diff, out=diff)
    out /= -2.0 * sigma_w**2  # -(sum) / (2 sigma_w^2) bit for bit: rounding is sign-symmetric
    return out


def self_normalized_estimate(
    samples: np.ndarray,
    z1: np.ndarray,
    sigma_w: float,
    fvals: np.ndarray,
) -> np.ndarray:
    """Self-normalized importance-sampling estimate, batched over leading axes.

    ``samples`` has shape ``(..., N, d)``, ``z1`` shape ``(..., d)`` and
    ``fvals`` shape ``(..., N)``; the result ``(...)`` is
    sum_i w_i f_i / sum_i w_i with w_i proportional to
    exp(-|Z_1 - X^i|^2 / (2 sigma_w^2)), stabilized through log-sum-exp.
    """
    w = _shifted_weights(_log_likelihood(samples, z1, sigma_w))
    return np.sum(w * fvals, axis=-1) / np.sum(w, axis=-1)


def modified_weights(
    samples: np.ndarray,
    z1: np.ndarray,
    sigma0: float,
    sigma_w: float,
) -> np.ndarray:
    """Exact-denominator importance weights, batched over leading axes.

    ``samples`` has shape ``(..., N, d)`` and ``z1`` shape ``(..., d)``; the
    result ``(..., N)`` is exp(-|Z_1 - X^i|^2 / (2 sigma_w^2)) / (N D(Z_1)).
    The prior must be N(0, sigma0^2 I) so that the denominator
    D(Z_1) = E[exp(-|Z_1 - X|^2 / (2 sigma_w^2))] has the closed form
    prod_j sqrt(sigma_w^2/(sigma0^2+sigma_w^2)) exp(-Z_1j^2/(2(sigma0^2+sigma_w^2))).
    """
    n, d = samples.shape[-2:]
    s2 = sigma0**2 + sigma_w**2
    log_w = _log_likelihood(samples, z1, sigma_w)
    log_w -= (
        np.log(n)
        + 0.5 * d * np.log(sigma_w**2 / s2)
        - np.sum(z1**2, axis=-1) / (2.0 * s2)
    )[..., None]
    return np.exp(log_w, out=log_w)


def systematic_resample(weights: np.ndarray, rng: RngStream) -> np.ndarray:
    """Systematic resampling; returns N particle indices in [0, N).

    The last cumulative weight is pinned to 1: rounding can leave the sum
    just below 1, and a position above it would index past the end.
    """
    n = weights.shape[0]
    positions = (np.arange(n) + rng.random()) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


def bootstrap_pf_step(
    wens: WeightedEnsemble,
    dz: np.ndarray,
    dt: float,
    model: FilterModel,
    rng: RngStream,
) -> WeightedEnsemble:
    """One propagate/weight/resample step of the bootstrap particle filter.

    Particles move by Euler-Maruyama, log-weights pick up the discretized
    Girsanov increment (h . dZ - |h|^2 dt / 2) / sigma_w^2, and systematic
    resampling triggers when ESS < RESAMPLE_THRESHOLD * N.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    x = wens.particles
    n = x.shape[0]
    dz = np.atleast_1d(np.asarray(dz, dtype=float))

    x_new = model.propagate(x, dt, rng)
    if not np.all(np.isfinite(x_new)):
        raise WeightCollapseError("particle became nonfinite during propagation")

    h = model.observation(x_new)
    if h.ndim == 1:
        h = h[:, None]
    # overflow in |h|^2 drives the log-weight to -inf, handled as collapse
    with np.errstate(divide="ignore", over="ignore"):
        girsanov = (h @ dz - 0.5 * np.sum(h * h, axis=1) * dt) / model.obs_noise_scale**2
        logw = np.log(wens.weights) + girsanov
    w = _shifted_weights(logw)
    w = w / w.sum()

    if ess(w) < RESAMPLE_THRESHOLD * n:
        idx = systematic_resample(w, rng)
        x_new = x_new[idx]
        w = np.full(n, 1.0 / n)
    return WeightedEnsemble(particles=x_new, weights=w)
