"""Importance-sampling baselines: static estimators and a bootstrap filter.

Weights are kept in the log domain throughout; the static benchmark at
d >= 10 underflows otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import RngStream
from .exceptions import WeightCollapseError
from .models import FilterModel


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
        if w.shape != (x.shape[0],):
            raise ValueError("one weight per particle required")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")

    @property
    def num_particles(self) -> int:
        return self.particles.shape[0]


def uniform_weighted(particles: np.ndarray) -> WeightedEnsemble:
    x = np.asarray(particles, dtype=float)
    n = x.shape[0]
    return WeightedEnsemble(particles=x, weights=np.full(n, 1.0 / n))


def ess(wens: WeightedEnsemble) -> float:
    """Effective sample size 1 / sum_i w_i^2, in [1, N]."""
    return float(1.0 / np.sum(wens.weights**2))


def _normalize_log_weights(logw: np.ndarray) -> np.ndarray:
    top = logw.max()
    if not np.isfinite(top):
        raise WeightCollapseError("all importance weights collapsed to zero")
    w = np.exp(logw - top)
    return w / w.sum()


def static_is_estimate(
    samples: np.ndarray,
    z1: np.ndarray,
    sigma_w: float,
    f: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Self-normalized importance-sampling estimate for the static benchmark.

    Weights w_i proportional to exp(-|Z_1 - X^i|^2 / (2 sigma_w^2)),
    stabilized through log-sum-exp.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if sigma_w <= 0:
        raise ValueError("sigma_w must be positive")
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    logw = -np.sum((z1 - x) ** 2, axis=1) / (2.0 * sigma_w**2)
    w = _normalize_log_weights(logw)
    vals = np.asarray(f(x), dtype=float)
    return float(w @ vals)


def static_is_modified(
    samples: np.ndarray,
    z1: np.ndarray,
    sigma0: float,
    sigma_w: float,
    f: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Importance-sampling estimate with the exact normalizing denominator.

    Requires the prior to be N(0, sigma0^2 I) so that the denominator
    D(Z_1) = E[exp(-|Z_1 - X|^2 / (2 sigma_w^2))] has the closed form
    prod_j sqrt(sigma_w^2/(sigma0^2+sigma_w^2)) exp(-Z_1j^2/(2(sigma0^2+sigma_w^2))).
    The weights are intentionally not re-normalized.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    s2 = sigma0**2 + sigma_w**2
    log_num = -np.sum((z1 - x) ** 2, axis=1) / (2.0 * sigma_w**2)
    log_den = (
        np.log(n)
        + 0.5 * d * np.log(sigma_w**2 / s2)
        - np.sum(z1**2) / (2.0 * s2)
    )
    w = np.exp(log_num - log_den)
    if np.all(w == 0.0):
        raise WeightCollapseError("all modified importance weights underflowed")
    vals = np.asarray(f(x), dtype=float)
    return float(w @ vals)


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
    resample_threshold: float = 0.5,
) -> WeightedEnsemble:
    """One propagate/weight/resample step of the bootstrap particle filter.

    Particles move by Euler-Maruyama, log-weights pick up the discretized
    Girsanov increment (h . dZ - |h|^2 dt / 2) / sigma_w^2, and systematic
    resampling triggers when ESS < threshold * N.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = wens.particles
    n = x.shape[0]
    dz = np.atleast_1d(np.asarray(dz, dtype=float))

    q = model.diffusion_width(x)
    db = np.sqrt(dt) * rng.standard_normal((n, q))
    x_new = x + model.drift(x) * dt + model.diffusion_term(x, db)
    if not np.all(np.isfinite(x_new)):
        raise WeightCollapseError("particle became nonfinite during propagation")

    h = model.observation(x_new)
    if h.ndim == 1:
        h = h[:, None]
    # overflow in |h|^2 drives the log-weight to -inf, handled as collapse
    with np.errstate(divide="ignore", over="ignore"):
        girsanov = (h @ dz - 0.5 * np.sum(h * h, axis=1) * dt) / model.obs_noise_scale**2
        logw = np.log(wens.weights) + girsanov
    w = _normalize_log_weights(logw)

    if 1.0 / np.sum(w**2) < resample_threshold * n:
        idx = systematic_resample(w, rng)
        x_new = x_new[idx]
        w = np.full(n, 1.0 / n)
    return WeightedEnsemble(particles=x_new, weights=w)
