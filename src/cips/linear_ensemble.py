"""Exact linear-Gaussian ensemble filters: square-root, perturbed, deterministic.

All three are particle realizations of mean-field processes whose deviation
dynamics (G_t, sigma_t, sigma'_t) satisfy the same consistency equation

    G S + S G^T + sigma sigma^T + sigma' sigma'^T = Ricc(S),

so they share the Kalman-Bucy filter as their mean-field limit and differ
only in how much randomness the coupling injects.
"""

from __future__ import annotations

import numpy as np

from .core import RngStream, solve_with_jitter
from .core import empirical_moments  # noqa: F401  (re-exported public name)
from .exceptions import FilterDivergenceError
from .fpf import Ensemble
from .models import FilterModel

VARIANT_TAGS = ("sqrt", "perturbed", "deterministic")


def _check_variant(variant: str) -> None:
    if variant not in VARIANT_TAGS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANT_TAGS}")


def linear_enkf_step(
    ens: Ensemble,
    dz: np.ndarray,
    dt: float,
    model: FilterModel,
    variant: str,
    rng: RngStream,
) -> Ensemble:
    """One Euler step of the exact linear ensemble filter tagged ``variant``.

    * ``sqrt``: symmetrized innovation dZ - H (X^i + m)/2 dt, process noise on.
    * ``perturbed``: innovation dZ - H X^i dt - dW^i with per-particle
      observation-noise draws dW^i ~ N(0, sigma_w^2 dt I).
    * ``deterministic``: no sampled noise at all; the process-noise effect is
      reproduced by the drift term sigma_B sigma_B^T Sigma^{-1} (X^i - m) / 2.
    """
    _check_variant(variant)
    if model.linear is None:
        raise ValueError("linear_enkf_step requires a model with a linear descriptor")
    if not dt > 0:
        raise ValueError("dt must be positive")
    A, H, sigma_B = model.linear.A, model.linear.H, model.sigma_B
    r = model.obs_noise_scale**2
    dz = np.atleast_1d(np.asarray(dz, dtype=float))

    x = ens.particles
    n, d = x.shape
    mean, Sigma = ens.moments
    gain = Sigma @ H.T / r                     # (d, m)

    hx = x @ H.T                               # (N, m)
    hm = H @ mean

    if variant == "perturbed":
        dw = np.sqrt(dt) * model.obs_noise_scale * rng.standard_normal((n, H.shape[0]))
        innovation = dz - hx * dt - dw
    else:
        innovation = dz - 0.5 * (hx + hm) * dt
    if variant == "deterministic":
        Sigma_inv = solve_with_jitter(Sigma, np.eye(d))
        process = 0.5 * (x - mean) @ ((sigma_B @ sigma_B.T) @ Sigma_inv).T * dt
    else:
        db = np.sqrt(dt) * rng.standard_normal((n, sigma_B.shape[1]))
        process = db @ sigma_B.T

    # the two moves are summed first; the enkf-* outputs round that way
    x_new = x + (x @ A.T) * dt + (process + innovation @ gain.T)
    if not np.all(np.isfinite(x_new)):
        raise FilterDivergenceError(
            f"ensemble became nonfinite after step at t={ens.time:.6g}"
        )
    return Ensemble(particles=x_new, time=ens.time + dt)
