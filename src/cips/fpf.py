"""Finite-N feedback particle filter with pluggable gain approximation.

Each particle follows a copy of the signal model plus a gain-times-error
correction, discretized at the pre-step particle locations with the
symmetrized innovation

    X^i <- X^i + a(X^i) dt + sigma_B(X^i) dB^i
               + K^i (dZ - (h(X^i) + h^{(N)}) / 2 dt) / sigma_w^2.

Weights stay uniform by construction; no resampling is ever performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import RngStream
from .exceptions import ConfigError, FilterDivergenceError
from .gain import (
    BasisSet,
    GainField,
    constant_gain,
    diffusion_map_gain,
    galerkin_gain,
)
from .models import FilterModel, ObservationPath

GainMethod = Callable[[np.ndarray, np.ndarray], GainField]


@dataclass(frozen=True)
class Ensemble:
    """Uniformly weighted particle set at a common time stamp."""

    particles: np.ndarray  # (N, d)
    time: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.particles, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        object.__setattr__(self, "particles", x)
        if x.shape[0] < 2:
            raise ValueError("an ensemble needs at least 2 particles")
        if not np.all(np.isfinite(x)):
            raise ValueError("ensemble contains nonfinite coordinates")

    @property
    def num_particles(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


class ConstantGainMethod:
    """Constant-gain approximation (empirical cross-covariance)."""

    def __call__(self, particles: np.ndarray, h_values: np.ndarray) -> GainField:
        return constant_gain(particles, h_values)


class GalerkinGainMethod:
    """Galerkin approximation on a fixed basis."""

    def __init__(self, basis: BasisSet):
        self.basis = basis

    def __call__(self, particles: np.ndarray, h_values: np.ndarray) -> GainField:
        return galerkin_gain(particles, h_values, self.basis)


def _bandwidth_spec(eps) -> float | str:
    """'auto' or a positive finite float; numeric strings are accepted."""
    if eps == "auto":
        return eps
    try:
        value = float(eps)
    except (TypeError, ValueError):
        value = float("nan")
    if isinstance(eps, bool) or not (np.isfinite(value) and value > 0):
        raise ConfigError(f"eps must be 'auto' or a positive number, got {eps!r}")
    return value


class DiffusionMapGainMethod:
    """Diffusion-map approximation, warm-starting each solve from the last."""

    def __init__(self, eps: float | str = "auto", num_sweeps: int | None = None):
        self.eps = _bandwidth_spec(eps)
        self.num_sweeps = num_sweeps
        self._phi_prev: np.ndarray | None = None

    def reset(self):
        self._phi_prev = None

    def __call__(self, particles: np.ndarray, h_values: np.ndarray) -> GainField:
        field, state = diffusion_map_gain(
            particles, h_values, self.eps,
            num_sweeps=self.num_sweeps, phi_prev=self._phi_prev,
        )
        self._phi_prev = state.phi
        return field


def fpf_step(
    ens: Ensemble,
    dz: np.ndarray,
    dt: float,
    model: FilterModel,
    gain_method: GainMethod,
    rng: RngStream,
) -> Ensemble:
    """One Euler step of the finite-N feedback particle filter."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dz = np.atleast_1d(np.asarray(dz, dtype=float))
    if dz.shape != (model.dim_obs,):
        raise ValueError(f"dz has shape {dz.shape}, expected ({model.dim_obs},)")

    x = ens.particles
    n = x.shape[0]
    h = model.observation(x)
    if h.ndim == 1:
        h = h[:, None]
    h_mean = h.mean(axis=0)

    try:
        field = gain_method(x, h)
    except ConfigError:
        raise
    except Exception as exc:
        raise FilterDivergenceError(
            f"gain computation failed at t={ens.time:.6g}: {exc}"
        ) from exc
    gains = field.per_particle(n)                       # (N, d, m)

    innovation = dz - 0.5 * (h + h_mean) * dt           # (N, m)
    control = np.einsum("ndm,nm->nd", gains, innovation) / model.obs_noise_scale**2

    q = model.diffusion_width(x)
    db = np.sqrt(dt) * rng.standard_normal((n, q))
    x_new = x + model.drift(x) * dt + model.diffusion_term(x, db) + control
    if not np.all(np.isfinite(x_new)):
        raise FilterDivergenceError(
            f"particle became nonfinite after step at t={ens.time:.6g}"
        )
    return Ensemble(particles=x_new, time=ens.time + dt)


def fpf_estimate(ens: Ensemble, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Unweighted particle average (1/N) sum_i f(X^i)."""
    vals = np.asarray(f(ens.particles), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("f is nonfinite on the ensemble")
    return float(vals.mean())


@dataclass(frozen=True)
class FilterRun:
    """Per-step first and second moments plus the final ensemble."""

    times: np.ndarray      # (K + 1,)
    means: np.ndarray      # (K + 1, d)
    covs: np.ndarray       # (K + 1, d, d), (N-1)-normalized
    ensemble: Ensemble


def run_fpf(
    model: FilterModel,
    obs: ObservationPath,
    num_particles: int,
    gain_method: GainMethod,
    rng: RngStream,
) -> FilterRun:
    """Run the FPF along an observation path from an i.i.d. prior ensemble."""
    from .linear_ensemble import empirical_moments

    x0 = model.sample_prior(rng, num_particles)
    ens = Ensemble(particles=x0, time=obs.t0)
    K = obs.num_steps
    d = model.dim_state
    means = np.empty((K + 1, d))
    covs = np.empty((K + 1, d, d))
    means[0], covs[0] = empirical_moments(ens.particles)
    for k in range(K):
        ens = fpf_step(ens, obs.increments[k], obs.dt, model, gain_method, rng)
        means[k + 1], covs[k + 1] = empirical_moments(ens.particles)
    return FilterRun(times=obs.times, means=means, covs=covs, ensemble=ens)
