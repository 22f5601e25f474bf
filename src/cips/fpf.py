"""Finite-N feedback particle filter with pluggable gain approximation.

Each particle follows a copy of the signal model plus a gain-times-error
correction, discretized at the pre-step particle locations with the
symmetrized innovation

    X^i <- X^i + a(X^i) dt + sigma_B dB^i
               + K^i (dZ - (h(X^i) + h^{(N)}) / 2 dt) / sigma_w^2.

The gain method returns one (N, d, m) array of per-particle gains; a
nonfinite gain shows up as a nonfinite particle and raises
``FilterDivergenceError``.  Weights stay uniform by construction; no
resampling is ever performed.

:func:`run_filter` steps any particle filter of the package (this one, the
linear ensemble filters, the bootstrap particle filter) along an
observation path and records its moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .core import RngStream, empirical_moments
from .exceptions import FilterDivergenceError, NumericError
from .models import FilterModel, ObservationPath

# A gain method maps the particles (N, d) and h at them (N, m) to the gains
# (N, d, m), e.g. gain.constant_gain, or gain.galerkin_gain with its basis
# bound, or gain.diffusion_map_gain with its eps bound.
GainMethod = Callable[[np.ndarray, np.ndarray], np.ndarray]


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

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical mean and (N-1)-normalized covariance, formed once per state."""
        return empirical_moments(self.particles)


def fpf_step(
    ens: Ensemble,
    dz: np.ndarray,
    dt: float,
    model: FilterModel,
    gain_method: GainMethod,
    rng: RngStream,
) -> Ensemble:
    """One Euler step of the finite-N feedback particle filter.

    A numeric failure of the gain (a ``NumericError`` or numpy's
    ``LinAlgError``) is raised again as ``FilterDivergenceError`` with the
    step's time; any other error, such as a ``MemoryError``, passes as raised.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    dz = np.atleast_1d(np.asarray(dz, dtype=float))
    if dz.shape != (model.dim_obs,):
        raise ValueError(f"dz has shape {dz.shape}, expected ({model.dim_obs},)")

    x = ens.particles
    h = model.observation(x)
    if h.ndim == 1:
        h = h[:, None]
    h_mean = h.mean(axis=0)

    try:
        gains = gain_method(x, h)                       # (N, d, m)
    except (NumericError, np.linalg.LinAlgError) as exc:
        raise FilterDivergenceError(
            f"gain computation failed at t={ens.time:.6g}: {exc}"
        ) from exc

    innovation = dz - 0.5 * (h + h_mean) * dt           # (N, m)
    control = np.einsum("ndm,nm->nd", gains, innovation) / model.obs_noise_scale**2
    x_new = model.propagate(x, dt, rng) + control
    if not np.all(np.isfinite(x_new)):
        raise FilterDivergenceError(
            f"particle became nonfinite after step at t={ens.time:.6g}"
        )
    return Ensemble(particles=x_new, time=ens.time + dt)


@dataclass(frozen=True)
class FilterRun:
    """Per-step first and second moments plus the final state."""

    times: np.ndarray      # (K + 1,)
    means: np.ndarray      # (K + 1, d)
    covs: np.ndarray       # (K + 1, d, d)
    final_state: Any       # an ensemble, or kalman_bucy_run's GaussianBelief


def run_filter(
    model: FilterModel,
    obs: ObservationPath,
    start: Any,
    step: Callable[..., Any],
    rng: RngStream,
) -> FilterRun:
    """Step a particle filter along an observation path, recording its moments.

    ``start`` is the state at t = 0 (an :class:`Ensemble` or a
    :class:`cips.sir.WeightedEnsemble`); ``step(state, dz, dt, model, rng=rng)``
    returns the next one.  ``state.moments`` is read before the first step
    and after each step.
    """
    K = obs.num_steps
    d = model.dim_state
    means = np.empty((K + 1, d))
    covs = np.empty((K + 1, d, d))
    state = start
    means[0], covs[0] = state.moments
    for k in range(K):
        state = step(state, obs.increments[k], obs.dt, model, rng=rng)
        means[k + 1], covs[k + 1] = state.moments
    return FilterRun(times=obs.times, means=means, covs=covs, final_state=state)
