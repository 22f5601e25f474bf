"""Filtering/control model constructors and truth-path simulation.

A :class:`FilterModel` packages the drift and observation functions and the
constant noise matrix sigma_B of a continuous-time state-space model

    dX_t = a(X_t) dt + sigma_B dB_t,      X_0 ~ p0,
    dZ_t = h(X_t) dt + sigma_w dW_t,

together with a prior sampler.  All function oracles are batched: they map
``(n, d)`` arrays of states to arrays with leading dimension ``n``.  The
observation-noise scale ``sigma_w`` defaults to 1 (unit-noise observation
model); filters consume it as a scaling of the Z-increment weighting.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import RngStream, is_positive_definite, symmetrize
from .exceptions import FilterDivergenceError


def check_noise_scale(name: str, value: float) -> None:
    """``ValueError`` naming ``name`` unless ``value`` > 0 and value^2 is a
    normal float.  An infinite square, or one so small that 1/value^2
    overflows, would pass set-up and fail in the first step."""
    square = value * value  # value**2 raises OverflowError instead of giving inf
    if not (value > 0 and sys.float_info.min <= square < math.inf):
        raise ValueError(f"{name} must be positive, with a square that neither overflows "
                         f"nor underflows, got {value!r}")


def grid_steps(span: float, dt: float) -> int:
    """Number of steps of size ``dt`` that make up ``span``; it must be whole.

    Raises ``ValueError`` when dt is not positive, when span/dt is not a
    finite number (an overflowing step count), when it rounds to no step at
    all or when the steps miss ``span`` by more than 1e-9 relative.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    ratio = span / dt
    if not math.isfinite(ratio):
        raise ValueError(f"horizon {span} / dt {dt} is not a finite number of steps")
    steps = int(round(ratio))
    if steps < 1:
        raise ValueError(f"horizon {span} is shorter than one step dt {dt}")
    if abs(steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"horizon {span} is not a multiple of dt {dt}")
    return steps


@dataclass(frozen=True)
class LinearGaussianSpec:
    """Explicit matrices of a linear Gaussian model (when available)."""

    A: np.ndarray        # (d, d)
    H: np.ndarray        # (m, d)
    m0: np.ndarray       # (d,)
    Sigma0: np.ndarray   # (d, d)


@dataclass(frozen=True)
class FilterModel:
    """Nonlinear filtering model given through function oracles."""

    dim_obs: int
    drift: Callable[[np.ndarray], np.ndarray]          # (n,d) -> (n,d)
    sigma_B: np.ndarray                                # (d, q)
    observation: Callable[[np.ndarray], np.ndarray]    # (n,d) -> (n,m)
    sample_prior: Callable[[RngStream, int], np.ndarray]  # -> (n,d)
    obs_noise_scale: float = 1.0
    linear: LinearGaussianSpec | None = None

    @property
    def dim_state(self) -> int:
        return self.sigma_B.shape[0]

    def propagate(self, x: np.ndarray, dt: float, rng: RngStream) -> np.ndarray:
        """Euler-Maruyama move x + a(x) dt + sigma_B dB of every row, dB ~ N(0, dt I_q)."""
        db = np.sqrt(dt) * rng.standard_normal((x.shape[0], self.sigma_B.shape[1]))
        return x + self.drift(x) * dt + db @ self.sigma_B.T


@dataclass(frozen=True)
class ObservationPath:
    """Observation increments on the uniform time grid t_k = k dt."""

    dt: float
    increments: np.ndarray  # (K, m); row k is Z_{t_{k+1}} - Z_{t_k}

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not np.all(np.isfinite(self.increments)):
            raise ValueError("observation increments must be finite")

    @property
    def num_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.num_steps + 1)


@dataclass(frozen=True)
class Density1D:
    """Gaussian mixture density on the real line."""

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("means", "variances", "weights"):
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(value)):
                raise ValueError(f"mixture {name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if np.any(self.variances <= 0):
            raise ValueError("mixture variances must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights < 0):
            raise ValueError("mixture weights must be nonnegative and sum to 1")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.means) ** 2 / (2.0 * self.variances)
        comps = np.exp(-z) / np.sqrt(2.0 * np.pi * self.variances)
        return comps @ self.weights

    def mean(self) -> float:
        return float(self.weights @ self.means)

    def variance(self) -> float:
        second = self.weights @ (self.variances + self.means**2)
        return float(second - self.mean() ** 2)

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        return self.means[comp] + np.sqrt(self.variances[comp]) * rng.standard_normal(n)

    def support_grid(self, num_points: int = 2001, num_sigmas: float = 8.0) -> np.ndarray:
        """Uniform grid covering ``num_sigmas`` mixture standard deviations."""
        spread = num_sigmas * np.sqrt(self.variance())
        lo = float(self.means.min()) - spread
        hi = float(self.means.max()) + spread
        return np.linspace(lo, hi, num_points)


@dataclass(frozen=True)
class LQProblem:
    """Finite-horizon linear quadratic problem accessed through oracles.

    The oracles are row-wise, like :class:`FilterModel`'s: ``dynamics(x, u)``
    maps ``(n, d)`` states and ``(n, m)`` inputs to the ``(n, d)`` rows
    A x + B u, and ``cost_output(x)`` maps ``(n, d)`` states to the
    ``(n, p)`` rows C x.  A single point, ``(d,)`` and ``(m,)``, works too.
    The quadratic weights R (on the input) and P_T (terminal) are known
    matrices.  ``A``, ``B``, ``C`` may be attached; a problem with any of
    them withheld (None) is solved through the oracles alone.
    """

    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cost_output: Callable[[np.ndarray], np.ndarray]
    R: np.ndarray
    P_T: np.ndarray
    horizon: float
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    C: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "R", symmetrize(self.R))
        object.__setattr__(self, "P_T", symmetrize(self.P_T))
        if not is_positive_definite(self.R):
            raise ValueError("R must be symmetric positive definite")
        if not is_positive_definite(self.P_T):
            raise ValueError("P_T must be symmetric positive definite")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def dim_state(self) -> int:
        return self.P_T.shape[0]

    @property
    def dim_input(self) -> int:
        return self.R.shape[0]


def call_rowwise(name: str, oracle: Callable, *args: np.ndarray, cols: int | None = None) -> np.ndarray:
    """Evaluate a row-wise oracle and check that it returned one row per input row.

    ``cols`` is the expected row width, or None when any width will do.
    """
    out = np.asarray(oracle(*args), dtype=float)
    rows = args[0].shape[0]
    if out.ndim != 2 or out.shape[0] != rows or (cols is not None and out.shape[1] != cols):
        shapes = ", ".join(str(a.shape) for a in args)
        want = f"({rows}, {cols if cols is not None else 'p'})"
        raise ValueError(
            f"{name} oracle returned shape {out.shape} for inputs of shape {shapes}; "
            f"expected {want}: LQ oracles map (n, d) rows to (n, .) rows"
        )
    return out


def recover_lq_matrices(lq: LQProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruct (A, B, C) from the oracles by probing unit vectors.

    One batched ``dynamics`` call on the rows (0, 0), (e_j, 0) and (0, e_j)
    gives column j of A and of B as differences from f(0, 0); one batched
    ``cost_output`` call on 0 and the e_j gives the columns of C.
    Legitimate because the oracles are linear.
    """
    d, m = lq.dim_state, lq.dim_input
    x = np.vstack([np.zeros((1, d)), np.eye(d), np.zeros((m, d))])
    u = np.vstack([np.zeros((1 + d, m)), np.eye(m)])
    f = call_rowwise("dynamics", lq.dynamics, x, u, cols=d)
    c = call_rowwise("cost_output", lq.cost_output, x[: 1 + d])
    A = (f[1 : 1 + d] - f[0]).T
    B = (f[1 + d :] - f[0]).T
    C = (c[1:] - c[0]).T
    return A, B, C


def lq_matrices(lq: LQProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The attached (A, B, C), or all three recovered from the oracles when any is withheld."""
    if lq.A is not None and lq.B is not None and lq.C is not None:
        return lq.A, lq.B, lq.C
    return recover_lq_matrices(lq)


def make_linear_gaussian(
    A: np.ndarray,
    H: np.ndarray,
    sigma_B: np.ndarray,
    m0: np.ndarray,
    Sigma0: np.ndarray,
    obs_noise_scale: float = 1.0,
) -> FilterModel:
    """Linear Gaussian filtering model with populated linear descriptor."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    sigma_B = np.atleast_2d(np.asarray(sigma_B, dtype=float))
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    Sigma0 = symmetrize(np.atleast_2d(np.asarray(Sigma0, dtype=float)))

    d = A.shape[0]
    if A.shape != (d, d):
        raise ValueError(f"A must be square, got {A.shape}")
    if H.shape[1] != d:
        raise ValueError(f"H has {H.shape[1]} columns, expected {d}")
    if sigma_B.shape[0] != d:
        raise ValueError(f"sigma_B has {sigma_B.shape[0]} rows, expected {d}")
    if m0.shape != (d,):
        raise ValueError(f"m0 has shape {m0.shape}, expected ({d},)")
    if Sigma0.shape != (d, d):
        raise ValueError(f"Sigma0 has shape {Sigma0.shape}, expected ({d}, {d})")
    if not is_positive_definite(Sigma0):
        raise ValueError("Sigma0 must be symmetric positive definite")
    check_noise_scale("obs_noise_scale (sigma_w)", obs_noise_scale)

    spec = LinearGaussianSpec(A=A, H=H, m0=m0, Sigma0=Sigma0)
    sqrt_Sigma0 = np.linalg.cholesky(Sigma0)

    def drift(x):
        return x @ A.T

    def observation(x):
        return x @ H.T

    def sample_prior(rng, n):
        return m0 + rng.standard_normal((n, d)) @ sqrt_Sigma0.T

    return FilterModel(
        dim_obs=H.shape[0],
        drift=drift,
        sigma_B=sigma_B,
        observation=observation,
        sample_prior=sample_prior,
        obs_noise_scale=float(obs_noise_scale),
        linear=spec,
    )


def make_static_param(d: int, sigma0: float, sigma_w: float) -> FilterModel:
    """Static parameter-estimation model: frozen state, identity observation.

    State X ~ N(0, sigma0^2 I_d) never moves; dZ = X dt + sigma_w dW.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    check_noise_scale("sigma0", sigma0)
    check_noise_scale("sigma_w", sigma_w)
    A = np.zeros((d, d))
    H = np.eye(d)
    sigma_B = np.zeros((d, d))
    m0 = np.zeros(d)
    Sigma0 = sigma0**2 * np.eye(d)
    return make_linear_gaussian(A, H, sigma_B, m0, Sigma0, obs_noise_scale=sigma_w)


def make_bimodal(sigma2: float) -> Density1D:
    """Equal-weight two-Gaussian mixture centered at -1 and +1."""
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    return Density1D(means=[-1.0, 1.0], variances=[sigma2, sigma2], weights=[0.5, 0.5])


def simulate_truth_and_observations(
    model: FilterModel,
    dt: float,
    horizon: float,
    rng: RngStream,
) -> tuple[np.ndarray, ObservationPath]:
    """Euler-Maruyama truth path and its observation increments.

    Returns the state path with shape ``(K + 1, d)`` and an
    :class:`ObservationPath` with ``Delta Z_k = h(X_k) dt + sigma_w dW_k``.
    """
    num_steps = grid_steps(horizon, dt)

    d, m = model.dim_state, model.dim_obs
    x = model.sample_prior(rng, 1)
    states = np.empty((num_steps + 1, d))
    states[0] = x[0]
    increments = np.empty((num_steps, m))
    sqdt = np.sqrt(dt)
    for k in range(num_steps):
        h_val = model.observation(x)[0]
        dw = sqdt * rng.standard_normal(m)
        increments[k] = h_val * dt + model.obs_noise_scale * dw
        x = model.propagate(x, dt, rng)
        if not np.all(np.isfinite(x)):
            raise FilterDivergenceError(
                f"state became nonfinite at step {k + 1}; reduce dt or check the model"
            )
        states[k + 1] = x[0]
    return states, ObservationPath(dt=dt, increments=increments)


def make_lq_canonical(d: int, rng: RngStream) -> LQProblem:
    """Random controllable-canonical LQ problem of dimension ``d``.

    Companion-form A with standard-normal last row, B = e_d, and identity
    C, R, P_T.  Horizon defaults to 10.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    A = np.zeros((d, d))
    A[: d - 1, 1:] = np.eye(d - 1)
    A[d - 1, :] = rng.standard_normal(d)
    B = np.zeros((d, 1))
    B[d - 1, 0] = 1.0
    C = np.eye(d)
    R = np.eye(1)
    P_T = np.eye(d)

    def dynamics(x, u):
        return np.asarray(x, dtype=float) @ A.T + np.atleast_1d(np.asarray(u, dtype=float)) @ B.T

    def cost_output(x):
        return np.asarray(x, dtype=float) @ C.T

    return LQProblem(
        dynamics=dynamics,
        cost_output=cost_output,
        R=R,
        P_T=P_T,
        horizon=10.0,
        A=A,
        B=B,
        C=C,
    )
