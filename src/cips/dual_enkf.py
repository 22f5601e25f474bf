"""Backward ensemble solver for the LQ optimal control problem.

N copies of the open-loop model are simulated backward from T with
exploration noise shaped by R^{-1} and a coupling term built from the
ensemble's own covariance.  The empirical covariance S^(N)_t tracks the
inverse P_t^{-1} of the value Riccati matrix, so the value matrix is read
as (S^(N))^{-1} and the LQR gain as -R^{-1} B^T (S^(N))^{-1}: one d x d
solve per step, in a single backward pass with no Riccati solve and no
outer iteration.

The ensemble is an :class:`cips.fpf.Ensemble` stepped backward in time;
its cached moments are the mean n^(N) and the covariance S^(N).

Everything runs under oracle access: when the problem withholds any of the
matrices (A, B, C), the drift of the whole ensemble is one row-wise call of
f(., 0) per step, and B and C come from one batched unit-vector probe of
each oracle.

The constants of a sweep are formed once, in :class:`_LQOps`: B, C^T C, the
exploration-noise factor L^{-1} (L L^T = R) and R^{-1} B^T.  What is left
per step is the particle update and one d x d solve for (S^(N))^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, solve_with_jitter
from .exceptions import FilterDivergenceError
from .fpf import Ensemble
from .models import LQProblem, call_rowwise, grid_steps, lq_matrices


class _LQOps:
    """Matrix products through explicit matrices or row-wise oracle calls.

    Formed once per sweep: B, C^T C, ``noise`` = L^{-1} with L L^T = R, so
    that z @ noise has covariance (L L^T)^{-1} = R^{-1} for z ~ N(0, I)
    rows, and ``rinv_bt`` = R^{-1} B^T.  Per step only the drift is called.
    """

    def __init__(self, lq: LQProblem):
        self.lq = lq
        _, self.B, C = lq_matrices(lq)
        self.ctc = C.T @ C
        self.noise = np.linalg.inv(np.linalg.cholesky(lq.R))
        self.rinv_bt = np.linalg.solve(lq.R, self.B.T)

    def drift(self, states: np.ndarray) -> np.ndarray:
        """A @ Y^i for every row of ``states``; one oracle call when A is withheld."""
        if self.lq.A is not None:
            return states @ self.lq.A.T
        zu = np.zeros((states.shape[0], self.lq.dim_input))
        return call_rowwise("dynamics", self.lq.dynamics, states, zu, cols=self.lq.dim_state)


def dual_enkf_init(lq: LQProblem, num_particles: int, rng: RngStream) -> Ensemble:
    """Terminal ensemble: i.i.d. draws from N(0, P_T^{-1}) at reverse time T."""
    d = lq.dim_state
    if num_particles <= d:
        raise ValueError(
            f"need more than d={d} particles for a nonsingular empirical covariance"
        )
    chol = np.linalg.cholesky(lq.P_T)
    z = rng.standard_normal((num_particles, d))
    # cov(L^{-T} z) = (L L^T)^{-1} = P_T^{-1}
    particles = np.linalg.solve(chol.T, z.T).T
    return Ensemble(particles, time=lq.horizon)


def dual_enkf_backward_step(
    st: Ensemble,
    dt: float,
    lq: LQProblem,
    rng: RngStream,
    ops: _LQOps | None = None,
) -> Ensemble:
    """One reverse-Euler step from t to t - dt.

    Y^i <- Y^i - [A Y^i + S^(N) C^T C (Y^i + n^(N)) / 2] dt - B xi^i with
    exploration noise xi^i ~ N(0, R^{-1} dt) i.i.d. across particles.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    ops = ops or _LQOps(lq)
    y = st.particles
    n_mean, S = st.moments

    coupling = 0.5 * ((y + n_mean) @ ops.ctc.T) @ S.T
    z = rng.standard_normal((y.shape[0], lq.dim_input))
    xi = np.sqrt(dt) * (z @ ops.noise)   # cov R^{-1} dt

    y_new = y - (ops.drift(y) + coupling) * dt - xi @ ops.B.T
    if not np.all(np.isfinite(y_new)):
        raise FilterDivergenceError(
            f"dual ensemble became nonfinite stepping to t={st.time - dt:.6g}"
        )
    return Ensemble(y_new, time=st.time - dt)


def value_matrix(st: Ensemble) -> np.ndarray:
    """Ensemble estimate P^(N) = (S^(N))^{-1} of the value matrix, symmetrised.

    A singular S^(N) gets one jitter retry, then raises
    ``NotPositiveDefiniteError``.
    """
    S = st.moments[1]
    P = solve_with_jitter(S, np.eye(S.shape[0]))
    return 0.5 * (P + P.T)


def extract_gain(st: Ensemble, lq: LQProblem, ops: _LQOps | None = None) -> np.ndarray:
    """Feedback gain -R^{-1} B^T P^(N), shape (m, d)."""
    ops = ops or _LQOps(lq)
    return -(ops.rinv_bt @ value_matrix(st))


@dataclass(frozen=True)
class DualEnkfRun:
    """Gain and empirical-covariance paths from one backward sweep."""

    times: np.ndarray        # (K + 1,), ascending
    gains: np.ndarray        # (K + 1, m, d)
    cov_path: np.ndarray     # (K + 1, d, d) empirical S^(N)
    final_state: Ensemble


def run_dual_enkf(
    lq: LQProblem,
    num_particles: int,
    dt: float,
    rng: RngStream,
) -> DualEnkfRun:
    """Single backward sweep from T to 0, recording S^(N) and the gain.

    One pass over the grid is the whole algorithm; there is no outer
    iteration to tune.
    """
    num_steps = grid_steps(lq.horizon, dt)
    ops = _LQOps(lq)

    st = dual_enkf_init(lq, num_particles, rng)
    d, m = lq.dim_state, lq.dim_input
    covs = np.empty((num_steps + 1, d, d))
    gains = np.empty((num_steps + 1, m, d))
    covs[num_steps] = st.moments[1]
    gains[num_steps] = extract_gain(st, lq, ops)
    for j in range(num_steps):
        st = dual_enkf_backward_step(st, dt, lq, rng, ops)
        k = num_steps - 1 - j
        covs[k] = st.moments[1]
        gains[k] = extract_gain(st, lq, ops)
    return DualEnkfRun(
        times=dt * np.arange(num_steps + 1), gains=gains, cov_path=covs, final_state=st,
    )


def relative_value_mse(
    cov_path: np.ndarray,
    oracle_values: np.ndarray,
    dt: float,
    horizon: float,
) -> float:
    """Time-averaged relative Frobenius error of P^(N) = (S^(N))^{-1}.

    (1/T) * int ||P_t - P^(N)_t||_F^2 / ||P_t||_F^2 dt, trapezoid-discretized
    on the grid.
    """
    diff = oracle_values - np.linalg.inv(cov_path)
    ratios = np.sum(diff * diff, axis=(1, 2)) / np.sum(oracle_values * oracle_values, axis=(1, 2))
    weights = np.full(ratios.shape[0], dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(ratios @ weights / horizon)
