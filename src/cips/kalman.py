"""Exact finite-dimensional references: Kalman-Bucy filter and Riccati solvers.

These are the ground-truth oracles against which every ensemble method in
the package is compared, so accuracy choices here (RK4 for the Riccati
differential equations, per-step re-symmetrization) are deliberately
conservative.  The algebraic Riccati equation is solved directly: the
stable eigenvectors of its Hamiltonian span the stable invariant subspace,
and Newton-Kleinman steps polish the root until a step stops shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import is_positive_definite, symmetrize
from .exceptions import ConvergenceError, FilterDivergenceError
from .fpf import FilterRun
from .models import FilterModel, LQProblem, ObservationPath, grid_steps, lq_matrices


@dataclass(frozen=True)
class GaussianBelief:
    """Mean vector and SPD covariance of a Gaussian conditional law."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class RiccatiPath:
    """Symmetric matrix path on a uniform time grid (value or dual Riccati)."""

    times: np.ndarray    # (K + 1,), ascending
    values: np.ndarray   # (K + 1, d, d)


def filter_riccati_rhs(Sigma: np.ndarray, A: np.ndarray, H: np.ndarray,
                       Sigma_B: np.ndarray, obs_noise_var: float) -> np.ndarray:
    """d Sigma / dt for the Kalman-Bucy covariance."""
    HtH = H.T @ H / obs_noise_var
    return A @ Sigma + Sigma @ A.T + Sigma_B - Sigma @ HtH @ Sigma


def kalman_bucy_run(model: FilterModel, obs: ObservationPath) -> FilterRun:
    """Euler-discretized Kalman-Bucy filter along an observation path.

    From the prior N(m0, Sigma0), the mean is updated with gain
    K = Sigma H^T / sigma_w^2 and innovation dZ - H m dt; the covariance
    follows the filter Riccati equation with re-symmetrization each step.
    Raises if the covariance loses positive definiteness (too-coarse dt or
    an inconsistent model).
    """
    if model.linear is None:
        raise ValueError("kalman_bucy_run requires a model with a linear descriptor")
    spec = model.linear
    A, H, Sigma_B = spec.A, spec.H, model.sigma_B @ model.sigma_B.T
    r = model.obs_noise_scale**2
    dt = obs.dt

    m = spec.m0
    Sigma = symmetrize(spec.Sigma0)

    K_steps = obs.num_steps
    d = model.dim_state
    means = np.empty((K_steps + 1, d))
    covs = np.empty((K_steps + 1, d, d))
    means[0], covs[0] = m, Sigma

    for k in range(K_steps):
        gain = Sigma @ H.T / r
        innovation = obs.increments[k] - (H @ m) * dt
        m = m + (A @ m) * dt + gain @ innovation
        Sigma = Sigma + filter_riccati_rhs(Sigma, A, H, Sigma_B, r) * dt
        Sigma = 0.5 * (Sigma + Sigma.T)
        if not is_positive_definite(Sigma):
            raise FilterDivergenceError(
                f"covariance lost positive definiteness at step {k + 1}"
            )
        means[k + 1], covs[k + 1] = m, Sigma
    return FilterRun(times=obs.times, means=means, covs=covs,
                     final_state=GaussianBelief(mean=means[-1], cov=covs[-1]))


def riccati_weights(lq: LQProblem) -> tuple[np.ndarray, ...]:
    """(A, G, Q) with G = B R^{-1} B^T and Q = C^T C, formed once per solve."""
    A, B, C = lq_matrices(lq)
    return A, B @ np.linalg.solve(lq.R, B.T), C.T @ C


def control_riccati_rhs(P: np.ndarray, A: np.ndarray, G: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """-dP/dt of the backward value Riccati equation."""
    return A.T @ P + P @ A + Q - P @ G @ P


def _rk4_matrix_step(X: np.ndarray, rhs, h: float) -> np.ndarray:
    # overflow on divergent problems is tolerated here; callers detect the
    # nonfinite result and raise ConvergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(X)
        k2 = rhs(X + 0.5 * h * k1)
        k3 = rhs(X + 0.5 * h * k2)
        k4 = rhs(X + h * k3)
        out = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (out + out.T)


def _integrate_backward(lq: LQProblem, dt: float, X_T: np.ndarray, rhs, label: str) -> RiccatiPath:
    """RK4 in reverse time tau = T - t from X_T, stored forward in t."""
    num_steps = grid_steps(lq.horizon, dt)
    values = np.empty((num_steps + 1,) + X_T.shape)
    values[num_steps] = X_T
    X = X_T.copy()
    for j in range(num_steps):
        X = _rk4_matrix_step(X, rhs, dt)
        if not np.all(np.isfinite(X)):
            raise ConvergenceError(f"{label} integration blew up {j + 1} steps before T")
        values[num_steps - 1 - j] = X
    return RiccatiPath(times=dt * np.arange(num_steps + 1), values=values)


def solve_dre_backward(lq: LQProblem, dt: float) -> RiccatiPath:
    """Backward RK4 integration of the value Riccati equation from P_T.

    The returned path is indexed forward in time: ``values[k]`` is P at
    ``t = k * dt`` and ``values[-1] = P_T``.
    """
    A, G, Q = riccati_weights(lq)

    def rhs(P):  # d P / d tau with tau = T - t
        return control_riccati_rhs(P, A, G, Q)

    return _integrate_backward(lq, dt, lq.P_T, rhs, "Riccati")


def _newton_kleinman_step(P: np.ndarray, A: np.ndarray, G: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve the Lyapunov equation A_P^T X + X A_P + Q + P G P = 0, A_P = A - G P."""
    d = A.shape[0]
    closed_t = (A - G @ P).T
    eye = np.eye(d)
    lyap = np.kron(closed_t, eye) + np.kron(eye, closed_t)   # acts on row-major vec
    X = np.linalg.solve(lyap, -(Q + P @ G @ P).reshape(-1)).reshape(d, d)
    return 0.5 * (X + X.T)


def _is_stabilizing(P: np.ndarray, A: np.ndarray, G: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(P)) and np.max(np.linalg.eigvals(A - G @ P).real) < 0)


def solve_are(lq: LQProblem) -> np.ndarray:
    """Stabilizing solution of A^T P + P A + C^T C - P B R^{-1} B^T P = 0.

    The d eigenvectors [V1; V2] of the Hamiltonian [[A, -G], [-C^T C, -A^T]],
    G = B R^{-1} B^T, whose eigenvalues have negative real part span the
    stable invariant subspace [I; P], so P is the real part of V2 V1^{-1}.
    Newton-Kleinman steps then polish P until a step stops shrinking.
    Raises ``ConvergenceError`` when no stabilizing solution exists (an
    unstabilizable or undetectable problem).
    """
    A, G, Q = riccati_weights(lq)
    d = A.shape[0]
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w, V = np.linalg.eig(np.block([[A, -G], [-Q, -A.T]]))
            V = V[:, w.real < 0]
            if V.shape[1] != d:
                raise np.linalg.LinAlgError(f"{V.shape[1]} of {2 * d} eigenvalues are stable")
            P = np.linalg.solve(V[:d].T, V[d:].T).T.real
            last_step = np.inf
            while True:
                P_next = _newton_kleinman_step(P, A, G, Q)
                step = np.linalg.norm(P_next - P)
                P = P_next
                if not step < last_step:  # a nonfinite step ends the loop too
                    break
                last_step = step
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"no stabilizing Riccati solution ({exc}); "
            "check stabilizability/detectability of the problem"
        ) from exc
    if not _is_stabilizing(P, A, G):
        raise ConvergenceError(
            "no stabilizing Riccati solution; check stabilizability/detectability of the problem"
        )
    return P
