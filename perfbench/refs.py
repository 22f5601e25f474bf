"""References the benchmark computes itself, from numpy and scipy only.

None of these call into ``cips``: they are the judges of its outputs.  The
workloads import this module only after the timed phase, so neither its
scipy imports nor its computations are part of ``setup_s``.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_are
from scipy.special import ndtr


def _stream(seed: int, *path: int) -> np.random.Generator:
    """The generator ``cips.core.RngStream(seed).substream(*path)`` draws from."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


def linear_observations(model: dict, seed: int, dt: float, steps: int) -> np.ndarray:
    """Observation increments of a linear model, drawn as ``cips filter`` draws them.

    Truth starts from the prior; each step draws dW (m values) and then dB
    (q values), Euler-Maruyama, unit observation noise.
    """
    A = np.array(model["a_matrix"])
    H = np.array(model["h_matrix"])
    sigma_b = np.array(model["sigma_b"])
    m0 = np.array(model["m0"])
    chol0 = np.linalg.cholesky(np.array(model["sigma0_matrix"]))
    rng = _stream(seed, 0)
    x = m0 + rng.standard_normal((1, A.shape[0])) @ chol0.T
    sqdt = np.sqrt(dt)
    increments = np.empty((steps, H.shape[0]))
    for k in range(steps):
        dw = sqdt * rng.standard_normal(H.shape[0])
        increments[k] = (x @ H.T)[0] * dt + dw
        db = sqdt * rng.standard_normal((1, sigma_b.shape[1]))
        x = x + (x @ A.T) * dt + db @ sigma_b.T
    return increments


def kalman_bucy(model: dict, increments: np.ndarray,
                dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Euler Kalman-Bucy recursion of a linear model: means (K+1, d), covs (K+1, d, d)."""
    A = np.array(model["a_matrix"])
    H = np.array(model["h_matrix"])
    sigma_b = np.array(model["sigma_b"])
    Q = sigma_b @ sigma_b.T
    m = np.array(model["m0"])
    S = np.array(model["sigma0_matrix"])
    means, covs = [m], [S]
    for dz in increments:
        gain = S @ H.T
        m = m + (A @ m) * dt + gain @ (dz - (H @ m) * dt)
        S = S + (A @ S + S @ A.T + Q - gain @ gain.T) * dt
        S = 0.5 * (S + S.T)
        means.append(m)
        covs.append(S)
    return np.array(means), np.array(covs)


def bimodal_gain(x: np.ndarray, sigma2: float) -> np.ndarray:
    """Exact gain for rho = (N(-1, s^2) + N(1, s^2)) / 2 and h(x) = x.

    K(x) = sum_k w_k (s phi(z_k) - mu_k Phi(z_k)) / rho(x) with
    z_k = (x - mu_k) / s.  Right of the centre the equal form
    sum_k w_k (s phi(z_k) + mu_k Phi(-z_k)) / rho(x) is used; it avoids the
    cancellation of two O(1) terms where rho is tiny.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(sigma2)
    mus = np.array([-1.0, 1.0])
    z = (x[:, None] - mus) / s
    phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    rho = 0.5 * np.sum(phi / s, axis=1)
    left = 0.5 * np.sum(s * phi - mus * ndtr(z), axis=1)
    right = 0.5 * np.sum(s * phi + mus * ndtr(-z), axis=1)
    return np.where(x <= 0.0, left, right) / rho


def fpf_mse_bound(d: int, n: int, sigma2: float = 1.0) -> float:
    """The paper's bound on the static FPF estimator MSE, (3 d^2 + 2 d) sigma^2 / N."""
    return (3 * d * d + 2 * d) * sigma2 / n


def modified_pf_mse(d: int, n: int, sigma2: float = 1.0) -> float:
    """Closed-form MSE of the exact-denominator estimator, (sigma^2 / N)(3 * 2^d - 1/2)."""
    return sigma2 / n * (3 * 2**d - 0.5)


def care(A, B, C, R) -> np.ndarray:
    """Stationary value matrix from scipy's algebraic Riccati solver."""
    return solve_continuous_are(A, B, C.T @ C, R)


def dre_path(A, B, C, R, P_T, times: np.ndarray) -> np.ndarray:
    """Value Riccati matrix P(t) on ``times`` by integrating backward from P(T) = P_T."""
    d = A.shape[0]
    BRB = B @ np.linalg.solve(R, B.T)
    Q = C.T @ C
    horizon = float(times[-1])

    def rhs(tau, p):  # tau = T - t, dP/dtau = A^T P + P A + Q - P B R^-1 B^T P
        P = p.reshape(d, d)
        return (A.T @ P + P @ A + Q - P @ BRB @ P).reshape(-1)

    sol = solve_ivp(rhs, (0.0, horizon), np.asarray(P_T, dtype=float).reshape(-1),
                    method="DOP853", t_eval=horizon - times[::-1], rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference DRE integration failed: {sol.message}")
    return sol.y.T.reshape(-1, d, d)[::-1]
