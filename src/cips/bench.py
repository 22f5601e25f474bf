"""Benchmark harness: the quantitative comparisons behind the CSV tables.

Three experiments:

* ``mse-levelsets`` -- static parameter-estimation benchmark; MSE of the
  importance-sampling estimators and the feedback-particle estimator over a
  grid of (N, d), replicated M times against the exact posterior.
* ``bias-variance`` -- diffusion-map gain error against the exact integral
  formula over (eps, N, d) for the bimodal-times-Gaussian product density.
* ``dual-enkf`` -- backward ensemble LQ solver against the Riccati oracle
  over (d, N), with closed-loop spectral abscissa per replicate.

Each experiment is a pure function of its :class:`RunConfig` (seed
included): every grid cell and replicate draws from an RNG substream keyed
by its indices, and results are gathered in index order, so tables are
bit-identical whether cells run sequentially or on a worker pool.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .core import RngStream
from .exceptions import ConfigError
from .gain import diffusion_map_gain, exact_gain_1d
from .kalman import solve_dre_backward
from .models import Density1D, make_bimodal, make_lq_canonical
from .dual_enkf import relative_value_mse, run_dual_enkf

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ResultTable:
    """Rectangular result table with reproducibility metadata."""

    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict[str, str]

    def to_csv(self) -> str:
        lines = [f"# {key} = {value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match the column schema")
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"nonfinite value {v!r} in result table")
        return f"{v:.17g}"
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration of one benchmark run."""

    experiment: str
    seed: int = 0
    reps: int = 1000
    n_list: tuple[int, ...] = (1000,)
    d_list: tuple[int, ...] = (1,)
    eps_list: tuple[float, ...] = ()
    methods: tuple[str, ...] = ("pf", "pf-modified", "fpf")
    sigma0: float = 1.0
    sigma_w: float = 1.0
    dt: float = 0.02
    horizon: float = 1.0
    bimodal_sigma2: float = 0.2
    jobs: int = 1
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if int(self.seed) < 0:
            raise ConfigError("seed must be nonnegative")
        if int(self.reps) < 1 or int(self.jobs) < 1:
            raise ConfigError("reps and jobs must be >= 1")
        if self.experiment == "mse-levelsets" and int(self.reps) < 2:
            raise ConfigError("mse-levelsets needs reps >= 2 for a standard error")
        if not self.n_list or any(int(n) < 2 for n in self.n_list):
            raise ConfigError("n_list must contain integers >= 2")
        if not self.d_list or any(int(d) < 1 for d in self.d_list):
            raise ConfigError("d_list must contain integers >= 1")
        if any(e <= 0 for e in self.eps_list):
            raise ConfigError("eps values must be positive")
        if self.dt <= 0 or self.horizon < self.dt:
            raise ConfigError("need dt > 0 and horizon >= dt")
        if self.sigma0 <= 0 or self.sigma_w <= 0 or self.bimodal_sigma2 <= 0:
            raise ConfigError("scale parameters must be positive")
        for m in self.methods:
            if m not in ("pf", "pf-modified", "fpf"):
                raise ConfigError(f"unknown method {m!r}")

    def fingerprint(self) -> str:
        # jobs/out are execution knobs, not part of the experiment identity
        payload = repr(sorted(
            (k, v) for k, v in self.__dict__.items() if k not in ("jobs", "out")
        ))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _metadata(cfg: RunConfig, schema: str) -> dict[str, str]:
    return {
        "version": __version__,
        "schema": f"{schema}-v{SCHEMA_VERSION}",
        "seed": str(cfg.seed),
        "config": cfg.fingerprint(),
    }


def _map_ordered(func, args_list, jobs: int):
    """Apply ``func`` over argument tuples, in order; pool when jobs > 1."""
    if jobs <= 1 or len(args_list) <= 1:
        return [func(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(func, *zip(*args_list)))


# ---------------------------------------------------------------------------
# Static benchmark: PF / modified PF / FPF estimator MSE
# ---------------------------------------------------------------------------

def _unit_direction(d: int) -> np.ndarray:
    return np.ones(d) / np.sqrt(d)


def static_pf_mse(
    d: int,
    num_particles: int,
    reps: int,
    rng: RngStream,
    sigma0: float = 1.0,
    sigma_w: float = 1.0,
    modified: bool = False,
    chunk: int = 256,
) -> tuple[float, float]:
    """MSE (and its standard error) of the static importance-sampling estimate.

    Each replicate draws a fresh truth, observation and sample set, then
    compares the estimate of f(x) = 1^T x / sqrt(d) against the exact
    posterior mean of f.
    """
    a = _unit_direction(d)
    # Keep the working set bounded: reps x chunk x d arrays.
    chunk = max(1, min(chunk, int(2e7 // max(num_particles * d, 1)) or 1))
    sq_errors = np.empty(reps)
    done = 0
    while done < reps:
        take = min(chunk, reps - done)
        sub = rng.substream(done)
        truth = sigma0 * sub.standard_normal((take, d))
        z1 = truth + sigma_w * sub.standard_normal((take, d))
        samples = sigma0 * sub.standard_normal((take, num_particles, d))
        target = (z1 @ a) * sigma0**2 / (sigma0**2 + sigma_w**2)

        log_num = -np.sum((z1[:, None, :] - samples) ** 2, axis=2) / (2 * sigma_w**2)
        fvals = samples @ a
        if modified:
            s2 = sigma0**2 + sigma_w**2
            log_den = (
                np.log(num_particles)
                + 0.5 * d * np.log(sigma_w**2 / s2)
                - np.sum(z1**2, axis=1) / (2 * s2)
            )
            w = np.exp(log_num - log_den[:, None])
            est = np.sum(w * fvals, axis=1)
        else:
            top = log_num.max(axis=1, keepdims=True)
            w = np.exp(log_num - top)
            est = np.sum(w * fvals, axis=1) / np.sum(w, axis=1)
        sq_errors[done : done + take] = (est - target) ** 2
        done += take
    mse = float(sq_errors.mean())
    stderr = float(sq_errors.std(ddof=1) / np.sqrt(reps))
    return mse, stderr


def static_fpf_mse(
    d: int,
    num_particles: int,
    reps: int,
    rng: RngStream,
    sigma0: float = 1.0,
    sigma_w: float = 1.0,
    dt: float = 0.02,
    chunk: int = 128,
) -> tuple[float, float]:
    """MSE of the feedback-particle estimator on the static benchmark.

    Every replicate runs the square-root ensemble update (the constant-gain
    FPF) dX^i = Sigma^(N)/sigma_w^2 (dZ - (X^i + m^(N))/2 dt) on its own
    observation path.  The particles carry no dynamics and h is linear, so
    each step applies one affine map to every particle,
    X^i <- X^i F + (dZ - m^(N) dt/2) Sigma^(N)/sigma_w^2 with
    F = I - dt Sigma^(N)/(2 sigma_w^2).  The ensemble mean and covariance
    therefore evolve in closed form, with no error beyond rounding:

        m <- m + (dZ - m dt) Sigma / sigma_w^2,      Sigma <- F^T Sigma F.

    The prior draw is still made (it fixes the RNG stream and the initial
    empirical moments, ddof 1); after it each step costs O(d^3) per
    replicate instead of O(N d^2), and the estimate is m . a.
    """
    a = _unit_direction(d)
    chunk = max(1, min(chunk, int(1e7 // max(num_particles * d, 1)) or 1))
    num_steps = int(round(1.0 / dt))
    eye = np.eye(d)
    sq_errors = np.empty(reps)
    done = 0
    while done < reps:
        take = min(chunk, reps - done)
        sub = rng.substream(done)
        truth = sigma0 * sub.standard_normal((take, d))
        x = sigma0 * sub.standard_normal((take, num_particles, d))
        mean = x.mean(axis=1)
        centered = x - mean[:, None, :]
        cov = centered.transpose(0, 2, 1) @ centered / (num_particles - 1)
        z1 = np.zeros((take, d))
        for k in range(num_steps):
            dw = sigma_w * np.sqrt(dt) * sub.standard_normal((take, d))
            dz = truth * dt + dw
            z1 += dz
            gain = cov / sigma_w**2
            mean = mean + ((dz - mean * dt)[:, None, :] @ gain)[:, 0, :]
            f = eye - 0.5 * dt * gain
            cov = f.transpose(0, 2, 1) @ cov @ f
        target = (z1 @ a) * sigma0**2 / (sigma0**2 + sigma_w**2)
        est = mean @ a
        sq_errors[done : done + take] = (est - target) ** 2
        done += take
    mse = float(sq_errors.mean())
    stderr = float(sq_errors.std(ddof=1) / np.sqrt(reps))
    return mse, stderr


def modified_weights_batch(
    samples: np.ndarray,
    z1: np.ndarray,
    sigma0: float,
    sigma_w: float,
) -> np.ndarray:
    """Exact-denominator importance weights for a batch of sample sets.

    ``samples`` has shape (batch, N, d) and ``z1`` shape (batch, d); the
    returned array (batch, N) reproduces the per-set weights of
    :func:`cips.sir.static_is_modified` row by row.
    """
    n = samples.shape[1]
    s2 = sigma0**2 + sigma_w**2
    log_num = -np.sum((z1[:, None, :] - samples) ** 2, axis=2) / (2.0 * sigma_w**2)
    log_den = (
        np.log(n)
        + 0.5 * samples.shape[2] * np.log(sigma_w**2 / s2)
        - np.sum(z1**2, axis=1) / (2.0 * s2)
    )
    return np.exp(log_num - log_den[:, None])


def modified_pf_conditional_moments(
    z: np.ndarray, sigma0: float, sigma_w: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-coordinate moments E[u], E[u X], E[u X^2] of u = g(X; z)^2.

    g(x; z) = exp(-(z - x)^2 / (2 sigma_w^2)) / D(z) is the per-coordinate
    exact-denominator weight kernel and X ~ N(0, sigma0^2).  Closed-form
    Gaussian algebra; vectorized over ``z``.
    """
    z = np.asarray(z, dtype=float)
    s2 = sigma0**2 + sigma_w**2
    prec = 1.0 / sigma_w**2 + 1.0 / (2.0 * sigma0**2)
    var = 1.0 / (2.0 * prec)
    mean = 2.0 * var * z / sigma_w**2
    d2_inv = (s2 / sigma_w**2) * np.exp(z**2 / s2)
    norm = (
        np.sqrt(2.0 * np.pi * var)
        * np.exp(-(z**2) / sigma_w**2 + mean**2 / (2.0 * var))
        / np.sqrt(2.0 * np.pi * sigma0**2)
    ) * d2_inv
    return norm, norm * mean, norm * (var + mean**2)


def modified_pf_conditional_var(
    z: np.ndarray, sigma0: float, sigma_w: float
) -> float:
    """Conditional variance of one weight-times-f term given Z_1 = z.

    For f(x) = 1^T x / sqrt(d) the estimator error given z is the mean of N
    i.i.d. copies of xi = N W-bar f(X), so the conditional MSE is exactly
    this value divided by N.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    d = z.shape[0]
    m0, m1, m2 = modified_pf_conditional_moments(z, sigma0, sigma_w)
    prod = np.prod(m0)
    ratio1 = m1 / m0
    second = np.sum(m2 / m0) + np.sum(ratio1) ** 2 - np.sum(ratio1**2)
    gain = sigma0**2 / (sigma0**2 + sigma_w**2)
    return float(prod * second / d - (gain * np.sum(z) / np.sqrt(d)) ** 2)


def modified_pf_mse_exact(
    d: int,
    num_particles: int,
    sigma0: float = 1.0,
    sigma_w: float = 1.0,
    num_nodes: int = 48,
) -> float:
    """Exact MSE of the exact-denominator estimator via 1-D quadrature.

    Averaging the conditional variance over the observation marginal
    factorizes into one-dimensional Gaussian integrals of the closed-form
    moments, so the d-dimensional expectation reduces to a product formula.
    """
    t, wq = np.polynomial.hermite_e.hermegauss(num_nodes)
    z = np.sqrt(sigma0**2 + sigma_w**2) * t
    w1 = wq / np.sqrt(2.0 * np.pi)
    m0, m1, m2 = modified_pf_conditional_moments(z, sigma0, sigma_w)
    a0, a1, a2 = float(w1 @ m0), float(w1 @ m1), float(w1 @ m2)
    gain = sigma0**2 / (sigma0**2 + sigma_w**2)
    second = a2 * a0 ** (d - 1) + (d - 1) * a1**2 * a0 ** max(d - 2, 0)
    return (second - gain**2 * (sigma0**2 + sigma_w**2)) / num_particles


def static_modified_pf_mse_hybrid(
    d: int,
    num_particles: int,
    rng: RngStream,
    total_runs: int = 2000,
    nodes_per_dim: int | None = None,
    radius_cut: float = 4.2,
    sigma0: float = 1.0,
    sigma_w: float = 1.0,
) -> tuple[float, float]:
    """MSE measurement for the exact-denominator estimator; returns
    (mse, fraction of the MSE that was measured by estimator runs).

    A plain replicate average cannot measure this estimator's MSE: the
    squared error has tail index 3/2 in the observation (most of the
    expectation sits on |Z_1| events of probability ~1e-4 whose conditional
    error is in turn carried by sample draws that essentially never occur),
    so any practical replicate count under-reads by tens of percent.  This
    routine therefore stratifies the observation marginal on a deterministic
    Gauss-Hermite product grid, runs the estimator ``total_runs`` times
    allocated over the nodes inside ``radius_cut`` (where conditional
    Monte-Carlo is well-behaved), and completes the remaining tail strata
    with the closed-form conditional variance (verified independently
    against numerical quadrature in the test suite).
    """
    from itertools import product as iproduct

    if nodes_per_dim is None:
        nodes_per_dim = 16 if d <= 3 else 8
    t_nodes, t_weights = np.polynomial.hermite_e.hermegauss(nodes_per_dim)
    scale = np.sqrt(sigma0**2 + sigma_w**2)
    w1 = t_weights / np.sqrt(2.0 * np.pi)
    combos = np.array(list(iproduct(range(nodes_per_dim), repeat=d)))
    z_nodes = scale * t_nodes[combos]
    weights = np.prod(w1[combos], axis=1)
    cond = np.array([modified_pf_conditional_var(z, sigma0, sigma_w) for z in z_nodes])

    total_exact = modified_pf_mse_exact(d, num_particles, sigma0, sigma_w)
    bulk = np.linalg.norm(z_nodes, axis=1) <= radius_cut
    contrib = weights * cond
    bulk_idx = np.flatnonzero(bulk)
    # Allocate estimator runs across bulk nodes proportionally to their
    # share of the integral, at least one run each.
    share = contrib[bulk_idx] / contrib[bulk_idx].sum()
    runs = np.maximum((share * total_runs).astype(int), 1)

    a = _unit_direction(d)
    gain = sigma0**2 / (sigma0**2 + sigma_w**2)
    measured_bulk = 0.0
    for j, idx in enumerate(bulk_idx):
        k = int(runs[j])
        sub = rng.substream(int(idx))
        samples = sigma0 * sub.standard_normal((k, num_particles, d))
        z = np.broadcast_to(z_nodes[idx], (k, d))
        w = modified_weights_batch(samples, z, sigma0, sigma_w)
        est = np.sum(w * (samples @ a), axis=1)
        sq = (est - gain * (z @ a)) ** 2
        measured_bulk += weights[idx] * float(sq.mean())
    bulk_oracle = float(contrib[bulk_idx].sum()) / num_particles
    tail_oracle = total_exact - bulk_oracle
    mse = measured_bulk + tail_oracle
    measured_fraction = bulk_oracle / total_exact if total_exact > 0 else 0.0
    return float(mse), float(measured_fraction)


def static_method_mse(
    method: str,
    d: int,
    num_particles: int,
    reps: int,
    rng: RngStream,
    sigma0: float = 1.0,
    sigma_w: float = 1.0,
    dt: float = 0.02,
) -> tuple[float, float]:
    if method == "pf":
        return static_pf_mse(d, num_particles, reps, rng, sigma0, sigma_w, modified=False)
    if method == "pf-modified":
        return static_pf_mse(d, num_particles, reps, rng, sigma0, sigma_w, modified=True)
    if method == "fpf":
        return static_fpf_mse(d, num_particles, reps, rng, sigma0, sigma_w, dt)
    raise ConfigError(f"unknown method {method!r}")


def _levelset_cell(seed, mi, method, di, d, ni, n, reps, sigma0, sigma_w, dt):
    cell = RngStream(seed).substream(mi).substream(di).substream(ni)
    mse, stderr = static_method_mse(method, d, n, reps, cell, sigma0, sigma_w, dt)
    return (method, d, n, mse, stderr)


def bench_mse_levelsets(cfg: RunConfig) -> ResultTable:
    """Grid of estimator MSEs for the static benchmark."""
    args = [
        (cfg.seed, mi, method, di, d, ni, n, cfg.reps, cfg.sigma0, cfg.sigma_w, cfg.dt)
        for mi, method in enumerate(cfg.methods)
        for di, d in enumerate(cfg.d_list)
        for ni, n in enumerate(cfg.n_list)
    ]
    rows = _map_ordered(_levelset_cell, args, cfg.jobs)
    return ResultTable(
        columns=("method", "d", "N", "mse", "stderr"),
        rows=rows,
        metadata=_metadata(cfg, "mse-levelsets"),
    )


# ---------------------------------------------------------------------------
# Diffusion-map bias/variance study
# ---------------------------------------------------------------------------

def sample_product_density(
    density: Density1D, d: int, rng: RngStream, n: int
) -> np.ndarray:
    """Draws from rho(x) = rho_b(x_1) * prod_{k>=2} N(0, 1)."""
    x = rng.standard_normal((n, d))
    x[:, 0] = density.sample(rng, n)
    return x


def diffusion_map_mse_once(
    density: Density1D,
    d: int,
    num_particles: int,
    eps: float,
    rng: RngStream,
    exact_grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Single-replicate estimate of (1/N) sum_i |K^i - K(X^i)|^2.

    The observed function is h(x) = x_1, for which the exact gain of the
    product density reduces to the scalar problem in the first coordinate.
    """
    x = sample_product_density(density, d, rng, num_particles)
    h = x[:, 0]
    field_, _ = diffusion_map_gain(x, h, eps)
    gains = field_.per_particle(num_particles)[:, :, 0]    # (N, d)
    if exact_grid is None:
        exact_first = exact_gain_1d(density, lambda y: y, x[:, 0])
    else:
        grid, vals = exact_grid
        exact_first = np.interp(x[:, 0], grid, vals)
    diff = gains.copy()
    diff[:, 0] -= exact_first
    return float(np.mean(np.sum(diff * diff, axis=1)))


def exact_gain_table(density: Density1D) -> tuple[np.ndarray, np.ndarray]:
    """Dense exact-gain lookup used to score many replicates cheaply."""
    grid = density.support_grid(num_points=4001, num_sigmas=7.5)
    vals = exact_gain_1d(density, lambda y: y, grid)
    return grid, vals


def _bias_variance_cell(seed, di, d, ni, n, ei, eps, reps, sigma2, grid, vals):
    density = make_bimodal(sigma2)
    cell = RngStream(seed).substream(di).substream(ni).substream(ei)
    per_rep = np.array([
        diffusion_map_mse_once(density, d, n, eps, cell.substream(r), (grid, vals))
        for r in range(reps)
    ])
    stderr = float(per_rep.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return (eps, n, d, float(per_rep.mean()), stderr), per_rep


def bench_bias_variance(cfg: RunConfig) -> ResultTable:
    """Diffusion-map gain MSE over the (eps, N, d) grid."""
    if not cfg.eps_list:
        raise ConfigError("bias-variance experiment needs a nonempty eps list")
    density = make_bimodal(cfg.bimodal_sigma2)
    grid, vals = exact_gain_table(density)
    args = [
        (cfg.seed, di, d, ni, n, ei, eps, cfg.reps, cfg.bimodal_sigma2, grid, vals)
        for di, d in enumerate(cfg.d_list)
        for ni, n in enumerate(cfg.n_list)
        for ei, eps in enumerate(cfg.eps_list)
    ]
    results = _map_ordered(_bias_variance_cell, args, cfg.jobs)
    rows = [row for row, _ in results]
    return ResultTable(
        columns=("eps", "N", "d", "mse", "stderr"),
        rows=rows,
        metadata=_metadata(cfg, "bias-variance"),
    )


def gain_study_table(cfg: RunConfig) -> ResultTable:
    """Per-replicate diffusion-map MSE rows (eps, N, rep, mse)."""
    if not cfg.eps_list:
        raise ConfigError("gain study needs a nonempty eps list")
    density = make_bimodal(cfg.bimodal_sigma2)
    grid, vals = exact_gain_table(density)
    d = cfg.d_list[0]
    args = [
        (cfg.seed, 0, d, ni, n, ei, eps, cfg.reps, cfg.bimodal_sigma2, grid, vals)
        for ni, n in enumerate(cfg.n_list)
        for ei, eps in enumerate(cfg.eps_list)
    ]
    results = _map_ordered(_bias_variance_cell, args, cfg.jobs)
    rows = []
    for (eps, n, _d, _mse, _se), per_rep in results:
        rows.extend((eps, n, r, float(v)) for r, v in enumerate(per_rep))
    return ResultTable(
        columns=("eps", "N", "rep", "mse"),
        rows=rows,
        metadata=_metadata(cfg, "gain-study"),
    )


# ---------------------------------------------------------------------------
# Dual ensemble LQ benchmark
# ---------------------------------------------------------------------------

def _dual_enkf_cell(seed, di, d, rep, n_list, dt, horizon):
    base = RngStream(seed).substream(di).substream(rep)
    lq = make_lq_canonical(d, base.substream(0))
    lq = replace(lq, horizon=float(horizon))
    oracle = solve_dre_backward(lq, dt)
    rows = []
    for ni, n in enumerate(n_list):
        run = run_dual_enkf(lq, n, dt, base.substream(1 + ni))
        rel = relative_value_mse(run.cov_path, oracle.values, dt, horizon)
        closed = lq.A + lq.B @ run.gain_path.gains[0]
        absc = float(np.max(np.linalg.eigvals(closed).real))
        rows.append((d, n, rep, rel, absc))
    return rows


def bench_dual_enkf(cfg: RunConfig) -> ResultTable:
    """Relative value-matrix MSE and closed-loop abscissa over (d, N, rep).

    The random canonical system is redrawn per (d, rep) and shared across
    ensemble sizes so the N-sweep is comparable within a replicate.
    """
    args = [
        (cfg.seed, di, d, rep, tuple(cfg.n_list), cfg.dt, cfg.horizon)
        for di, d in enumerate(cfg.d_list)
        for rep in range(cfg.reps)
    ]
    nested = _map_ordered(_dual_enkf_cell, args, cfg.jobs)
    rows = [row for cell_rows in nested for row in cell_rows]
    return ResultTable(
        columns=("d", "N", "rep", "rel_mse", "spec_abscissa"),
        rows=rows,
        metadata=_metadata(cfg, "dual-enkf"),
    )


EXPERIMENT_NAMES = ("mse-levelsets", "bias-variance", "dual-enkf")

EXPERIMENTS = {
    "mse-levelsets": bench_mse_levelsets,
    "bias-variance": bench_bias_variance,
    "dual-enkf": bench_dual_enkf,
}


def run_experiment(cfg: RunConfig) -> ResultTable:
    return EXPERIMENTS[cfg.experiment](cfg)
