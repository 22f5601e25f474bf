"""Benchmark harness: the quantitative comparisons behind the CSV tables.

Three experiments:

* ``mse-levelsets`` -- static parameter-estimation benchmark; MSE of the
  importance-sampling estimators and the feedback-particle estimator over a
  grid of (N, d), replicated M times against the exact posterior.
* ``bias-variance`` -- diffusion-map gain error against the closed-form exact
  gain over (eps, N, d) for the bimodal-times-Gaussian product density.
* ``dual-enkf`` -- backward ensemble LQ solver against the Riccati oracle
  over (d, N), with closed-loop spectral abscissa per replicate.

Each experiment is a pure function of its :class:`RunConfig` (seed
included): every grid cell and replicate draws from an RNG substream keyed
by its indices, and results are gathered in index order, so tables are
bit-identical whether cells run sequentially or on a worker pool.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import product

import numpy as np

from . import __version__
from .core import _BLOCK_ELEMS, RngStream, empirical_moments
from .exceptions import ConfigError
from .gain import diffusion_map_gain, exact_gain_1d
from .kalman import solve_dre_backward
from .models import Density1D, check_noise_scale, grid_steps, make_bimodal, make_lq_canonical
from .dual_enkf import relative_value_mse, run_dual_enkf
from .sir import modified_weights, self_normalized_estimate

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


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
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

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
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
        if not all(np.isfinite(e) and e > 0 for e in self.eps_list):
            raise ConfigError(f"eps_list values must be positive and finite, got {self.eps_list}")
        if not (np.isfinite(self.dt) and np.isfinite(self.horizon)) \
                or self.dt <= 0 or self.horizon < self.dt:
            raise ConfigError("need finite dt > 0 and horizon >= dt")
        # the FPF cells of mse-levelsets step to the posterior at t = 1
        span = {"mse-levelsets": 1.0, "dual-enkf": self.horizon}.get(self.experiment)
        try:
            if span is not None:
                grid_steps(span, self.dt)
            check_noise_scale("sigma0", self.sigma0)
            check_noise_scale("sigma_w", self.sigma_w)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # every (N, d) cell of dual-enkf must pass dual_enkf_init's check
        n_min, d_max = min(map(int, self.n_list)), max(map(int, self.d_list))
        if self.experiment == "dual-enkf" and n_min <= d_max:
            raise ConfigError(
                f"N={n_min}: need more than d={d_max} particles for a nonsingular empirical covariance"
            )
        if not (np.isfinite(self.bimodal_sigma2) and self.bimodal_sigma2 > 0):
            raise ConfigError(f"bimodal_sigma2 must be positive and finite, got {self.bimodal_sigma2}")
        if not self.methods:
            raise ConfigError("methods must name at least one method")
        for m in self.methods:
            if m not in ("pf", "pf-modified", "fpf"):
                raise ConfigError(f"methods: unknown method {m!r}")
        # each cell's substream is keyed by its index, so a repeated entry
        # would give rows with the same keys and different values
        for name in ("methods", "n_list", "d_list", "eps_list"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} has repeated entries: {values}")

    def fingerprint(self) -> str:
        # jobs is an execution knob, not part of the experiment identity
        return fingerprint({k: v for k, v in self.__dict__.items() if k != "jobs"})


def fingerprint(payload: dict) -> str:
    """Short hash of a configuration, written into each CSV header."""
    return hashlib.sha256(repr(sorted(payload.items())).encode()).hexdigest()[:16]


def table_metadata(seed: int, schema: str, config: str) -> dict[str, str]:
    """The ``#`` header of every CSV: version, schema, seed and config hash."""
    return {
        "version": __version__,
        "schema": f"{schema}-v{SCHEMA_VERSION}",
        "seed": str(seed),
        "config": config,
    }


def _map_ordered(cell, cfg: RunConfig, *axes: int) -> list:
    """``cell(cfg, *indices)`` over the grid ``range(a) x range(b) x ...``, in
    row-major order; on a pool of ``cfg.jobs`` workers when that is above 1.

    The pool module is imported only here, so that a serial run (and
    ``import cips``) does not load it.
    """
    grid = list(product(*map(range, axes)))
    if cfg.jobs <= 1 or len(grid) <= 1:
        return [cell(cfg, *indices) for indices in grid]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(cell, [cfg] * len(grid), *zip(*grid)))


# ---------------------------------------------------------------------------
# Static benchmark: PF / modified PF / FPF estimator MSE
# ---------------------------------------------------------------------------

def _replicate_mse(sq_errors, reps: int, rng: RngStream, chunk: int) -> tuple[float, float]:
    """Mean of ``reps`` replicates' squared errors, and its standard error.

    ``sq_errors(sub, take)`` draws ``take`` replicates from the stream
    ``sub`` and returns their squared errors; the chunk of replicates from
    ``done`` on draws from ``rng.substream(done)``.  The chunk fixes only
    these substreams, so it fixes the numbers; ``_prior_blocks`` bounds the
    memory.
    """
    errors = np.empty(reps)
    for done in range(0, reps, chunk):
        take = min(chunk, reps - done)
        errors[done : done + take] = sq_errors(rng.substream(done), take)
    return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(reps))


def _prior_blocks(sub: RngStream, take: int, num_particles: int, d: int, sigma0: float):
    """The chunk's (take, N, d) prior draw, N(0, sigma0^2), as ``(rows, x)``
    blocks of whole replicates, about ``_BLOCK_ELEMS`` entries each.

    numpy fills a draw in C order, so the blocks hold the numbers of one
    whole draw, and the batched kernels give each replicate the same bits.
    """
    step = max(1, _BLOCK_ELEMS // (num_particles * d))
    for lo in range(0, take, step):
        rows = slice(lo, min(lo + step, take))
        x = sub.standard_normal((rows.stop - lo, num_particles, d))
        x *= sigma0
        yield rows, x


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
    a = np.ones(d) / np.sqrt(d)

    def sq_errors(sub, take):
        truth = sigma0 * sub.standard_normal((take, d))
        z1 = truth + sigma_w * sub.standard_normal((take, d))
        target = (z1 @ a) * sigma0**2 / (sigma0**2 + sigma_w**2)
        est = np.empty(take)
        for rows, samples in _prior_blocks(sub, take, num_particles, d, sigma0):
            fvals = samples @ a
            if modified:
                w = modified_weights(samples, z1[rows], sigma0, sigma_w)
                est[rows] = np.sum(w * fvals, axis=1)
            else:
                est[rows] = self_normalized_estimate(samples, z1[rows], sigma_w, fvals)
        return (est - target) ** 2

    # the chunk keys the substreams, so this rule fixes the draws; the blocks bound the memory
    chunk = max(1, min(chunk, int(2e7 // max(num_particles * d, 1)) or 1))
    return _replicate_mse(sq_errors, reps, rng, chunk)


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

    The prior draw is still made (it fixes the RNG stream and, through
    ``empirical_moments`` of its blocks, the initial moments); after it each
    step costs O(d^3) per replicate instead of O(N d^2), and the estimate is
    m . a.
    """
    a = np.ones(d) / np.sqrt(d)
    num_steps = grid_steps(1.0, dt)
    eye = np.eye(d)

    def sq_errors(sub, take):
        truth = sigma0 * sub.standard_normal((take, d))
        mean, cov = np.empty((take, d)), np.empty((take, d, d))
        for rows, x in _prior_blocks(sub, take, num_particles, d, sigma0):
            mean[rows], cov[rows] = empirical_moments(x)
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
        return (mean @ a - target) ** 2

    chunk = max(1, min(chunk, int(1e7 // max(num_particles * d, 1)) or 1))
    return _replicate_mse(sq_errors, reps, rng, chunk)


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
    if method in ("pf", "pf-modified"):
        return static_pf_mse(d, num_particles, reps, rng, sigma0, sigma_w, method == "pf-modified")
    if method == "fpf":
        return static_fpf_mse(d, num_particles, reps, rng, sigma0, sigma_w, dt)
    raise ConfigError(f"unknown method {method!r}")


def _levelset_cell(cfg: RunConfig, mi: int, di: int, ni: int) -> tuple:
    method, d, n = cfg.methods[mi], cfg.d_list[di], cfg.n_list[ni]
    cell = RngStream(cfg.seed).substream(mi).substream(di).substream(ni)
    mse, stderr = static_method_mse(method, d, n, cfg.reps, cell, cfg.sigma0, cfg.sigma_w, cfg.dt)
    return (method, d, n, mse, stderr)


def bench_mse_levelsets(cfg: RunConfig) -> ResultTable:
    """Grid of estimator MSEs for the static benchmark."""
    rows = _map_ordered(_levelset_cell, cfg, len(cfg.methods), len(cfg.d_list), len(cfg.n_list))
    return ResultTable(("method", "d", "N", "mse", "stderr"), rows,
                       table_metadata(cfg.seed, "mse-levelsets", cfg.fingerprint()))


# ---------------------------------------------------------------------------
# Diffusion-map bias/variance study
# ---------------------------------------------------------------------------

def diffusion_map_mse_once(
    density: Density1D,
    d: int,
    num_particles: int,
    eps: float,
    rng: RngStream,
    exact_grid: tuple[np.ndarray, np.ndarray],
) -> float:
    """Single-replicate estimate of (1/N) sum_i |K^i - K(X^i)|^2.

    The particles are drawn from rho(x) = rho_b(x_1) prod_{k>=2} N(0, 1).
    The observed function is h(x) = x_1, for which the exact gain of the
    product density reduces to the scalar problem in the first coordinate;
    it is read off ``exact_grid``, the table of :func:`exact_gain_table`.
    """
    x = rng.standard_normal((num_particles, d))
    x[:, 0] = density.sample(rng, num_particles)
    gains = diffusion_map_gain(x, x[:, 0], eps)
    diff = gains[:, :, 0].copy()                          # (N, d)
    diff[:, 0] -= np.interp(x[:, 0], *exact_grid)
    return float(np.mean(np.sum(diff * diff, axis=1)))


def exact_gain_table(density: Density1D) -> tuple[np.ndarray, np.ndarray]:
    """Dense exact-gain lookup used to score many replicates cheaply."""
    grid = density.support_grid(num_points=4001, num_sigmas=7.5)
    return grid, exact_gain_1d(density, grid)


def _bias_variance_cell(cfg: RunConfig, di: int, ni: int, ei: int, exact_grid) -> tuple:
    d, n, eps, reps = cfg.d_list[di], cfg.n_list[ni], cfg.eps_list[ei], cfg.reps
    density = make_bimodal(cfg.bimodal_sigma2)
    cell = RngStream(cfg.seed).substream(di).substream(ni).substream(ei)
    per_rep = np.array([
        diffusion_map_mse_once(density, d, n, eps, cell.substream(r), exact_grid)
        for r in range(reps)
    ])
    stderr = float(per_rep.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return (eps, n, d, float(per_rep.mean()), stderr), per_rep


def _bias_variance_cells(cfg: RunConfig) -> list:
    """Every (d, N, eps) cell of the diffusion-map study, in that order.

    Each result is the summary row and the per-replicate MSEs.  The
    exact-gain table is built once, for all cells.
    """
    if not cfg.eps_list:
        raise ConfigError("the diffusion-map study needs a nonempty eps list")
    exact_grid = exact_gain_table(make_bimodal(cfg.bimodal_sigma2))
    cell = partial(_bias_variance_cell, exact_grid=exact_grid)
    return _map_ordered(cell, cfg, len(cfg.d_list), len(cfg.n_list), len(cfg.eps_list))


def bench_bias_variance(cfg: RunConfig) -> ResultTable:
    """Diffusion-map gain MSE over the (eps, N, d) grid."""
    rows = [row for row, _ in _bias_variance_cells(cfg)]
    return ResultTable(("eps", "N", "d", "mse", "stderr"), rows,
                       table_metadata(cfg.seed, "bias-variance", cfg.fingerprint()))


def gain_study_table(cfg: RunConfig) -> ResultTable:
    """Per-replicate diffusion-map MSE rows (eps, N, rep, mse), at the first d."""
    rows = []
    for (eps, n, _d, _mse, _se), per_rep in _bias_variance_cells(replace(cfg, d_list=cfg.d_list[:1])):
        rows.extend((eps, n, r, float(v)) for r, v in enumerate(per_rep))
    return ResultTable(("eps", "N", "rep", "mse"), rows,
                       table_metadata(cfg.seed, "gain-study", cfg.fingerprint()))


# ---------------------------------------------------------------------------
# Dual ensemble LQ benchmark
# ---------------------------------------------------------------------------

def _dual_enkf_cell(cfg: RunConfig, di: int, rep: int) -> list[tuple]:
    d, dt, horizon = cfg.d_list[di], cfg.dt, cfg.horizon
    base = RngStream(cfg.seed).substream(di).substream(rep)
    lq = replace(make_lq_canonical(d, base.substream(0)), horizon=float(horizon))
    oracle = solve_dre_backward(lq, dt)
    rows = []
    for ni, n in enumerate(cfg.n_list):
        run = run_dual_enkf(lq, n, dt, base.substream(1 + ni))
        rel = relative_value_mse(run.cov_path, oracle.values, dt, horizon)
        closed = lq.A + lq.B @ run.gains[0]
        absc = float(np.max(np.linalg.eigvals(closed).real))
        rows.append((d, n, rep, rel, absc))
    return rows


def bench_dual_enkf(cfg: RunConfig) -> ResultTable:
    """Relative value-matrix MSE and closed-loop abscissa over (d, N, rep).

    The random canonical system is redrawn per (d, rep) and shared across
    ensemble sizes so the N-sweep is comparable within a replicate.
    """
    nested = _map_ordered(_dual_enkf_cell, cfg, len(cfg.d_list), cfg.reps)
    rows = [row for cell_rows in nested for row in cell_rows]
    return ResultTable(("d", "N", "rep", "rel_mse", "spec_abscissa"), rows,
                       table_metadata(cfg.seed, "dual-enkf", cfg.fingerprint()))


EXPERIMENTS = {
    "mse-levelsets": bench_mse_levelsets,
    "bias-variance": bench_bias_variance,
    "dual-enkf": bench_dual_enkf,
}
