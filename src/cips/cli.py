"""Command-line interface.

Subcommands: ``filter``, ``gain-study``, ``lqr-solve``, ``static-update``,
``bench``.  Every run is a pure function of its flags/config and seed; output
CSVs carry a ``#``-prefixed metadata header (version, schema, seed, config
hash) and are byte-identical across repeated runs.

Config files are flat INI (``key = value`` under any section); values are
parsed as JSON where possible.  Flags win over config values.

Exit codes: 0 success, 2 configuration/usage error, 1 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys

import numpy as np

from . import __version__
from .bench import EXPERIMENT_NAMES, ResultTable, RunConfig, gain_study_table, run_experiment
from .core import RngStream
from .exceptions import ConfigError, NumericError
from .fpf import (
    ConstantGainMethod,
    DiffusionMapGainMethod,
    Ensemble,
    GalerkinGainMethod,
    run_fpf,
)
from .gain import coordinate_basis
from .kalman import kalman_bucy_run
from .linear_ensemble import LinearVariant, empirical_moments, linear_enkf_step
from .models import (
    make_linear_gaussian,
    make_lq_canonical,
    make_static_param,
    simulate_truth_and_observations,
)
from .sir import bootstrap_pf_step, uniform_weighted
from .static_transport import JointGaussian, blue_update, ot_affine_map, perturbed_enkf_map
from .dual_enkf import run_dual_enkf

FILTER_METHODS = (
    "kalman",
    "fpf-const",
    "fpf-galerkin",
    "fpf-dm",
    "sir",
    "enkf-sqrt",
    "enkf-perturbed",
    "enkf-det",
)


def load_config(path: str) -> dict:
    """Flat key=value sections; JSON-parsed values; later sections win."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    merged: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.replace("-", "_")
            try:
                merged[key] = json.loads(raw)
            except json.JSONDecodeError:
                merged[key] = raw
    return merged


def _merge(config: dict, args: argparse.Namespace, names: list[str]) -> dict:
    """Start from config values, let non-None flags win."""
    out = dict(config)
    for name in names:
        val = getattr(args, name, None)
        if val is not None:
            out[name] = val
    return out


def _parse_int_list(value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    return tuple(int(tok) for tok in str(value).split(",") if tok.strip())


def _parse_float_list(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return tuple(float(tok) for tok in str(value).split(",") if tok.strip())


def _parse_str_list(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return tuple(tok.strip() for tok in str(value).split(",") if tok.strip())


def _matrix(value, name: str) -> np.ndarray:
    try:
        arr = np.array(json.loads(value) if isinstance(value, str) else value, dtype=float)
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse {name} as a JSON array: {value!r}") from exc
    return arr


def _metadata(seed: int, schema: str, fingerprint: str) -> dict[str, str]:
    return {
        "version": __version__,
        "schema": f"{schema}-v1",
        "seed": str(seed),
        "config": fingerprint,
    }


def _fingerprint(payload: dict) -> str:
    import hashlib

    return hashlib.sha256(repr(sorted(payload.items())).encode()).hexdigest()[:16]


def _write_or_print(table: ResultTable, out: str | None) -> None:
    if out:
        table.write(out)
    else:
        sys.stdout.write(table.to_csv())


# ---------------------------------------------------------------------------
# filter subcommand
# ---------------------------------------------------------------------------

def _build_model(opts: dict):
    kind = str(opts.get("model", "static"))
    if kind == "static":
        d = int(opts.get("d", 1))
        return make_static_param(d, float(opts.get("sigma0", 1.0)), float(opts.get("sigma_w", 1.0)))
    if kind == "linear":
        required = ("a_matrix", "h_matrix", "sigma_b", "m0", "sigma0_matrix")
        missing = [k for k in required if k not in opts]
        if missing:
            raise ConfigError(f"linear model needs config keys {missing}")
        return make_linear_gaussian(
            _matrix(opts["a_matrix"], "a_matrix"),
            _matrix(opts["h_matrix"], "h_matrix"),
            _matrix(opts["sigma_b"], "sigma_b"),
            _matrix(opts["m0"], "m0"),
            _matrix(opts["sigma0_matrix"], "sigma0_matrix"),
            obs_noise_scale=float(opts.get("sigma_w", 1.0)),
        )
    raise ConfigError(f"unknown model kind {kind!r}")


def _moment_rows(times, means, covs):
    d = means.shape[1]
    rows = []
    for k in range(means.shape[0]):
        rows.append(
            (float(times[k]),)
            + tuple(float(v) for v in means[k])
            + tuple(float(v) for v in covs[k].reshape(-1))
        )
    cols = ("t",) + tuple(f"m_{i}" for i in range(d)) + tuple(
        f"s_{i}_{j}" for i in range(d) for j in range(d)
    )
    return cols, rows


def cmd_filter(args: argparse.Namespace) -> int:
    opts = _merge(load_config(args.config) if args.config else {}, args, [
        "model", "d", "sigma0", "sigma_w", "method", "n", "dt", "horizon", "seed", "eps",
    ])
    method = str(opts.get("method", "fpf-const"))
    if method not in FILTER_METHODS:
        raise ConfigError(f"unknown filter method {method!r}; choose from {FILTER_METHODS}")
    seed = int(opts.get("seed", 0))
    n = int(opts.get("n", 1000))
    dt = float(opts.get("dt", 0.02))
    horizon = float(opts.get("horizon", 1.0))
    model = _build_model(opts)

    rng = RngStream(seed)
    _, obs = simulate_truth_and_observations(model, dt, horizon, rng.substream(0))
    frng = rng.substream(1)

    if method == "kalman":
        path = kalman_bucy_run(model, obs)
        cols, rows = _moment_rows(path.times, path.means, path.covs)
    elif method.startswith("enkf-"):
        tag = {"enkf-sqrt": "sqrt", "enkf-perturbed": "perturbed", "enkf-det": "deterministic"}[method]
        variant = LinearVariant(tag)
        ens = Ensemble(model.sample_prior(frng, n), time=obs.t0)
        means = [empirical_moments(ens.particles)[0]]
        covs = [empirical_moments(ens.particles)[1]]
        for k in range(obs.num_steps):
            ens = linear_enkf_step(ens, obs.increments[k], dt, model, variant, frng)
            m, s = empirical_moments(ens.particles)
            means.append(m)
            covs.append(s)
        cols, rows = _moment_rows(obs.times, np.array(means), np.array(covs))
    elif method == "sir":
        wens = uniform_weighted(model.sample_prior(frng, n))
        means, covs = [], []
        w_mean = wens.weights @ wens.particles
        means.append(w_mean)
        covs.append((wens.particles - w_mean).T @ (wens.weights[:, None] * (wens.particles - w_mean)))
        for k in range(obs.num_steps):
            wens = bootstrap_pf_step(wens, obs.increments[k], dt, model, frng)
            w_mean = wens.weights @ wens.particles
            means.append(w_mean)
            covs.append((wens.particles - w_mean).T @ (wens.weights[:, None] * (wens.particles - w_mean)))
        cols, rows = _moment_rows(obs.times, np.array(means), np.array(covs))
    else:
        if method == "fpf-const":
            gain_method = ConstantGainMethod()
        elif method == "fpf-galerkin":
            gain_method = GalerkinGainMethod(coordinate_basis(model.dim_state))
        else:
            gain_method = DiffusionMapGainMethod(eps=opts.get("eps", "auto"))
        run = run_fpf(model, obs, n, gain_method, frng)
        cols, rows = _moment_rows(run.times, run.means, run.covs)

    table = ResultTable(
        columns=cols,
        rows=rows,
        metadata=_metadata(seed, f"filter-{method}", _fingerprint(
            {k: str(v) for k, v in opts.items()}
        )),
    )
    _write_or_print(table, args.out)
    return 0


# ---------------------------------------------------------------------------
# gain-study subcommand
# ---------------------------------------------------------------------------

def cmd_gain_study(args: argparse.Namespace) -> int:
    opts = _merge(load_config(args.config) if args.config else {}, args, [
        "density", "h", "sigma2", "eps_list", "n_list", "reps", "seed", "jobs",
    ])
    if "eps_list" not in opts:
        raise ConfigError("gain-study requires --eps-list")
    if str(opts.get("density", "bimodal")) != "bimodal":
        raise ConfigError("gain-study supports density 'bimodal' only")
    if str(opts.get("h", "x")) != "x":
        raise ConfigError("gain-study supports the identity observable h = x only")
    cfg = RunConfig(
        experiment="bias-variance",
        seed=int(opts.get("seed", 0)),
        reps=int(opts.get("reps", 100)),
        n_list=_parse_int_list(opts.get("n_list", "200")),
        d_list=(1,),
        eps_list=_parse_float_list(opts["eps_list"]),
        bimodal_sigma2=float(opts.get("sigma2", 0.2)),
        jobs=int(opts.get("jobs", 1)),
    )
    _write_or_print(gain_study_table(cfg), args.out)
    return 0


# ---------------------------------------------------------------------------
# lqr-solve subcommand
# ---------------------------------------------------------------------------

def cmd_lqr_solve(args: argparse.Namespace) -> int:
    opts = _merge(load_config(args.config) if args.config else {}, args, [
        "d", "n", "dt", "horizon", "seed", "oracle_only",
    ])
    d = int(opts.get("d", 2))
    n = int(opts.get("n", 1000))
    dt = float(opts.get("dt", 0.02))
    horizon = float(opts.get("horizon", 10.0))
    seed = int(opts.get("seed", 0))
    oracle_only = bool(opts.get("oracle_only", False))

    rng = RngStream(seed)
    lq = make_lq_canonical(d, rng.substream(0))
    from dataclasses import replace

    lq = replace(lq, horizon=horizon)
    run = run_dual_enkf(lq, n, dt, rng.substream(1), oracle_only=oracle_only)

    m = lq.dim_input
    gain_cols = ("t",) + tuple(f"k_{i}_{j}" for i in range(m) for j in range(d))
    gain_rows = [
        (float(t),) + tuple(float(v) for v in K.reshape(-1))
        for t, K in zip(run.gain_path.times, run.gain_path.gains)
    ]
    meta = _metadata(seed, "lqr-gain", _fingerprint({k: str(v) for k, v in opts.items()}))
    _write_or_print(ResultTable(columns=gain_cols, rows=gain_rows, metadata=meta), args.out)

    s_out = args.out_s or (args.out + ".s.csv" if args.out else None)
    if not s_out:
        return 0
    s_cols = ("t",) + tuple(f"s_{i}_{j}" for i in range(d) for j in range(d))
    s_rows = [
        (float(t),) + tuple(float(v) for v in S.reshape(-1))
        for t, S in zip(run.times, run.cov_path)
    ]
    s_table = ResultTable(
        columns=s_cols, rows=s_rows,
        metadata=_metadata(seed, "lqr-cov", meta["config"]),
    )
    s_table.write(s_out)
    return 0


# ---------------------------------------------------------------------------
# static-update subcommand
# ---------------------------------------------------------------------------

def cmd_static_update(args: argparse.Namespace) -> int:
    opts = _merge(load_config(args.config) if args.config else {}, args, [
        "mean_x", "mean_y", "cov_x", "cov_xy", "cov_y", "y", "method", "samples", "seed",
    ])
    required = ("cov_x", "cov_xy", "cov_y", "y")
    missing = [k for k in required if opts.get(k) is None]
    if missing:
        raise ConfigError(f"static-update requires {missing}")
    y = np.atleast_1d(_matrix(opts["y"], "y"))
    cov_x = np.atleast_2d(_matrix(opts["cov_x"], "cov_x"))
    cov_y = np.atleast_2d(_matrix(opts["cov_y"], "cov_y"))
    cov_xy = np.atleast_2d(_matrix(opts["cov_xy"], "cov_xy"))
    d, m = cov_x.shape[0], cov_y.shape[0]
    mean_x = np.atleast_1d(_matrix(opts.get("mean_x", [0.0] * d), "mean_x"))
    mean_y = np.atleast_1d(_matrix(opts.get("mean_y", [0.0] * m), "mean_y"))
    jg = JointGaussian(mean_x=mean_x, mean_y=mean_y, cov_x=cov_x, cov_xy=cov_xy, cov_y=cov_y)

    samples = int(opts.get("samples", 0) or 0)
    method = str(opts.get("method", "ot"))
    if samples > 0:
        if not args.sample_out:
            raise ConfigError("--samples requires --sample-out")
        if method not in ("ot", "perturbed"):
            raise ConfigError(f"unknown static-update method {method!r}")

    mean, cov = blue_update(jg, y)
    rows = [("mean", i, 0, float(v)) for i, v in enumerate(mean)]
    rows += [("cov", i, j, float(cov[i, j])) for i in range(d) for j in range(d)]
    seed = int(opts.get("seed", 0))
    meta = _metadata(seed, "static-update", _fingerprint({k: str(v) for k, v in opts.items()}))
    _write_or_print(ResultTable(columns=("entry", "i", "j", "value"), rows=rows, metadata=meta), args.out)

    if samples > 0:
        rng = RngStream(seed)
        if method == "ot":
            x0, _ = jg.sample(rng, samples)
            transformed = ot_affine_map(jg)(x0, y)
        else:
            transformed = perturbed_enkf_map(jg, y, rng, samples)
        sample_rows = [tuple(float(v) for v in row) for row in transformed]
        sample_table = ResultTable(
            columns=tuple(f"x_{i}" for i in range(d)),
            rows=sample_rows,
            metadata=_metadata(seed, f"static-samples-{method}", meta["config"]),
        )
        sample_table.write(args.sample_out)
    return 0


# ---------------------------------------------------------------------------
# bench subcommand
# ---------------------------------------------------------------------------

_BENCH_DEFAULTS = {
    "mse-levelsets": dict(reps=1000, n_list=(1000,), d_list=(1, 2, 3), horizon=1.0),
    "bias-variance": dict(reps=100, n_list=(200,), d_list=(1,),
                          eps_list=(0.02, 0.05, 0.1, 0.2, 0.5, 1.0)),
    "dual-enkf": dict(reps=10, n_list=(1000,), d_list=(2,), horizon=10.0),
}


def cmd_bench(args: argparse.Namespace) -> int:
    opts = _merge(load_config(args.config) if args.config else {}, args, [
        "experiment", "seed", "reps", "n_list", "d_list", "eps_list", "methods",
        "sigma0", "sigma_w", "dt", "horizon", "bimodal_sigma2", "jobs",
    ])
    experiment = opts.get("experiment")
    if experiment not in EXPERIMENT_NAMES:
        raise ConfigError(
            f"--experiment must be one of {EXPERIMENT_NAMES}, got {experiment!r}"
        )
    merged = dict(_BENCH_DEFAULTS[experiment])
    merged.update({k: v for k, v in opts.items() if k != "experiment"})
    cfg = RunConfig(
        experiment=experiment,
        seed=int(merged.get("seed", 0)),
        reps=int(merged.get("reps", 100)),
        n_list=_parse_int_list(merged.get("n_list", (1000,))),
        d_list=_parse_int_list(merged.get("d_list", (1,))),
        eps_list=_parse_float_list(merged.get("eps_list", ())),
        methods=_parse_str_list(merged.get("methods", ("pf", "pf-modified", "fpf"))),
        sigma0=float(merged.get("sigma0", 1.0)),
        sigma_w=float(merged.get("sigma_w", 1.0)),
        dt=float(merged.get("dt", 0.02)),
        horizon=float(merged.get("horizon", 1.0)),
        bimodal_sigma2=float(merged.get("bimodal_sigma2", 0.2)),
        jobs=int(merged.get("jobs", 1)),
    )
    _write_or_print(run_experiment(cfg), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cips",
        description="Controlled interacting particle systems: filters, gains, LQ control.",
    )
    parser.add_argument("--version", action="version", version=f"cips {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        p.add_argument("--jobs", type=int, default=None, help="worker processes (default 1)")
        p.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
        p.add_argument("--config", type=str, default=None, help="INI config file; flags win")

    p = sub.add_parser("filter", help="run one filtering experiment")
    common(p)
    p.add_argument("--model", choices=("static", "linear"), default=None)
    p.add_argument("--method", choices=FILTER_METHODS, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--sigma0", type=float, default=None)
    p.add_argument("--sigma-w", dest="sigma_w", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="number of particles")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--T", dest="horizon", type=float, default=None)
    p.add_argument("--eps", default=None, help="diffusion-map bandwidth or 'auto'")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("gain-study", help="diffusion-map gain error study")
    common(p)
    p.add_argument("--density", type=str, default=None, help="density name (bimodal)")
    p.add_argument("--h", type=str, default=None, help="observable spec (x)")
    p.add_argument("--sigma2", type=float, default=None, help="bimodal component variance")
    p.add_argument("--eps-list", dest="eps_list", type=str, default=None)
    p.add_argument("--n-list", dest="n_list", type=str, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.set_defaults(func=cmd_gain_study)

    p = sub.add_parser("lqr-solve", help="dual ensemble LQ solve")
    common(p)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--T", dest="horizon", type=float, default=None)
    p.add_argument("--oracle-only", dest="oracle_only", action="store_true", default=None)
    p.add_argument("--out-s", dest="out_s", type=str, default=None,
                   help="covariance-path CSV (default: <out>.s.csv; "
                   "not written when neither is given)")
    p.set_defaults(func=cmd_lqr_solve)

    p = sub.add_parser("static-update", help="Gaussian conditioning maps")
    common(p)
    p.add_argument("--mean-x", dest="mean_x", type=str, default=None)
    p.add_argument("--mean-y", dest="mean_y", type=str, default=None)
    p.add_argument("--cov-x", dest="cov_x", type=str, default=None)
    p.add_argument("--cov-xy", dest="cov_xy", type=str, default=None)
    p.add_argument("--cov-y", dest="cov_y", type=str, default=None)
    p.add_argument("--y", type=str, default=None, help="observed value (JSON array)")
    p.add_argument("--method", choices=("ot", "perturbed"), default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--sample-out", dest="sample_out", type=str, default=None)
    p.set_defaults(func=cmd_static_update)

    p = sub.add_parser("bench", help="benchmark table reproduction")
    common(p)
    p.add_argument("--experiment", choices=EXPERIMENT_NAMES, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--n-list", dest="n_list", type=str, default=None)
    p.add_argument("--d-list", dest="d_list", type=str, default=None)
    p.add_argument("--eps-list", dest="eps_list", type=str, default=None)
    p.add_argument("--methods", type=str, default=None)
    p.add_argument("--sigma0", type=float, default=None)
    p.add_argument("--sigma-w", dest="sigma_w", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--T", dest="horizon", type=float, default=None)
    p.add_argument("--bimodal-sigma2", dest="bimodal_sigma2", type=float, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
