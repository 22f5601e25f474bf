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
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .bench import (
    EXPERIMENT_NAMES,
    ResultTable,
    RunConfig,
    fingerprint,
    gain_study_table,
    run_experiment,
    table_metadata,
)
from .core import RngStream
from .exceptions import ConfigError, NumericError
from .fpf import Ensemble, fpf_step, run_filter
from .gain import constant_gain, coordinate_basis, diffusion_map_gain, galerkin_gain
from .kalman import kalman_bucy_run
from .linear_ensemble import linear_enkf_step
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

ENKF_VARIANTS = {"enkf-sqrt": "sqrt", "enkf-perturbed": "perturbed", "enkf-det": "deterministic"}


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


def _merge(config: dict, args: argparse.Namespace, names: list[str],
           extra: tuple[str, ...] = ()) -> dict:
    """Start from config values, let non-None flags win.

    A config key that is neither a flag name in ``names`` nor one of the
    ``extra`` keys the subcommand reads is an error, so a misspelt key
    cannot silently fall back to a default.
    """
    unknown = sorted(set(config) - set(names) - set(extra))
    if unknown:
        known = ", ".join(sorted(set(names) | set(extra)))
        raise ConfigError(f"{args.command}: unknown config keys {unknown}; known keys: {known}")
    out = dict(config)
    for name in names:
        val = getattr(args, name, None)
        if val is not None:
            out[name] = val
    return out


def _cast(key: str, value, kind: type):
    """One option value as ``kind`` (``int``, ``float`` or ``str``).

    Config values are whatever JSON made of them: a list, null, a bool, a
    non-integral number for an ``int`` or an unparsable string is a
    ``ConfigError`` naming the key, not a ``TypeError`` or a truncation.
    """
    fits = isinstance(value, (str, int, float)) and not isinstance(value, bool)
    if fits and not (kind is int and isinstance(value, float) and not value.is_integer()):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


def _option(opts: dict, key: str, default, kind: type):
    """``opts[key]``, or ``default`` when it is absent, through :func:`_cast`."""
    return _cast(key, opts.get(key, default), kind)


def _bandwidth(value) -> float | str:
    """The diffusion-map bandwidth: 'auto' or a positive finite number."""
    if value == "auto":
        return value
    try:
        eps = _cast("eps", value, float)
    except ConfigError:
        eps = float("nan")
    if not (np.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be 'auto' or a positive number, got {value!r}")
    return eps


def _parse_list(key: str, value, kind: type) -> tuple:
    """A list, or a comma-separated string, with each item cast to ``kind``."""
    if not isinstance(value, (list, tuple)):
        value = [tok.strip() for tok in str(value).split(",") if tok.strip()]
    return tuple(_cast(key, v, kind) for v in value)


def _matrix(value, name: str) -> np.ndarray:
    try:
        arr = np.array(json.loads(value) if isinstance(value, str) else value, dtype=float)
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse {name} as a JSON array: {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} has nonfinite entries: {value!r}")
    return arr


@contextmanager
def _setup_errors():
    """Report the library's argument checks made during set-up as usage errors.

    The rules (positive dt, at least two particles, ...) are written once,
    as ``ValueError``s where the library checks them; here they exit 2.
    Option values are cast by :func:`_cast`, which raises ``ConfigError``
    itself.  A size too large to allocate (a whole but astronomical step
    count, say) is a usage error too.  Failures while stepping are
    ``NumericError``s and still exit 1.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:
        raise ConfigError(f"the configuration does not fit in memory: {exc}") from exc


def _write_or_print(table: ResultTable, out: str | None) -> None:
    if out:
        table.write(out)
    else:
        sys.stdout.write(table.to_csv())


# ---------------------------------------------------------------------------
# filter subcommand
# ---------------------------------------------------------------------------

# Config keys that only _build_model reads (the linear model's matrices).
_MODEL_KEYS = ("a_matrix", "h_matrix", "sigma_b", "m0", "sigma0_matrix")


def _build_model(opts: dict):
    kind = str(opts.get("model", "static"))
    if kind == "static":
        return make_static_param(_option(opts, "d", 1, int), _option(opts, "sigma0", 1.0, float),
                                 _option(opts, "sigma_w", 1.0, float))
    if kind == "linear":
        missing = [k for k in _MODEL_KEYS if k not in opts]
        if missing:
            raise ConfigError(f"linear model needs config keys {missing}")
        return make_linear_gaussian(
            _matrix(opts["a_matrix"], "a_matrix"),
            _matrix(opts["h_matrix"], "h_matrix"),
            _matrix(opts["sigma_b"], "sigma_b"),
            _matrix(opts["m0"], "m0"),
            _matrix(opts["sigma0_matrix"], "sigma0_matrix"),
            obs_noise_scale=_option(opts, "sigma_w", 1.0, float),
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


def _filter_start(method: str, model, n: int, eps, rng: RngStream, t0: float):
    """Start state and step function of a particle method; draws the prior."""
    prior = model.sample_prior(rng, n)
    if method == "sir":
        return uniform_weighted(prior), bootstrap_pf_step
    start = Ensemble(prior, time=t0)
    if method in ENKF_VARIANTS:
        return start, partial(linear_enkf_step, variant=ENKF_VARIANTS[method])
    if method == "fpf-const":
        gain_method = constant_gain
    elif method == "fpf-galerkin":
        gain_method = partial(galerkin_gain, basis=coordinate_basis(model.dim_state))
    else:
        def gain_method(x, h):
            return diffusion_map_gain(x, h, eps)[0]
    return start, partial(fpf_step, gain_method=gain_method)


def cmd_filter(args: argparse.Namespace) -> int:
    opts = _merge(load_config(args.config) if args.config else {}, args, [
        "model", "d", "sigma0", "sigma_w", "method", "n", "dt", "horizon", "seed", "eps",
    ], extra=_MODEL_KEYS)
    method = str(opts.get("method", "fpf-const"))
    if method not in FILTER_METHODS:
        raise ConfigError(f"unknown filter method {method!r}; choose from {FILTER_METHODS}")
    with _setup_errors():
        seed = _option(opts, "seed", 0, int)
        n = _option(opts, "n", 1000, int)
        dt = _option(opts, "dt", 0.02, float)
        horizon = _option(opts, "horizon", 1.0, float)
        eps = _bandwidth(opts.get("eps", "auto"))
        model = _build_model(opts)
        rng = RngStream(seed)
        _, obs = simulate_truth_and_observations(model, dt, horizon, rng.substream(0))
        frng = rng.substream(1)
        if method != "kalman":
            start, step = _filter_start(method, model, n, eps, frng, obs.t0)
    if method == "kalman":
        run = kalman_bucy_run(model, obs)
    else:
        run = run_filter(model, obs, start, step, frng)
    cols, rows = _moment_rows(run.times, run.means, run.covs)
    table = ResultTable(
        columns=cols,
        rows=rows,
        metadata=table_metadata(seed, f"filter-{method}", fingerprint(
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
    with _setup_errors():
        cfg = RunConfig(
            experiment="bias-variance",
            seed=_option(opts, "seed", 0, int),
            reps=_option(opts, "reps", 100, int),
            n_list=_parse_list("n_list", opts.get("n_list", "200"), int),
            d_list=(1,),
            eps_list=_parse_list("eps_list", opts["eps_list"], float),
            bimodal_sigma2=_option(opts, "sigma2", 0.2, float),
            jobs=_option(opts, "jobs", 1, int),
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
    # run_dual_enkf checks the grid and the ensemble size before its first
    # step; its stepping failures are NumericErrors, not ValueErrors.
    with _setup_errors():
        d = _option(opts, "d", 2, int)
        n = _option(opts, "n", 1000, int)
        dt = _option(opts, "dt", 0.02, float)
        horizon = _option(opts, "horizon", 10.0, float)
        seed = _option(opts, "seed", 0, int)
        oracle_only = opts.get("oracle_only", False)
        if not isinstance(oracle_only, bool):
            raise ConfigError(f"oracle_only must be true or false, got {oracle_only!r}")
        rng = RngStream(seed)
        lq = replace(make_lq_canonical(d, rng.substream(0)), horizon=horizon)
        if oracle_only:
            lq = replace(lq, A=None, B=None, C=None)
        run = run_dual_enkf(lq, n, dt, rng.substream(1))

    m = lq.dim_input
    gain_cols = ("t",) + tuple(f"k_{i}_{j}" for i in range(m) for j in range(d))
    gain_rows = [
        (float(t),) + tuple(float(v) for v in K.reshape(-1))
        for t, K in zip(run.times, run.gains)
    ]
    meta = table_metadata(seed, "lqr-gain", fingerprint({k: str(v) for k, v in opts.items()}))
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
        metadata=table_metadata(seed, "lqr-cov", meta["config"]),
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
    with _setup_errors():
        y = np.atleast_1d(_matrix(opts["y"], "y"))
        cov_x = np.atleast_2d(_matrix(opts["cov_x"], "cov_x"))
        cov_y = np.atleast_2d(_matrix(opts["cov_y"], "cov_y"))
        cov_xy = np.atleast_2d(_matrix(opts["cov_xy"], "cov_xy"))
        d, m = cov_x.shape[0], cov_y.shape[0]
        mean_x = np.atleast_1d(_matrix(opts.get("mean_x", [0.0] * d), "mean_x"))
        mean_y = np.atleast_1d(_matrix(opts.get("mean_y", [0.0] * m), "mean_y"))
        jg = JointGaussian(mean_x=mean_x, mean_y=mean_y, cov_x=cov_x, cov_xy=cov_xy, cov_y=cov_y)

        samples = _option(opts, "samples", 0, int)
        method = str(opts.get("method", "ot"))
        if samples > 0:
            if not args.sample_out:
                raise ConfigError("--samples requires --sample-out")
            if method not in ("ot", "perturbed"):
                raise ConfigError(f"unknown static-update method {method!r}")
        mean, cov = blue_update(jg, y)

    rows = [("mean", i, 0, float(v)) for i, v in enumerate(mean)]
    rows += [("cov", i, j, float(cov[i, j])) for i in range(d) for j in range(d)]
    seed = _option(opts, "seed", 0, int)
    meta = table_metadata(seed, "static-update", fingerprint({k: str(v) for k, v in opts.items()}))
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
            metadata=table_metadata(seed, f"static-samples-{method}", meta["config"]),
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
    with _setup_errors():
        cfg = RunConfig(
            experiment=experiment,
            seed=_option(merged, "seed", 0, int),
            reps=_option(merged, "reps", 100, int),
            n_list=_parse_list("n_list", merged.get("n_list", (1000,)), int),
            d_list=_parse_list("d_list", merged.get("d_list", (1,)), int),
            eps_list=_parse_list("eps_list", merged.get("eps_list", ()), float),
            methods=_parse_list("methods", merged.get("methods", ("pf", "pf-modified", "fpf")), str),
            sigma0=_option(merged, "sigma0", 1.0, float),
            sigma_w=_option(merged, "sigma_w", 1.0, float),
            dt=_option(merged, "dt", 0.02, float),
            horizon=_option(merged, "horizon", 1.0, float),
            bimodal_sigma2=_option(merged, "bimodal_sigma2", 0.2, float),
            jobs=_option(merged, "jobs", 1, int),
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
        p.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
        p.add_argument("--config", type=str, default=None, help="INI config file; flags win")

    def jobs(p):
        p.add_argument("--jobs", type=int, default=None, help="worker processes (default 1)")

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
    jobs(p)
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
    jobs(p)
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
