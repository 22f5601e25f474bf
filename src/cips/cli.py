"""Command-line interface.

Subcommands: ``filter``, ``gain-study``, ``lqr-solve``, ``static-update``,
``bench``.  Every run is a pure function of its flags/config and seed; output
CSVs carry a ``#``-prefixed metadata header (version, schema, seed, config
hash) and are byte-identical across repeated runs.

Each subcommand declares its options once, as :class:`Option` rows in
:data:`OPTIONS`; the parser, the config-key check and every cast and
default come from them.

Config files are flat INI (``key = value`` under any section); values are
parsed as JSON where possible.  Flags win over config values.

Each handler ``cmd_*`` is a pure function of its options: it returns its
tables as ``(path or None, ResultTable)`` pairs and opens no file.  ``main``
checks every output path before the run and after it, then writes all the
tables (``None`` is stdout) or none.  It alone maps exceptions to exit codes:
0 success; 2 a usage error, which is an unwritable path, any ``ValueError``
(``ConfigError``, ``LinAlgError``) or a ``MemoryError``; 1 a ``NumericError``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from . import __version__
from .bench import EXPERIMENTS, ResultTable, RunConfig, fingerprint, gain_study_table, table_metadata
from .core import RngStream
from .exceptions import ConfigError, NotPositiveDefiniteError, NumericError
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


def _fpf(gain):
    """An FPF's start and step; ``gain(model, eps)`` makes its gain method."""
    return Ensemble, lambda model, eps: partial(fpf_step, gain_method=gain(model, eps))


# The filter methods: each particle method's start state, made from the
# prior draw, and its step, made from the model and the bandwidth.  The
# Kalman-Bucy filter steps no particles.
FILTER_METHODS = {
    "kalman": None,
    "fpf-const": _fpf(lambda model, eps: constant_gain),
    "fpf-galerkin": _fpf(lambda model, eps: partial(galerkin_gain,
                                                    basis=coordinate_basis(model.dim_state))),
    "fpf-dm": _fpf(lambda model, eps: partial(diffusion_map_gain, eps=eps)),
    "sir": (uniform_weighted, lambda model, eps: bootstrap_pf_step),
    "enkf-sqrt": (Ensemble, lambda model, eps: partial(linear_enkf_step, variant="sqrt")),
    "enkf-perturbed": (Ensemble, lambda model, eps: partial(linear_enkf_step, variant="perturbed")),
    "enkf-det": (Ensemble, lambda model, eps: partial(linear_enkf_step, variant="deterministic")),
}


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


def _has_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def _matrix(key: str, value) -> np.ndarray:
    """A JSON array of finite numbers, given as a list or as its JSON text."""
    try:
        parsed = json.loads(value) if isinstance(value, str) else value
        arr = np.array(parsed, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {key} as a JSON array: {value!r}") from exc
    if _has_bool(parsed):
        raise ConfigError(f"{key} must hold numbers, not true or false: {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key} has nonfinite entries: {value!r}")
    return arr


def _true_or_false(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


# An option kind is a pair: a reader ``(key, value) -> typed value``, which
# raises a ConfigError naming the key, and the argparse keywords of its flag.
INT = (partial(_cast, kind=int), {"type": int})
FLOAT = (partial(_cast, kind=float), {"type": float})
INTS = (partial(_parse_list, kind=int), {})
FLOATS = (partial(_parse_list, kind=float), {})
STRS = (partial(_parse_list, kind=str), {})
MATRIX = (_matrix, {})
BANDWIDTH = (lambda key, value: _bandwidth(value), {})
BOOL = (_true_or_false, {"action": "store_true"})


def choice(*values: str) -> tuple:
    """One of ``values``; argparse checks the flag too."""
    def read(key: str, value) -> str:
        if not (isinstance(value, str) and value in values):
            raise ConfigError(f"{key} must be one of {', '.join(values)}, got {value!r}")
        return value
    return read, {"choices": values}


REQUIRED = object()


@dataclass
class Option:
    """One option of a subcommand: its config key, kind, default and flag.

    A ``None`` default leaves the key unset, for the command or ``RunConfig``
    to fill; ``REQUIRED`` makes its absence an error.  The flag is ``--key``
    with ``-`` for ``_`` unless given; ``None`` makes a config-only key.
    """

    key: str
    kind: tuple
    default: object = None
    flag: str | None = ""

    def __post_init__(self):
        if self.flag == "":
            self.flag = "--" + self.key.replace("_", "-")


# Config keys that only the linear model reads; they have no flag.
_MODEL_KEYS = ("a_matrix", "h_matrix", "sigma_b", "m0", "sigma0_matrix")

OPTIONS = {
    "filter": (
        Option("model", choice("static", "linear"), "static"),
        Option("method", choice(*FILTER_METHODS), "fpf-const"),
        Option("d", INT, 1),
        Option("sigma0", FLOAT, 1.0),
        Option("sigma_w", FLOAT, 1.0),
        Option("n", INT, 1000),
        Option("dt", FLOAT, 0.02),
        Option("horizon", FLOAT, 1.0, "--T"),
        Option("seed", INT, 0),
        Option("eps", BANDWIDTH, "auto"),
        *(Option(key, MATRIX, flag=None) for key in _MODEL_KEYS),
    ),
    "gain-study": (
        Option("sigma2", FLOAT, 0.2),
        Option("eps_list", FLOATS, REQUIRED),
        Option("n_list", INTS, (200,)),
        Option("reps", INT, 100),
        Option("seed", INT, 0),
        Option("jobs", INT, 1),
    ),
    "lqr-solve": (
        Option("d", INT, 2),
        Option("n", INT, 1000),
        Option("dt", FLOAT, 0.02),
        Option("horizon", FLOAT, 10.0, "--T"),
        Option("seed", INT, 0),
        Option("oracle_only", BOOL, False),
    ),
    "static-update": (
        Option("mean_x", MATRIX),
        Option("mean_y", MATRIX),
        Option("cov_x", MATRIX, REQUIRED),
        Option("cov_xy", MATRIX, REQUIRED),
        Option("cov_y", MATRIX, REQUIRED),
        Option("y", MATRIX, REQUIRED),
        Option("method", choice("ot", "perturbed"), "ot"),
        Option("samples", INT, 0),
        Option("seed", INT, 0),
    ),
    # the defaults of bench are those of _BENCH_DEFAULTS and RunConfig
    "bench": (
        Option("experiment", choice(*EXPERIMENTS), REQUIRED),
        Option("seed", INT),
        Option("reps", INT),
        Option("n_list", INTS),
        Option("d_list", INTS),
        Option("eps_list", FLOATS),
        Option("methods", STRS),
        Option("sigma0", FLOAT),
        Option("sigma_w", FLOAT),
        Option("dt", FLOAT),
        Option("horizon", FLOAT, None, "--T"),
        Option("bimodal_sigma2", FLOAT),
        Option("jobs", INT),
    ),
}


def _read_options(args: argparse.Namespace) -> tuple[str, dict]:
    """The config hash of ``args.command``'s options, and every option read.

    Given flags win over config values; a config key that is no option is an
    error.  Every given value is read, even where the run ignores it.  The
    hash is over the given values only, as argparse or JSON typed them.
    """
    options = OPTIONS[args.command]
    given = load_config(args.config) if args.config else {}
    keys = sorted(opt.key for opt in options)
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise ConfigError(f"{args.command}: unknown config keys {unknown}; known keys: {', '.join(keys)}")
    given.update((opt.key, getattr(args, opt.key)) for opt in options
                 if opt.flag and getattr(args, opt.key) is not None)
    missing = [opt.flag for opt in options if opt.default is REQUIRED and opt.key not in given]
    if missing:
        raise ConfigError(f"{args.command} requires {', '.join(missing)}")
    read = {opt.key: opt.kind[0](opt.key, given[opt.key]) if opt.key in given else opt.default
            for opt in options if opt.key in given or opt.default is not None}
    return fingerprint({k: str(v) for k, v in given.items()}), read


# ---------------------------------------------------------------------------
# filter subcommand
# ---------------------------------------------------------------------------

def _build_model(opts: dict):
    if opts["model"] == "static":
        return make_static_param(opts["d"], opts["sigma0"], opts["sigma_w"])
    missing = [k for k in _MODEL_KEYS if k not in opts]
    if missing:
        raise ConfigError(f"linear model needs config keys {missing}")
    return make_linear_gaussian(*(opts[k] for k in _MODEL_KEYS), obs_noise_scale=opts["sigma_w"])


def _entry_names(prefix: str, *shape: int) -> tuple[str, ...]:
    """Column names of an array's entries in row-major order: ``s_0_1``, ..."""
    return tuple("_".join(map(str, (prefix,) + idx)) for idx in np.ndindex(*shape))


def _time_rows(times, *paths) -> list[tuple]:
    """One row per time: ``t``, then the entries of each path at ``t``."""
    flat = [np.reshape(path, (len(times), -1)).tolist() for path in paths]
    return [(t,) + tuple(v for f in flat for v in f[k]) for k, t in enumerate(times.tolist())]


def cmd_filter(args: argparse.Namespace) -> list[tuple[str | None, ResultTable]]:
    config_hash, opts = _read_options(args)
    method, seed = opts["method"], opts["seed"]
    model = _build_model(opts)
    rng = RngStream(seed)
    _, obs = simulate_truth_and_observations(model, opts["dt"], opts["horizon"], rng.substream(0))
    frng = rng.substream(1)
    particles = FILTER_METHODS[method]
    if particles:
        make_start, make_step = particles
        run = run_filter(model, obs, make_start(model.sample_prior(frng, opts["n"])),
                         make_step(model, opts["eps"]), frng)
    else:
        run = kalman_bucy_run(model, obs)
    d = model.dim_state
    return [(args.out, ResultTable(
        columns=("t",) + _entry_names("m", d) + _entry_names("s", d, d),
        rows=_time_rows(run.times, run.means, run.covs),
        metadata=table_metadata(seed, f"filter-{method}", config_hash),
    ))]


# ---------------------------------------------------------------------------
# gain-study subcommand
# ---------------------------------------------------------------------------

def cmd_gain_study(args: argparse.Namespace) -> list[tuple[str | None, ResultTable]]:
    _, opts = _read_options(args)
    cfg = RunConfig(experiment="bias-variance", seed=opts["seed"], reps=opts["reps"],
                    n_list=opts["n_list"], eps_list=opts["eps_list"],
                    bimodal_sigma2=opts["sigma2"], jobs=opts["jobs"])
    return [(args.out, gain_study_table(cfg))]


# ---------------------------------------------------------------------------
# lqr-solve subcommand
# ---------------------------------------------------------------------------

def cmd_lqr_solve(args: argparse.Namespace) -> list[tuple[str | None, ResultTable]]:
    config_hash, opts = _read_options(args)
    d, seed = opts["d"], opts["seed"]
    rng = RngStream(seed)
    lq = replace(make_lq_canonical(d, rng.substream(0)), horizon=opts["horizon"])
    if opts["oracle_only"]:
        lq = replace(lq, A=None, B=None, C=None)
    run = run_dual_enkf(lq, opts["n"], opts["dt"], rng.substream(1))

    meta = table_metadata(seed, "lqr-gain", config_hash)
    gains = ResultTable(columns=("t",) + _entry_names("k", lq.dim_input, d),
                        rows=_time_rows(run.times, run.gains), metadata=meta)
    covs = ResultTable(columns=("t",) + _entry_names("s", d, d),
                       rows=_time_rows(run.times, run.cov_path),
                       metadata=table_metadata(seed, "lqr-cov", meta["config"]))
    s_out = args.out_s or (args.out + ".s.csv" if args.out else None)
    return [(args.out, gains)] + ([(s_out, covs)] if s_out else [])


# ---------------------------------------------------------------------------
# static-update subcommand
# ---------------------------------------------------------------------------

def cmd_static_update(args: argparse.Namespace) -> list[tuple[str | None, ResultTable]]:
    config_hash, opts = _read_options(args)
    samples, method, seed = opts["samples"], opts["method"], opts["seed"]
    # JointGaussian and the maps shape the arrays and check y's length
    d, m = (len(np.atleast_2d(opts[k])) for k in ("cov_x", "cov_y"))
    try:
        jg = JointGaussian(opts.get("mean_x", np.zeros(d)), opts.get("mean_y", np.zeros(m)),
                           opts["cov_x"], opts["cov_xy"], opts["cov_y"])
        transport = ot_affine_map(jg) if samples > 0 and method == "ot" else None
    except NotPositiveDefiniteError as exc:  # an input, not a step, is refused
        raise ConfigError(f"cov_x, cov_xy and cov_y: {exc}") from exc
    rng = RngStream(seed)
    if samples < 0:
        raise ConfigError(f"samples must be >= 0, got {samples}")
    if samples > 0 and not args.sample_out:
        raise ConfigError("--samples requires --sample-out")
    mean, cov = blue_update(jg, opts["y"])

    rows = [("mean", i, 0, float(v)) for i, v in enumerate(mean)]
    rows += [("cov", i, j, float(cov[i, j])) for i in range(d) for j in range(d)]
    meta = table_metadata(seed, "static-update", config_hash)
    outputs = [(args.out, ResultTable(columns=("entry", "i", "j", "value"), rows=rows, metadata=meta))]
    if samples > 0:
        if method == "ot":
            x0, _ = jg.sample(rng, samples)
            transformed = transport(x0, opts["y"])
        else:
            transformed = perturbed_enkf_map(jg, opts["y"], rng, samples)
        outputs.append((args.sample_out, ResultTable(
            columns=_entry_names("x", d),
            rows=[tuple(float(v) for v in row) for row in transformed],
            metadata=table_metadata(seed, f"static-samples-{method}", meta["config"]))))
    return outputs


# ---------------------------------------------------------------------------
# bench subcommand
# ---------------------------------------------------------------------------

# Where an experiment's defaults differ from those of RunConfig.
_BENCH_DEFAULTS = {
    "mse-levelsets": dict(d_list=(1, 2, 3)),
    "bias-variance": dict(reps=100, n_list=(200,), eps_list=(0.02, 0.05, 0.1, 0.2, 0.5, 1.0)),
    "dual-enkf": dict(reps=10, d_list=(2,), horizon=10.0),
}


def cmd_bench(args: argparse.Namespace) -> list[tuple[str | None, ResultTable]]:
    _, opts = _read_options(args)
    cfg = RunConfig(**{**_BENCH_DEFAULTS[opts["experiment"]], **opts})
    return [(args.out, EXPERIMENTS[cfg.experiment](cfg))]


# ---------------------------------------------------------------------------
# parser and main
# ---------------------------------------------------------------------------

# Each output-path flag: its help and the subcommands that take it.
OUTPUT_FLAGS = {
    "--out": ("output CSV path (default stdout)", tuple(OPTIONS)),
    "--out-s": ("covariance-path CSV (default: <out>.s.csv; not written when neither is given)",
                ("lqr-solve",)),
    "--sample-out": ("transported samples CSV (needed by --samples)", ("static-update",)),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cips`` parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="cips",
        description="Controlled interacting particle systems: filters, gains, LQ control.",
    )
    parser.add_argument("--version", action="version", version=f"cips {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("filter", "run one filtering experiment"),
        ("gain-study", "diffusion-map gain error study"),
        ("lqr-solve", "dual ensemble LQ solve"),
        ("static-update", "Gaussian conditioning maps"),
        ("bench", "benchmark table reproduction"),
    ):
        # no prefix matching: a removed flag must not become another one
        # (gain-study's old --h would run as --help and exit 0)
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag, (path_help, commands) in OUTPUT_FLAGS.items():
            if name in commands:
                p.add_argument(flag, help=path_help)
        p.add_argument("--config", help="INI config file; flags win")
        for opt in OPTIONS[name]:
            if opt.flag:
                p.add_argument(opt.flag, dest=opt.key, default=None, **opt.kind[1])
    return parser


def _check_writable(paths) -> None:
    """Refuse each path that cannot be written as a file; nothing is created."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            why = "it is a directory"
        elif not os.path.isdir(folder):
            why = f"there is no directory {folder}"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            why = "permission denied"
        else:
            continue
        raise ConfigError(f"cannot write {path}: {why}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up at each call, not kept in the cached parser,
    # so that a wrapped module attribute is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _check_writable(getattr(args, flag[2:].replace("-", "_"), None) for flag in OUTPUT_FLAGS)
        outputs = [(path, table.to_csv()) for path, table in handler(args)]
        _check_writable(path for path, _ in outputs)
        for path, text in outputs:
            if not path:
                sys.stdout.write(text)
                continue
            try:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc}") from exc
    except ValueError as exc:  # a ConfigError, an argument check or a LinAlgError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the configuration does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
