"""The five workloads: their `cips` operations, sizes, references and checks.

Each workload is built from a seed and a work directory.  Building it (the
set-up) writes the config file and does the program's own preparation; a
round runs its operations once, each a ``cips.cli.main(argv)`` call as a user
would type it (``lqr`` adds one library call); ``check`` compares the outputs
of the last round against references that are computed only then, after the
timed phase.  The program is imported from ``src/`` of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cips" / "__init__.py").is_file():
    raise ImportError(f"no cips source under {SRC}; run from the root of a cips checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cips  # noqa: E402
import cips.bench  # noqa: E402
import cips.cli  # noqa: E402
import cips.core  # noqa: E402
import cips.exceptions  # noqa: E402
import cips.kalman  # noqa: E402
import cips.models  # noqa: E402

if not Path(cips.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"cips was imported from {cips.__file__}, not from {SRC}")

DT = 0.02

# The 2-D linear model of the project README (``cips filter --config``).
LINEAR_MODEL = {
    "a_matrix": [[-1.0, 0.5], [-0.5, -1.0]],
    "h_matrix": [[1.0, 0.0]],
    "sigma_b": [[0.5, 0.0], [0.0, 0.5]],
    "m0": [1.0, -1.0],
    "sigma0_matrix": [[1.0, 0.0], [0.0, 1.0]],
}

# Statistical tolerances, set at about twice the largest figure measured over
# seeds 0-25 (README).  Errors that shrink like 1/sqrt(N) or 1/N get a
# tolerance that scales the same way, so the tiny self-test sizes use the
# same rule.
MEAN_ERR_TOL = 4.0          # time-mean of sqrt(N) |Sigma^-1/2 (m_N - m_KB)| / sqrt(d)
COV_ERR_COEF = 10.0         # max_t |S_N - S_KB|_F / |S_KB|_F <= COV_ERR_COEF / sqrt(N)
VALUE_MSE_COEF = 10.0       # relative value MSE <= VALUE_MSE_COEF / N
ROUNDING = 1e-12            # "equal to rounding": max |a - b| <= ROUNDING * (1 + max |b|)
EXACT_GAIN_TOL = 1e-6       # exact_gain_1d table against the closed form
READ_SDS = 6.0


@dataclass
class Op:
    """One attempted operation: a `cips` command line, or a library call."""

    label: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None

    def run(self, results: dict) -> bool:
        """Run once; False when the command exits nonzero or the call raises."""
        try:
            if self.argv is not None:
                return cips.cli.main(self.argv) == 0
            results[self.label] = self.call()
        except SystemExit as exc:        # argparse rejects an argv with exit code 2
            return exc.code in (0, None)
        except Exception:  # a traceback is a failed operation, not a crashed benchmark
            print(f"{self.label} raised:", file=sys.stderr)
            traceback.print_exc()
            return False
        return True


@dataclass
class Rounds:
    """Wall time of each operation in each round, and operations attempted and failed."""

    op_times: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    changed: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return min((len(t) for t in self.op_times.values()), default=0)

    def typical_round(self) -> float:
        """Sum over the operations of each one's median time.

        One slow call of one operation moves this less than it moves the
        median of whole-round times.
        """
        return sum(median(t) for t in self.op_times.values())


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a `cips` CSV, skipping its '#' metadata lines."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def numeric_csv(path: Path) -> np.ndarray:
    return np.array(read_csv(path)[1], dtype=float)


def moments_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Means (K+1, d) and covariances (K+1, d, d) of a `cips filter` CSV."""
    table = numeric_csv(path)
    d = int(round((-1 + np.sqrt(1 + 4 * (table.shape[1] - 1))) / 2))
    return table[:, 1:1 + d], table[:, 1 + d:].reshape(-1, d, d)


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


class Workload:
    """Base: sizes, work directory, operations, outputs and checks."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.results: dict = {}          # return values of library calls
        self._digests: dict[str, str] | None = None
        work.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.work / name

    def cli(self, label: str, *argv: str, out: str) -> Op:
        return Op(label, argv=[*argv, "--seed", str(self.seed), "--out", str(self.path(out))])

    # filled in by each workload
    ops: list[Op]
    outputs: tuple[str, ...]            # files a round writes, in ``work``
    particle_steps: int                 # per round, from the configuration

    @functools.cached_property
    def ref(self) -> dict:
        """References the checks compare against, computed on first use."""
        import refs

        return self.references(refs)

    def references(self, refs) -> dict:
        raise NotImplementedError

    def load(self) -> dict:
        raise NotImplementedError

    def checks(self) -> dict[str, Callable[[dict, dict], str | None]]:
        raise NotImplementedError

    def run_round(self, into: Rounds) -> None:
        """Run every operation once, recording into ``into``.

        The previous round's outputs are removed first, so a failed
        operation cannot leave them behind.  Every round must leave the same
        output bytes as the first round this workload ran; a round that does
        not is listed in ``changed``.
        """
        for name in self.outputs:
            self.path(name).unlink(missing_ok=True)
        self.results.clear()
        for op in self.ops:
            t0 = time.perf_counter()
            ok = op.run(self.results)
            into.op_times.setdefault(op.label, []).append(time.perf_counter() - t0)
            into.attempted += 1
            into.failed += not ok
        digests = {name: hashlib.sha256(self.path(name).read_bytes()).hexdigest()
                   for name in self.outputs if self.path(name).exists()}
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            into.changed.append(f"round {into.count}")

    def run_rounds(self, seconds: float) -> Rounds:
        """Whole rounds, at least one, until ``seconds`` have passed."""
        out = Rounds()
        start = time.perf_counter()
        while not out.count or time.perf_counter() - start < seconds:
            self.run_round(out)
        return out

    def check(self) -> list[str]:
        """Messages of the checks that fail on the outputs of the last round."""
        try:
            out = self.load()
        except (FileNotFoundError, KeyError) as exc:
            return [f"{self.name}: missing output {exc}"]
        ref = self.ref
        return [f"{self.name}/{name}: {msg}" for name, check in self.checks().items()
                if (msg := check(out, ref))]


# ---------------------------------------------------------------------------
# Filter runs on the linear model: dm_filter and step_loops
# ---------------------------------------------------------------------------

def _finite_rows(steps: int):
    def check(out, ref):
        for method, (means, covs) in out["moments"].items():
            if means.shape[0] != steps + 1:
                return f"{method}: {means.shape[0]} rows, expected {steps + 1}"
            if not (np.all(np.isfinite(means)) and np.all(np.isfinite(covs))):
                return f"{method}: nonfinite entries"
        return None
    return check


def _symmetric_psd(out, ref):
    for method, (_, covs) in out["moments"].items():
        scale = 1.0 + np.max(np.abs(covs))
        if np.max(np.abs(covs - covs.transpose(0, 2, 1))) > ROUNDING * scale:
            return f"{method}: covariance not symmetric"
        lowest = np.linalg.eigvalsh(0.5 * (covs + covs.transpose(0, 2, 1))).min()
        if lowest < -ROUNDING * scale:
            return f"{method}: covariance eigenvalue {lowest:.3e} < 0"
    return None


def filter_errors(means, covs, kb_means, kb_covs, n: int) -> tuple[float, float]:
    """Time-mean normalised mean error and worst relative covariance error."""
    d = kb_means.shape[1]
    chol = np.linalg.cholesky(kb_covs)
    white = np.linalg.solve(chol, (means - kb_means)[..., None])[..., 0]
    mean_err = float(np.mean(np.sqrt(n * np.sum(white**2, axis=1) / d)))
    cov_err = float(np.max(np.linalg.norm(covs - kb_covs, axis=(1, 2))
                           / np.linalg.norm(kb_covs, axis=(1, 2))))
    return mean_err, cov_err


def _near_kalman(methods: tuple[str, ...], n: int):
    def check(out, ref):
        cov_tol = COV_ERR_COEF / np.sqrt(n)
        for method in methods:
            means, covs = out["moments"][method]
            mean_err, cov_err = filter_errors(means, covs, ref["kb_means"], ref["kb_covs"], n)
            if mean_err > MEAN_ERR_TOL:
                return f"{method}: normalised mean error {mean_err:.3g} > {MEAN_ERR_TOL}"
            if cov_err > cov_tol:
                return f"{method}: covariance error {cov_err:.3g} > {cov_tol:.3g}"
        return None
    return check


class _LinearFilterWorkload(Workload):
    methods: tuple[str, ...] = ()
    extra: tuple[str, ...] = ()         # flags after --method
    n: int
    horizon: float

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.steps = int(round(self.horizon / DT))
        config = self.path("linear.ini")
        config.write_text("\n".join(["[model]", "model = linear"] + [
            f"{key} = {value}" for key, value in LINEAR_MODEL.items()]) + "\n")
        self.outputs = tuple(f"{m}.csv" for m in self.methods)
        self.ops = [
            self.cli(m, "filter", "--config", str(config), "--method", m, *self.extra,
                     "--n", str(self.n), "--dt", str(DT), "--T", str(self.horizon),
                     out=f"{m}.csv")
            for m in self.methods
        ]
        self.particle_steps = sum(m != "kalman" for m in self.methods) * self.n * self.steps

    def references(self, refs):
        incs = refs.linear_observations(LINEAR_MODEL, self.seed, DT, self.steps)
        kb_means, kb_covs = refs.kalman_bucy(LINEAR_MODEL, incs, DT)
        return {"kb_means": kb_means, "kb_covs": kb_covs}

    def load(self):
        return {"moments": {m: moments_csv(self.path(f"{m}.csv")) for m in self.methods}}


class DmFilter(_LinearFilterWorkload):
    name = "dm_filter"
    methods = ("fpf-dm",)
    extra = ("--eps", "auto")

    def __init__(self, seed, work, tiny=False):
        # One step, so the gain is computed on the prior ensemble.  Later
        # steps can isolate particles and make the gain solve singular at
        # some seeds (CHANGES.md, FOUND lines).
        self.n, self.horizon = (100 if tiny else 1000), DT
        super().__init__(seed, work)

    def checks(self):
        return {
            "finite_rows": _finite_rows(self.steps),
            "symmetric_psd": _symmetric_psd,
            "near_kalman": _near_kalman(self.methods, self.n),
        }


class StepLoops(_LinearFilterWorkload):
    name = "step_loops"
    methods = ("kalman", "enkf-sqrt", "enkf-perturbed", "enkf-det", "sir",
               "fpf-const", "fpf-galerkin")

    def __init__(self, seed, work, tiny=False):
        self.n, self.horizon = (100, 0.5) if tiny else (1000, 10.0)
        super().__init__(seed, work)

    def checks(self):
        particles = tuple(m for m in self.methods if m != "kalman")
        return {
            "finite_rows": _finite_rows(self.steps),
            "symmetric_psd": _symmetric_psd,
            "kalman_exact": _kalman_exact,
            "galerkin_is_constant": _galerkin_is_constant,
            "near_kalman": _near_kalman(particles, self.n),
        }


def _kalman_exact(out, ref):
    means, covs = out["moments"]["kalman"]
    err = max(_max_rel(means, ref["kb_means"]), _max_rel(covs, ref["kb_covs"]))
    return None if err <= ROUNDING else f"differs from the Kalman-Bucy recursion by {err:.3e}"


def _galerkin_is_constant(out, ref):
    gm, gc = out["moments"]["fpf-galerkin"]
    cm, cc = out["moments"]["fpf-const"]
    err = max(_max_rel(gm, cm), _max_rel(gc, cc))
    return None if err <= ROUNDING else f"differs from fpf-const by {err:.3e}"


# ---------------------------------------------------------------------------
# gain_study
# ---------------------------------------------------------------------------

class GainStudy(Workload):
    name = "gain_study"
    sigma2 = 0.2
    eps_list = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work)
        self.n, self.reps = (50, 8) if tiny else (200, 100)
        density = cips.models.make_bimodal(self.sigma2)
        grid, table = cips.bench.exact_gain_table(density)
        # The study reads the table only where particles land: within
        # READ_SDS component standard deviations of a mode.  Farther out the
        # table misses the closed form by up to 1.8e-6 (see README.md).
        read = np.min(np.abs(grid[:, None] - density.means), axis=1) <= (
            READ_SDS * np.sqrt(self.sigma2))
        self.exact_grid, self.exact_table = grid[read], table[read]
        self.outputs = ("gains.csv",)
        self.ops = [self.cli(
            "gain-study", "gain-study", "--sigma2", str(self.sigma2),
            "--eps-list", ",".join(map(str, self.eps_list)), "--n-list", str(self.n),
            "--reps", str(self.reps), out="gains.csv")]
        self.particle_steps = len(self.eps_list) * self.reps * self.n

    def references(self, refs):
        return {"exact_gain": refs.bimodal_gain(self.exact_grid, self.sigma2)}

    def load(self):
        rows = numeric_csv(self.path("gains.csv"))
        return {"rows": rows, "exact_table": self.exact_table}

    def checks(self):
        return {
            "rows": self._rows,
            "exact_gain_closed_form": _exact_gain_closed_form,
            "interior_minimum": self._interior_minimum,
        }

    def _rows(self, out, ref):
        rows = out["rows"]
        if rows.shape != (len(self.eps_list) * self.reps, 4):
            return f"table shape {rows.shape}"
        if not np.all(np.isfinite(rows[:, 3])) or np.any(rows[:, 3] < 0):
            return "MSE column not finite and nonnegative"
        return None

    def _interior_minimum(self, out, ref):
        rows = out["rows"]
        curve = [rows[rows[:, 0] == eps, 3].mean() for eps in self.eps_list]
        best = int(np.argmin(curve))
        if best in (0, len(curve) - 1):
            return f"mean MSE over eps {np.round(curve, 5).tolist()} has its minimum at an end"
        return None


def _exact_gain_closed_form(out, ref):
    err = float(np.max(np.abs(out["exact_table"] - ref["exact_gain"])))
    if err <= EXACT_GAIN_TOL:
        return None
    return f"exact_gain_1d table off the closed form by {err:.3e}"


# ---------------------------------------------------------------------------
# levelsets
# ---------------------------------------------------------------------------

class Levelsets(Workload):
    name = "levelsets"
    methods = ("pf", "pf-modified", "fpf")

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work)
        self.d_list, self.n, self.reps = ((1, 2), 100, 40) if tiny else ((1, 2, 3), 1000, 300)
        self.outputs = ("levelsets.csv",)
        self.ops = [self.cli(
            "bench mse-levelsets", "bench", "--experiment", "mse-levelsets",
            "--d-list", ",".join(map(str, self.d_list)), "--n-list", str(self.n),
            "--reps", str(self.reps), "--dt", str(DT), out="levelsets.csv")]
        steps = int(round(1.0 / DT))
        self.particle_steps = len(self.d_list) * self.reps * self.n * (1 + 1 + steps)

    def references(self, refs):
        return {
            "fpf_bound": {d: refs.fpf_mse_bound(d, self.n) for d in self.d_list},
            "pf_modified_mse": {d: refs.modified_pf_mse(d, self.n) for d in self.d_list},
        }

    def load(self):
        _, rows = read_csv(self.path("levelsets.csv"))
        return {"cells": {(r[0], int(r[1])): (float(r[3]), float(r[4])) for r in rows}}

    def checks(self):
        return {"cells": self._cells, "fpf_bound": _fpf_bound,
                "pf_modified_closed_form": _pf_modified_closed_form}

    def _cells(self, out, ref):
        expected = {(m, d) for m in self.methods for d in self.d_list}
        if set(out["cells"]) != expected:
            return f"cells {sorted(out['cells'])}, expected {sorted(expected)}"
        for key, (mse, se) in out["cells"].items():
            if not (np.isfinite(mse) and np.isfinite(se) and mse > 0 and se > 0):
                return f"cell {key}: mse {mse}, stderr {se}"
        return None


def _fpf_bound(out, ref):
    for d, bound in ref["fpf_bound"].items():
        mse, se = out["cells"][("fpf", d)]
        if mse > bound + 3 * se:
            return f"d={d}: fpf MSE {mse:.4g} > bound {bound:.4g} + 3 se ({se:.2g})"
    return None


def _pf_modified_closed_form(out, ref):
    for d, exact in ref["pf_modified_mse"].items():
        mse, se = out["cells"][("pf-modified", d)]
        if mse > exact + 3 * se:
            return f"d={d}: pf-modified MSE {mse:.4g} > closed form {exact:.4g} + 3 se ({se:.2g})"
    return None


# ---------------------------------------------------------------------------
# lqr
# ---------------------------------------------------------------------------

class Lqr(Workload):
    name = "lqr"
    d = 2

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work)
        self.n, self.horizon, self.reps = (40, 1.0, 2) if tiny else (1000, 5.0, 3)
        self.steps = int(round(self.horizon / DT))
        lq = cips.models.make_lq_canonical(self.d, cips.core.RngStream(seed).substream(0))
        self.lq = replace(lq, horizon=self.horizon)
        common = ("--d", str(self.d), "--n", str(self.n), "--dt", str(DT), "--T", str(self.horizon))
        self.outputs = ("oracle.csv", "oracle.csv.s.csv", "explicit.csv",
                        "explicit.csv.s.csv", "dual.csv")
        self.ops = [
            self.cli("lqr-solve --oracle-only", "lqr-solve", *common, "--oracle-only",
                     out="oracle.csv"),
            self.cli("lqr-solve", "lqr-solve", *common, out="explicit.csv"),
            self.cli("bench dual-enkf", "bench", "--experiment", "dual-enkf",
                     "--d-list", str(self.d), "--n-list", str(self.n), "--reps", str(self.reps),
                     "--dt", str(DT), "--T", str(self.horizon), out="dual.csv"),
            Op("solve_are", call=lambda: cips.kalman.solve_are(self.lq)),
        ]
        self.particle_steps = (2 + self.reps) * self.n * self.steps

    def references(self, refs):
        A, B, C, R = self.lq.A, self.lq.B, self.lq.C, self.lq.R
        times = DT * np.arange(self.steps + 1)
        return {
            "A": A, "B": B,
            "care": refs.care(A, B, C, R),
            "dre": refs.dre_path(A, B, C, R, self.lq.P_T, times),
        }

    def load(self):
        out = {name: numeric_csv(self.path(name)) for name in self.outputs}
        out["solve_are"] = self.results["solve_are"]
        return out

    def checks(self):
        return {
            "oracle_equals_explicit": _oracle_equals_explicit,
            "solve_are_matches_care": _solve_are_matches_care,
            "value_mse": self._value_mse,
            "closed_loop_stable": _closed_loop_stable,
            "dual_enkf_table": self._dual_enkf_table,
        }

    def _value_mse(self, out, ref):
        s_path = out["explicit.csv.s.csv"][:, 1:].reshape(-1, self.d, self.d)
        if s_path.shape[0] != self.steps + 1:
            return f"{s_path.shape[0]} covariance rows, expected {self.steps + 1}"
        p_ens = np.linalg.inv(s_path)
        dre = ref["dre"]
        ratios = (np.sum((dre - p_ens) ** 2, axis=(1, 2)) / np.sum(dre**2, axis=(1, 2)))
        rel = float(np.trapezoid(ratios, dx=DT) / self.horizon)
        level = VALUE_MSE_COEF / self.n
        return None if rel <= level else f"relative value MSE {rel:.3e} > {level:.3e}"

    def _dual_enkf_table(self, out, ref):
        rows = out["dual.csv"]
        if rows.shape != (self.reps, 5) or not np.all(np.isfinite(rows)):
            return f"table shape {rows.shape} or nonfinite entries"
        level = VALUE_MSE_COEF / self.n
        if np.any(rows[:, 3] <= 0) or np.any(rows[:, 3] > level):
            return f"rel_mse {rows[:, 3].tolist()} outside (0, {level:.3e}]"
        if np.any(rows[:, 4] >= 0):
            return f"spectral abscissa {rows[:, 4].tolist()} not negative"
        return None


def _oracle_equals_explicit(out, ref):
    err = max(_max_rel(out["oracle.csv"], out["explicit.csv"]),
              _max_rel(out["oracle.csv.s.csv"], out["explicit.csv.s.csv"]))
    return None if err <= ROUNDING else f"oracle-only run differs by {err:.3e}"


def _solve_are_matches_care(out, ref):
    P, care = out["solve_are"], ref["care"]
    err = float(np.linalg.norm(P - care) / np.linalg.norm(care))
    return None if err <= 1e-8 else f"solve_are off scipy's CARE by {err:.3e} relative"


def _closed_loop_stable(out, ref):
    gain0 = out["explicit.csv"][0, 1:].reshape(ref["B"].shape[1], -1)
    abscissa = float(np.max(np.linalg.eigvals(ref["A"] + ref["B"] @ gain0).real))
    return None if abscissa < 0 else f"closed-loop spectral abscissa {abscissa:.3g} >= 0"


WORKLOADS = {w.name: w for w in (DmFilter, GainStudy, Levelsets, Lqr, StepLoops)}
