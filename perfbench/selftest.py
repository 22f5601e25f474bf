"""Fast self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` names exactly the workloads and metrics that run.py
   prints.
2. Every workload runs through run.py, untraced and traced, with zero failed
   operations and all checks passing.
3. Every correctness check trips when its reference (or, for a property
   check, the output it judges) is deliberately corrupted, a round that
   changes an output is caught, and a failed operation leaves no output
   from an earlier round behind.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _scale(key, factor):
    def corrupt(out, ref):
        ref[key] = ref[key] * factor
    return corrupt


def _shift(key, delta):
    def corrupt(out, ref):
        ref[key] = ref[key] + delta
    return corrupt


def _set_moment(method, which, index, value):
    def corrupt(out, ref):
        arrays = list(out["moments"][method])
        arrays[which] = arrays[which].copy()
        arrays[which][index] = value
        out["moments"][method] = tuple(arrays)
    return corrupt


def _negate_cov(method):
    def corrupt(out, ref):
        means, covs = out["moments"][method]
        covs = covs.copy()
        covs[-1] = -covs[-1]
        out["moments"][method] = (means, covs)
    return corrupt


def _shift_output(key, column, delta):
    def corrupt(out, ref):
        out[key] = out[key].copy()
        out[key][:, column] += delta
    return corrupt


def _bounds_below_zero(key):
    def corrupt(out, ref):
        ref[key] = {d: -1.0 for d in ref[key]}
    return corrupt


def _flatten_gain_study(out, ref):
    rows = out["rows"].copy()
    rows[rows[:, 0] == rows[0, 0], 3] = 0.0      # the smallest eps looks best
    out["rows"] = rows


def _drop_cell(out, ref):
    out["cells"] = dict(out["cells"])
    out["cells"].pop(("fpf", 1))


def _destabilise(out, ref):
    ref["A"] = ref["A"] + 10.0 * np.eye(ref["A"].shape[0])


# check name -> corruption, per workload; every check must appear
CORRUPTIONS = {
    "dm_filter": {
        "finite_rows": _set_moment("fpf-dm", 0, (1, 0), np.nan),
        "symmetric_psd": _negate_cov("fpf-dm"),
        "near_kalman": _shift("kb_means", 1.0),
    },
    "step_loops": {
        "finite_rows": _set_moment("sir", 1, (4, 0, 0), np.inf),
        "symmetric_psd": _set_moment("enkf-det", 1, (3, 0, 1), 0.5),
        "kalman_exact": _scale("kb_covs", 1.0 + 1e-9),
        "galerkin_is_constant": _set_moment("fpf-galerkin", 0, (5, 1), 0.123456),
        "near_kalman": _scale("kb_covs", 0.1),
    },
    "gain_study": {
        "rows": _shift_output("rows", 3, -10.0),
        "exact_gain_closed_form": _scale("exact_gain", 1.0 + 1e-5),
        "interior_minimum": _flatten_gain_study,
    },
    "levelsets": {
        "cells": _drop_cell,
        "fpf_bound": _bounds_below_zero("fpf_bound"),
        "pf_modified_closed_form": _bounds_below_zero("pf_modified_mse"),
    },
    "lqr": {
        "oracle_equals_explicit": _shift_output("oracle.csv", 1, 1e-9),
        "solve_are_matches_care": _scale("care", 1.0 + 1e-6),
        "value_mse": _scale("dre", 3.0),
        "closed_loop_stable": _destabilise,
        "dual_enkf_table": _shift_output("dual.csv", 4, 100.0),
    },
}


def check_benchmark_json() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(sorted(w["name"] for w in spec["workloads"])) == run.WORKLOAD_NAMES
    assert set(CORRUPTIONS) == set(run.WORKLOAD_NAMES)
    spec["_e2e"] = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    spec["_layer"] = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return spec


def check_runs(spec) -> None:
    for name in run.WORKLOAD_NAMES:
        for trace, expected in ((0, spec["_e2e"]), (1, spec["_layer"])):
            done = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", str(SEED),
                 "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, f"{name} trace={trace}: {done.stderr}"
            result = json.loads(done.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected, (name, trace, sorted(set(units) ^ set(expected)))
            print(f"ok  run {name} --trace {trace}: {result['attempted']} operations")


def check_corruptions(work: Path) -> None:
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED, work / name, tiny=True)
        wl.run_round(workloads.Rounds())
        assert wl.check() == [], wl.check()
        out, ref, checks = wl.load(), wl.ref, wl.checks()
        assert set(checks) == set(CORRUPTIONS[name]), (name, sorted(checks))
        for check_name, corrupt in CORRUPTIONS[name].items():
            bad_out, bad_ref = copy.deepcopy(out), copy.deepcopy(ref)
            corrupt(bad_out, bad_ref)
            msg = checks[check_name](bad_out, bad_ref)
            assert msg, f"{name}/{check_name} did not trip"
            print(f"ok  {name}/{check_name} trips: {msg}")

    wl = workloads.GainStudy(SEED, work / "changing", tiny=True)
    target = wl.path(wl.outputs[0])
    rounds = []

    def append_round_number():
        rounds.append(len(rounds))
        target.write_text(target.read_text() + f"# round {len(rounds)}\n")

    wl.ops.append(workloads.Op("append", call=append_round_number))
    rounds_run = workloads.Rounds()
    wl.run_round(rounds_run)
    wl.run_round(rounds_run)
    assert rounds_run.changed, "a changed output went unnoticed"
    print("ok  an output that changes between rounds is caught")

    wl = workloads.Levelsets(SEED, work / "failing", tiny=True)
    rounds_run = workloads.Rounds()
    wl.run_round(rounds_run)
    wl.ops[0].argv.append("--no-such-flag")
    wl.run_round(rounds_run)
    assert rounds_run.failed == 1, rounds_run
    msg = wl.check()
    assert msg and "missing output" in msg[0], msg
    print(f"ok  a failed operation leaves no stale output: {msg[0]}")


def main() -> int:
    spec = check_benchmark_json()
    work = run.OUT / f"selftest-{os.getpid()}"
    try:
        check_corruptions(work)
        check_runs(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
