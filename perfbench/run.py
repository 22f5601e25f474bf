"""Run one cips benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload dm_filter --seed 0 --seconds 20 --trace 0

Run from the root of a cips checkout; the program is imported from its
``src/``.  The untraced run (``--trace 0``) repeats whole rounds of the
workload's operations for ``--seconds`` and prints the end-to-end metrics.
The traced run (``--trace 1``) first runs one round that records only the
gain's tracemalloc peak, then alternates untraced rounds with rounds in which
the program's layer functions are wrapped; it prints the per-layer metrics,
per traced round, and the tracing overhead, and writes the spans to
``.perfbench_out/``.  The last line of stdout is the result object.
"""

import time

SETUP_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on a small shared machine a second thread buys little and
# makes timings depend on the neighbours.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("dm_filter", "gain_study", "levelsets", "lqr", "step_loops")

# Spans whose call count per traced round is a per-layer metric.
PER_LAYER_CALLS = (
    "gain.diffusion_map_gain", "fpf.fpf_step", "linear_ensemble.linear_enkf_step",
    "linear_ensemble.empirical_moments", "sir.systematic_resample",
    "dual_enkf.dual_enkf_backward_step",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(tracer, memory, plain, traced) -> dict:
    self_s, calls = tracer.self_times()
    rounds = traced.count
    metrics = {f"{name}.s": metric(s / rounds, "s") for name, s in self_s.items()}
    metrics.update({f"{name}.calls": metric(calls[name] / rounds, "count")
                    for name in PER_LAYER_CALLS})
    metrics["gain.diffusion_map_gain.peak_mb"] = metric(
        memory.peak_bytes.get("gain.diffusion_map_gain", 0) / 2**20, "MB")
    metrics["dual_enkf.oracle_calls"] = metric(
        tracer.counts.get("dual_enkf.oracle_calls", 0) / rounds, "count")
    overhead = traced.typical_round() - plain.typical_round()
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.overhead_pct"] = metric(100.0 * overhead / plain.typical_round(), "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work, tiny=args.tiny)
        setup_s = time.perf_counter() - SETUP_START

        if args.trace:
            from tracer import Tracer

            # tracemalloc slows every allocation, so the gain's memory peak
            # is taken in a round of its own, whose spans are not reported.
            probe, memory = workloads.Rounds(), Tracer(memory=True)
            memory.install()
            try:
                workload.run_round(probe)
            finally:
                memory.uninstall()
            # Untraced and traced rounds alternate, so that a change in the
            # machine's speed during the run does not pass for overhead.
            plain, traced, tracer = workloads.Rounds(), workloads.Rounds(), Tracer()
            start = time.perf_counter()
            while not plain.count or time.perf_counter() - start < args.seconds:
                workload.run_round(plain)
                tracer.install()
                try:
                    workload.run_round(traced)
                finally:
                    tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            runs = (probe, plain, traced)
            metrics = traced_metrics(tracer, memory, plain, traced)
        else:
            plain = workload.run_rounds(seconds=args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            runs = (plain,)
            metrics = {
                "particle_steps_per_s": metric(
                    workload.particle_steps / plain.typical_round(), "1/s"),
                "setup_s": metric(setup_s, "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }

        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        failures = workload.check()
        failures += [f"{args.workload}: outputs changed in {c}" for r in runs for c in r.changed]
        if failed:
            failures.append(f"{args.workload}: {failed} of {attempted} operations failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
