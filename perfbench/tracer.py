"""Span recorder installed from outside the program, for the traced run.

Each wrapped function records a span (name, start, end, parent) in memory.
Wrappers replace the function at every ``cips`` module that holds it, so a
call through ``cips.fpf.diffusion_map_gain`` is seen as well as one through
``cips.gain.diffusion_map_gain``.  Nothing here is imported by an untraced
run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute) of every public function that gets a span.  The span
# name is "<module>.<attribute>" without the package prefix.
SPANNED = (
    ("cips.gain", "diffusion_map_gain"),
    ("cips.gain", "auto_bandwidth"),
    ("cips.gain", "exact_gain_1d"),
    ("cips.gain", "constant_gain"),
    ("cips.gain", "galerkin_gain"),
    ("cips.fpf", "fpf_step"),
    ("cips.linear_ensemble", "linear_enkf_step"),
    ("cips.linear_ensemble", "empirical_moments"),
    ("cips.sir", "bootstrap_pf_step"),
    ("cips.sir", "systematic_resample"),
    ("cips.kalman", "kalman_bucy_run"),
    ("cips.kalman", "solve_dre_backward"),
    ("cips.kalman", "solve_are"),
    ("cips.dual_enkf", "dual_enkf_backward_step"),
    ("cips.dual_enkf", "extract_gain"),
    ("cips.bench", "static_fpf_mse"),
    ("cips.bench", "static_pf_mse"),
    ("cips.models", "simulate_truth_and_observations"),
)

# Subcommand handlers of ``cips.cli``; their spans are named "cli.<subcommand>".
SUBCOMMANDS = {
    "cmd_filter": "filter",
    "cmd_gain_study": "gain-study",
    "cmd_lqr_solve": "lqr-solve",
    "cmd_bench": "bench",
}

# Spans whose tracemalloc peak a memory tracer records.
MEMORY_SPANS = ("gain.diffusion_map_gain",)

ORACLE_COUNTER = "dual_enkf.oracle_calls"


def _short(module: str) -> str:
    return module.split(".", 1)[1]


SPAN_NAMES = (
    [f"{_short(module)}.{attr}" for module, attr in SPANNED]
    + ["bench.ResultTable.to_csv"]
    + [f"cli.{sub}" for sub in SUBCOMMANDS.values()]
)


class Tracer:
    """In-memory spans and counts; ``install`` wraps, ``uninstall`` restores.

    A tracer made with ``memory=True`` also runs tracemalloc inside each of
    MEMORY_SPANS and keeps the largest peak in ``peak_bytes``.  tracemalloc
    slows every allocation, so such a tracer's span times are not reported.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            tracing_here = memory and not tracemalloc.is_tracing()
            if tracing_here:
                tracemalloc.start()
            spans[idx][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                if tracing_here:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)

        return traced

    def _counting_problem_factory(self, make):
        counts = self.counts

        @functools.wraps(make)
        def make_counted(*args, **kwargs):
            lq = make(*args, **kwargs)
            dynamics = lq.dynamics

            def counted(x, u):
                counts[ORACLE_COUNTER] += 1
                return dynamics(x, u)

            return dataclasses.replace(lq, dynamics=counted)

        return make_counted

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "cips" and not modname.startswith("cips."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import cips.bench
        import cips.cli
        import cips.models

        for modname, attr in SPANNED:
            original = getattr(sys.modules[modname], attr)
            name = f"{_short(modname)}.{attr}"
            self._replace_everywhere(original, self.span(name, original))
        for attr, sub in SUBCOMMANDS.items():
            original = getattr(cips.cli, attr)
            self._replace_everywhere(original, self.span(f"cli.{sub}", original))
        to_csv = cips.bench.ResultTable.to_csv
        self._patched.append((cips.bench.ResultTable, "to_csv", to_csv))
        cips.bench.ResultTable.to_csv = self.span("bench.ResultTable.to_csv", to_csv)
        make = cips.models.make_lq_canonical
        self._replace_everywhere(make, self._counting_problem_factory(make))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (span minus its direct children) and call count per name.

        Every name in SPAN_NAMES is present, with zeros if it was never called.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] += (end - start) - inner
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": idx, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
