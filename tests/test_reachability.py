"""Every ``def`` of ``cips`` is run by a command or by named library API.

A fresh interpreter installs a profiler, imports ``cips.cli`` and runs a tiny
version of every subcommand: all eight ``filter`` methods on the static and
the linear model (the latter from a config file), a numeric ``--eps``, a
``sir`` run that resamples, ``gain-study``, ``lqr-solve`` plain and
``--oracle-only``, both ``static-update`` samplers and all three ``bench``
experiments.  It then calls each function listed in ALLOWED, which no
command runs, once on a tiny input, so that its helpers count as reached.
Every function, method, property and nested function must be reached;
dunder methods and lambdas are exempt.  The oracles and identities that
only the tests use live in ``tests/oracles.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

# Library API that no command runs; the script calls each once after the commands.
ALLOWED = {
    "gain.auto_bandwidth": "the bandwidth rule as API; diffusion_map_gain applies it to its own "
                           "distances, and the perfbench tracer spans it",
    "kalman.solve_are": "the stationary Riccati solution as API; the perfbench lqr workload "
                        "calls it",
}

SCRIPT = r"""
import functools, importlib, inspect, json, os, pkgutil, sys
import numpy as np

called = set()

def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(record)
import cips
from cips.cli import main

out = sys.argv[1]
model = os.path.join(out, "linear.ini")
with open(model, "w") as fh:
    fh.write("[model]\nmodel = linear\na_matrix = [[-1.0, 0.5], [-0.5, -1.0]]\n"
             "h_matrix = [[1.0, 0.0]]\nsigma_b = [[0.5, 0.0], [0.0, 0.5]]\n"
             "m0 = [1.0, -1.0]\nsigma0_matrix = [[1.0, 0.0], [0.0, 1.0]]\n")
tiny = ["--n", "40", "--dt", "0.05", "--T", "0.25"]
runs = []
for method in ("kalman", "fpf-const", "fpf-galerkin", "fpf-dm", "sir",
               "enkf-sqrt", "enkf-perturbed", "enkf-det"):
    runs.append(["filter", "--model", "static", "--d", "2", "--method", method] + tiny)
    runs.append(["filter", "--config", model, "--method", method] + tiny)
runs += [
    ["filter", "--method", "fpf-dm", "--eps", "0.5"] + tiny,
    # sharp observations collapse the weights, so the SIR run resamples
    ["filter", "--model", "static", "--d", "2", "--method", "sir", "--sigma-w", "0.2"] + tiny,
    ["gain-study", "--eps-list", "0.5", "--n-list", "20", "--reps", "2"],
    ["lqr-solve", "--d", "2", "--n", "10", "--dt", "0.05", "--T", "0.2"],
    ["lqr-solve", "--d", "2", "--n", "10", "--dt", "0.05", "--T", "0.2", "--oracle-only"],
    ["bench", "--experiment", "mse-levelsets", "--reps", "2", "--n-list", "10", "--d-list", "1"],
    ["bench", "--experiment", "bias-variance", "--reps", "2", "--n-list", "20", "--eps-list", "0.5"],
    ["bench", "--experiment", "dual-enkf", "--reps", "1", "--n-list", "10", "--d-list", "2",
     "--dt", "0.05", "--T", "0.2"],
]
for method in ("ot", "perturbed"):
    runs.append(["static-update", "--cov-x", "[[1.0, 0.3], [0.3, 2.0]]", "--cov-xy", "[[1.0], [0.5]]",
                 "--cov-y", "[[2.0]]", "--y", "[2.0]", "--method", method, "--samples", "5",
                 "--sample-out", os.path.join(out, method + ".samples.csv")])
codes = [main(argv + ["--out", os.path.join(out, "%d.csv" % k)]) for k, argv in enumerate(runs)]
by_commands = set(called)
from cips.core import RngStream
from cips.gain import auto_bandwidth
from cips.kalman import solve_are
from cips.models import make_lq_canonical
auto_bandwidth(np.arange(6.0).reshape(3, 2))
solve_are(make_lq_canonical(2, RngStream(0)))
sys.setprofile(None)


def top_level(module):
    # the code of each function and class member defined in the module
    for obj in vars(module).values():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__code__
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                if isinstance(attr, property):
                    yield from (f.__code__ for f in (attr.fget, attr.fset, attr.fdel) if f)
                elif isinstance(attr, functools.cached_property):
                    yield attr.func.__code__
                elif inspect.isfunction(attr):
                    yield attr.__code__


def nested(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from nested(const)


defs, unreached, by_commands_defs = [], [], []
for info in pkgutil.iter_modules(cips.__path__):
    module = importlib.import_module("cips." + info.name)
    for code in (c for top in top_level(module) for c in nested(top)):
        name = code.co_name
        if code.co_filename != module.__file__:
            continue                                   # made by dataclasses
        if name.startswith("<") or (name.startswith("__") and name.endswith("__")):
            continue                                   # lambdas, comprehensions, dunders
        qualname = info.name + "." + code.co_qualname
        defs.append(qualname)
        if code not in called:
            unreached.append(qualname)
        elif code in by_commands:
            by_commands_defs.append(qualname)
print(json.dumps({"codes": codes, "defs": defs, "unreached": unreached,
                  "by_commands": by_commands_defs}))
"""


def test_every_def_is_reached(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(report["codes"]), proc.stderr
    assert set(ALLOWED) <= set(report["defs"])
    assert set(ALLOWED).isdisjoint(report["by_commands"]), "a command runs it: drop it from ALLOWED"
    assert sorted(report["unreached"]) == []
