"""The benchmark's span tracer still sees every layer it names.

``perfbench/tracer.py`` wraps functions by replacing module attributes, so
a layer that the program reaches through some other reference (an
import-time table, a bound copy) drops out of the traced benchmark without
an error.  This test imports the tracer as it is and checks both halves.
"""

import importlib
from pathlib import Path

import pytest

from cips.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_spanned_name_resolves(tracer_module):
    for module, attr in tracer_module.SPANNED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def traced_calls(tracer_module, argv):
    """Run ``cips argv`` under the tracer; the call count of every span."""
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer.self_times()[1]


@pytest.mark.parametrize("method, span", [
    ("fpf-const", "gain.constant_gain"),
    ("fpf-galerkin", "gain.galerkin_gain"),
    ("fpf-dm", "gain.diffusion_map_gain"),
])
def test_filter_gain_calls_are_traced(tracer_module, tmp_path, method, span):
    calls = traced_calls(tracer_module, ["filter", "--method", method, "--n", "50", "--T", "0.04",
                                         "--out", str(tmp_path / "o.csv")])
    assert calls[span] == 2                  # one gain per step
    assert calls["fpf.fpf_step"] == 2
    assert calls["cli.filter"] == 1


def test_bench_cells_are_traced(tracer_module, tmp_path):
    # three methods by two dimensions: one estimator call per cell
    calls = traced_calls(tracer_module, ["bench", "--experiment", "mse-levelsets", "--d-list", "1,2",
                                         "--n-list", "20", "--reps", "2",
                                         "--out", str(tmp_path / "o.csv")])
    assert calls["bench.static_pf_mse"] == 4             # pf and pf-modified
    assert calls["bench.static_fpf_mse"] == 2
    assert calls["cli.bench"] == 1


def test_gain_study_gains_are_traced(tracer_module, tmp_path):
    calls = traced_calls(tracer_module, ["gain-study", "--eps-list", "0.5,1.0", "--n-list", "20",
                                         "--reps", "3", "--out", str(tmp_path / "o.csv")])
    assert calls["gain.diffusion_map_gain"] == 2 * 3     # eps x reps
    assert calls["cli.gain-study"] == 1
