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


@pytest.mark.parametrize("method, span", [
    ("fpf-const", "gain.constant_gain"),
    ("fpf-galerkin", "gain.galerkin_gain"),
    ("fpf-dm", "gain.diffusion_map_gain"),
])
def test_filter_gain_calls_are_traced(tracer_module, tmp_path, method, span):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(["filter", "--method", method, "--n", "50", "--T", "0.04",
                     "--out", str(tmp_path / "o.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    _, calls = tracer.self_times()
    assert calls[span] == 2                  # one gain per step
    assert calls["fpf.fpf_step"] == 2
    assert calls["cli.filter"] == 1
