"""The benchmark's traced run wraps vaxsel functions by name: each must still exist."""

import importlib.util
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    # read the benchmark's files without writing bytecode next to them; layers.py
    # imports its sibling spans.py by bare name, as benchmark/run.py runs it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARK))
    spec = importlib.util.spec_from_file_location("benchmark_layers", BENCHMARK / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for name, module, attribute, _, _ in layers.TARGETS:
        _, function = layers.resolve(module, attribute)
        assert callable(function), name
