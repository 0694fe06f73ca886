import importlib
import pkgutil
from pathlib import Path

import pytest

import fourierpath

MODULES = ["fourierpath", *(f"fourierpath.{info.name}"
                            for info in pkgutil.iter_modules(fourierpath.__path__)
                            if info.name != "__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_traced_benchmark_boundaries_resolve(monkeypatch):
    # constructing the tracer resolves every instrumented package function
    # and raises BoundaryError for one a refactor removed or renamed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    assert set(tracer.stats) == set(tracing.BOUNDARIES)
