import importlib
import pkgutil

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
