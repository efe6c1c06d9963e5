import importlib
import pkgutil

import pytest

import symineq

MODULES = ["symineq"] + [f"symineq.{m.name}" for m in pkgutil.iter_modules(symineq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
