import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import symineq

MODULES = ["symineq"] + [f"symineq.{m.name}" for m in pkgutil.iter_modules(symineq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_import_leaves_scipy_ndimage_unloaded():
    # the distance transform imports it on first use; it is most of the import time
    code = "import sys, symineq; print('scipy.ndimage' in sys.modules)"
    src = os.path.dirname(os.path.dirname(symineq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
