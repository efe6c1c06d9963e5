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
    # numpy is the one runtime dependency: neither the import nor the default corpus,
    # whose mollified disks need a distance transform, loads any scipy module
    code = (
        "import sys, symineq; print('scipy.ndimage' in sys.modules); "
        "symineq.generate_corpus(symineq.CorpusSpec()); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    src = os.path.dirname(os.path.dirname(symineq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "[]"]
