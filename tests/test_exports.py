"""Every name a jsqa module lists in `__all__` must exist, so a deleted
function cannot linger as a stale export, and importing the package loads
no solver that only some commands use."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import jsqa

MODULES = [f"jsqa.{m.name}" for m in pkgutil.iter_modules(jsqa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    exec(f"from {name} import *", {})


def test_import_loads_no_solver():
    # the sparse solvers and quadrature are imported where they are used,
    # so importing the package and its CLI does not pay for them
    solvers = ["scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.integrate"]
    code = f"import sys, jsqa, jsqa.cli; print([m for m in {solvers!r} if m in sys.modules])"
    src = str(Path(jsqa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
