"""Every name a jsqa module lists in `__all__` must exist, so a deleted
function cannot linger as a stale export."""

import importlib
import pkgutil

import pytest

import jsqa

MODULES = [f"jsqa.{m.name}" for m in pkgutil.iter_modules(jsqa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    exec(f"from {name} import *", {})
