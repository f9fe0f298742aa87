"""Every name a jsqa module lists in `__all__` must exist, so a deleted
function cannot linger as a stale export. Importing the package, parsing and
validating its inputs and `jsqa domination` load numpy only: scipy is
imported in the functions that use it, a critical `jsqa run` loads only
scipy.sparse and scipy.special, and a two-queue `jsqa oracle-check` loads no
graph search."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import jsqa
from jsqa import cli

MODULES = [f"jsqa.{m.name}" for m in pkgutil.iter_modules(jsqa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    exec(f"from {name} import *", {})


def _fresh(code: str, *args: str) -> str:
    """stdout of `code` run with `args` in a fresh interpreter that imports
    this jsqa; the run must succeed."""
    src = str(Path(jsqa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


# prints, as the last line, the scipy modules the interpreter has loaded
PRINT_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

CRITICAL_MANIFEST = {
    "regime": {
        "kind": "critical",
        "constant": 0.0,
        "alpha": 0.5,
        "base_services": [{"kind": "binomial", "trial-count": 2, "success-probability": 0.25}] * 2,
        "bound": 4,
    },
    "gammas": [1e-2, 1e-3],
    "plan": {"warmup_slots": 6000, "num_samples": 88064, "thinning": 32, "replicas": 256},
    "seed": 1,
}
# the two-queue config of acceptance criterion 2
ORACLE_CONFIG = {
    "n": 2,
    "gamma": 0.1,
    "arrivals": {"kind": "bernoulli-scaled", "support-point": 2, "success-probability": 0.2},
    "services": [{"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.25}] * 2,
}
# the single-queue config of acceptance criterion 9 at its smaller gamma
DOMINATION_CONFIG = {
    "n": 1,
    "gamma": 0.05,
    "arrivals": {"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.3},
    "services": [{"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.4}],
}


def test_import_loads_no_solver():
    # the sparse solvers and quadrature are imported where they are used,
    # so importing the package and its CLI does not pay for them
    solvers = ["scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.integrate"]
    code = f"import sys, jsqa, jsqa.cli; print([m for m in {solvers!r} if m in sys.modules])"
    assert _fresh(code).strip() == "[]"


def test_parsing_and_validation_load_no_scipy():
    code = f"""
import json, sys
import jsqa, jsqa.cli
from jsqa.model import config_from_dict, require_valid
from jsqa.simulator import default_plan
jsqa.cli.manifest_from_dict(json.loads({json.dumps(CRITICAL_MANIFEST)!r})).check()
config = config_from_dict(json.loads({json.dumps(ORACLE_CONFIG)!r}))
require_valid(config)
default_plan(config, num_samples=200_000, replicas=64)
{PRINT_SCIPY}
"""
    assert _fresh(code).strip() == "[]"


def test_domination_loads_no_scipy(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DOMINATION_CONFIG))
    argv = ["domination", str(path), "--horizon", "20000", "--seed", "3"]
    code = f"import sys\nfrom jsqa.cli import main\nmain(sys.argv[1:])\n{PRINT_SCIPY}"
    report, loaded = _fresh(code, *argv).splitlines()
    assert loaded == "[]"
    assert report.startswith("slots=20000 violations=")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == report + "\n"


def test_critical_run_loads_only_sparse_and_special(tmp_path):
    # with one gamma the point runs in this interpreter: count tables need
    # scipy.sparse and the limit laws scipy.special, while the truncated
    # Gaussian's moments load no quadrature (and with it no linalg or optimize)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(dict(CRITICAL_MANIFEST, gammas=[1e-2])))
    argv = ["run", str(path), "--out", str(tmp_path / "out")]
    code = f"import sys\nfrom jsqa.cli import main\nassert main(sys.argv[1:]) == 0\n{PRINT_SCIPY}"
    loaded = ast.literal_eval(_fresh(code, *argv).splitlines()[-1])
    subpackages = {m.split(".")[1] for m in loaded if "." in m} - {"version"}
    assert sorted(p for p in subpackages if not p.startswith("_")) == ["sparse", "special"]


def test_two_queue_oracle_check_loads_no_graph_search(tmp_path):
    # the solve checks that the kernel has one closed class by walking back
    # through the queue tables from its most likely state, not by strong
    # components
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ORACLE_CONFIG))
    argv = ["oracle-check", str(path), "--cap", "20", "--samples", "20000", "--replicas", "16",
            "--seed", "1"]
    code = f"import sys\nfrom jsqa.cli import main\nassert main(sys.argv[1:]) == 0\n{PRINT_SCIPY}"
    loaded = ast.literal_eval(_fresh(code, *argv).splitlines()[-1])
    assert "scipy.sparse.linalg" in loaded
    assert "scipy.sparse.csgraph" not in loaded
