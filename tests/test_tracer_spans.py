"""The benchmark's per-layer spans name functions of the package; a span whose
function is gone is silently reported as missing, so every one must resolve.
A span whose function is no longer called where the workloads call it reads
zero, so tiny runs of every CLI command must reach every span."""

import importlib.util
import json
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "span, module, attr", tracer.SPANS, ids=[f"{m}.{a}" for _, m, a in tracer.SPANS]
)
def test_span_resolves(span, module, attr):
    assert module.split(".")[0] == "jsqa"
    assert tracer.resolve(module, attr) is not None, f"span {span}: {module}.{attr} is gone"


SERVICES = [{"kind": "binomial", "trial-count": 2, "success-probability": 0.25}] * 2
# regime kind -> (constant, alpha)
REGIMES = {"classic": (0.2, 0.25), "critical": (0.0, 0.5), "overloaded": (0.2, 0.0)}
ORACLE_CONFIG = {
    "n": 2,
    "gamma": 0.3,
    "arrivals": {"kind": "bernoulli-scaled", "support-point": 2, "success-probability": 0.2},
    "services": [{"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.25}] * 2,
}
DOMINATION_CONFIG = {
    "n": 1,
    "gamma": 0.1,
    "arrivals": {"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.3},
    "services": [{"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.4}],
}
# the slot kernel runs through simulator._slot, not step_many, so no workload
# reaches that span
UNREACHED = {"simulator.step_many"}


def test_spans_see_the_calls_they_time(tmp_path, capsys):
    import jsqa.cli as cli

    calls = []
    for kind, (constant, alpha) in REGIMES.items():
        manifest = {
            "regime": {"kind": kind, "constant": constant, "alpha": alpha,
                       "base_services": SERVICES, "bound": 4},
            "gammas": [0.3],
            "plan": {"warmup_slots": 200, "num_samples": 2000, "thinning": 1, "replicas": 8},
            "phi_grid": [-0.5, 0.0, 0.5],
            "seed": 1,
        }
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(manifest))
        calls.append(["run", str(path), "--out", str(tmp_path / kind)])
    (tmp_path / "oracle.json").write_text(json.dumps(ORACLE_CONFIG))
    (tmp_path / "domination.json").write_text(json.dumps(DOMINATION_CONFIG))
    calls.append(["oracle-check", str(tmp_path / "oracle.json"), "--cap", "10",
                  "--samples", "2000", "--replicas", "8"])
    calls.append(["domination", str(tmp_path / "domination.json"), "--horizon", "2000"])

    trace = tracer.Tracer()
    trace.install()
    try:
        statuses = [cli.main(call) for call in calls]
    finally:
        trace.uninstall()
    assert all(s in (0, 1) for s in statuses), (statuses, capsys.readouterr().err)
    assert not trace.missing
    dark = sorted({name for name, _, _ in tracer.SPANS} - UNREACHED - set(trace.calls))
    assert not dark, f"spans that recorded no call: {dark}"
    assert not trace.unobserved
