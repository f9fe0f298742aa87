"""The benchmark's per-layer spans name functions of the package; a span whose
function is gone is silently reported as missing, so every one must resolve."""

import importlib.util
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
