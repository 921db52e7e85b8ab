"""The benchmark's per-layer metric names against the code they trace.

The traced benchmark wraps each layer's ``__all__`` callables (and
``expm`` as bound in ``epchain.dynamics``) by name, so a metric named after
a function that left ``__all__`` would silently read 0.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_metrics():
    """Names of the ``<layer>.<name>.calls`` and ``.self_s`` metrics."""
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [
        name
        for name in names
        if name.count(".") == 2
        and name.endswith((".calls", ".self_s"))
        and not name.startswith("sweeps.grid.")
    ]


def test_every_traced_metric_is_checked():
    assert len(traced_metrics()) == 21


@pytest.mark.parametrize("metric", traced_metrics())
def test_traced_name_resolves(metric):
    layer, name, _ = metric.split(".")
    module = importlib.import_module(f"epchain.{layer}")
    if (layer, name) == ("dynamics", "expm"):
        assert callable(module.expm)
    else:
        assert name in module.__all__
