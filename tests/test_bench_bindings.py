"""The benchmark's tracer wraps package functions at the module attributes
their callers look up (perfbench/tracer.py BINDINGS).  A rename in the
package would make a traced benchmark run fail at install time, so every
binding is checked here."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_binding_resolves(tracer):
    assert tracer.BINDINGS
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.BINDINGS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_install_then_uninstall_restores_the_originals(tracer):
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in tracer.BINDINGS]
    traced = tracer.Tracer()
    traced.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
    finally:
        traced.uninstall()
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)


def test_traced_pretrain_reports_every_per_layer_metric(tracer):
    """A primitive or span deleted while BENCHMARK.json still names its
    metric fails here instead of in the traced benchmark run."""
    import json
    import time

    import curvalign as ca

    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    added_by_run_py = {"data.dataset_ms", "trace.overhead_pct"}
    train = ca.make_blobs(16, 2, 4, 0.1, seed=1)
    config = ca.TrainConfig(
        architecture=ca.Architecture(4, (8,), (8, 4)), epochs=1, batch_size=16, k=3,
        metric="rbf", seed=1, augmentation=ca.AugmentationPolicy(0.05, 0.1, 0),
    )
    traced = tracer.Tracer()
    traced.install()
    try:
        traced.begin_step(time.perf_counter_ns())
        ca.pretrain(config, train, on_step=lambda *_: traced.end_step(time.perf_counter_ns()))
    finally:
        traced.uninstall()
    metrics = traced.per_layer()["metrics"]
    assert traced.steps and traced.tapes
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in added_by_run_py and m["name"] not in metrics]
    assert missing == []
