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
