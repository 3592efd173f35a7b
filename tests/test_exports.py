"""Public names: every exported name resolves, and every function the
benchmark's tracer times (perfbench/traced_cli.py SPANS) is still there."""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ["singular_yamabe"] + [
    f"singular_yamabe.{name}"
    for name in ("cli", "diagnostics", "flow", "geometry", "scenario", "variational")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)


def _traced_spans():
    path = Path(__file__).parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.SPANS


def test_traced_spans_are_module_functions():
    missing = [
        f"{layer}.{fname}"
        for layer, names in _traced_spans().items()
        for fname in names
        if not callable(getattr(importlib.import_module(f"singular_yamabe.{layer}"),
                                fname, None))
    ]
    assert not missing, f"functions the benchmark traces are gone: {missing}"
