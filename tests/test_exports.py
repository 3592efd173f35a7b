"""Public names: every exported name resolves, every function the
benchmark's tracer times (perfbench/traced_cli.py SPANS) is still there, and
every public definition is used by the package or traced."""

import ast
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


def _unreferenced_public_definitions(src: Path) -> list:
    """Public top-level functions and classes of the package's modules that
    no code in the package names outside their own definition."""
    defined, referenced = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined.append((path.stem, node.name))
            referenced |= names
    return [f"{module}.{name}" for module, name in defined if name not in referenced]


def test_public_definitions_are_used_or_traced():
    # library code that only the tests call is dead weight: use it or delete it
    traced = {f"{layer}.{name}" for layer, names in _traced_spans().items() for name in names}
    src = Path(__file__).parents[1] / "src" / "singular_yamabe"
    unused = [name for name in _unreferenced_public_definitions(src) if name not in traced]
    assert not unused, f"public definitions nothing in src/ calls: {unused}"
