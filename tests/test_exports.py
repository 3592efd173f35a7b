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


def _unpassed_defaulted_parameters(sources: list) -> list:
    """Defaulted parameters of the package's public top-level functions that
    no call in ``sources`` passes, by position or by keyword; a call is
    matched to a function by its name or attribute."""
    functions, calls = [], {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "singular_yamabe":
            functions += [(path.stem, node) for node in tree.body
                          if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                calls.setdefault(name, []).append(call)

    def passes(call, position, name):
        keywords = {kw.arg for kw in call.keywords}
        by_position = position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))
        return by_position or name in keywords or None in keywords

    unpassed = []
    for module, node in functions:
        spec = node.args
        positional = spec.posonlyargs + spec.args
        defaulted = [(k, arg.arg) for k, arg in enumerate(positional)
                     if k >= len(positional) - len(spec.defaults)]
        defaulted += [(None, arg.arg) for arg, default in zip(spec.kwonlyargs, spec.kw_defaults)
                      if default is not None]
        unpassed += [f"{module}.{node.name}.{name}" for position, name in defaulted
                     if not any(passes(call, position, name) for call in calls.get(node.name, ()))]
    return unpassed


def test_defaulted_parameters_are_passed():
    # an option no caller sets is a constant in disguise: make it one
    root = Path(__file__).parents[1]
    sources = sorted((root / "src" / "singular_yamabe").glob("*.py"))
    unpassed = _unpassed_defaulted_parameters(sources + [root / "perfbench" / "traced_cli.py"])
    assert not unpassed, f"defaulted parameters no call in src/ or the tracer passes: {unpassed}"
