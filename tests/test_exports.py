"""Public names: a module's public names are its top-level definitions
without a leading underscore, with no ``__all__`` to list them again, the
package root loads no layer, each command loads only the layers it runs,
only a scenario file outside the one-line-per-section form loads PyYAML,
the front end loads neither a numeric layer nor PyYAML, every function the
benchmark's tracer times (perfbench/traced_cli.py SPANS) is still there,
every public definition is used by the package or traced, and only
geometry's builders construct a model."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest


def _export_lists(src: Path) -> list:
    """Lines of the package's modules that name ``__all__``."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and node.id == "__all__"]


def test_no_module_lists_its_names_again():
    # a public name is declared once, by its definition: a hand-kept list
    # beside it drifts from the code, as flow's and geometry's did
    src = Path(__file__).parents[1] / "src" / "singular_yamabe"
    assert {"flow.py", "geometry.py", "variational.py"} <= {p.name for p in src.glob("*.py")}
    lists = _export_lists(src)
    assert not lists, f"modules that keep an __all__: {lists}"


def test_package_import_loads_no_submodule():
    # the package root holds a docstring and __version__; callers import the
    # layer they use, so no re-export facade grows back
    root = str(Path(importlib.import_module("singular_yamabe").__file__).parents[1])
    code = (f"import sys\nsys.path.insert(0, {root!r})\nimport singular_yamabe\n"
            "print(sorted(m for m in sys.modules if m.startswith('singular_yamabe.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# command -> modules its process must not load: report and validate read no
# scenario file, and each command imports only the solver layers it runs (on
# the sphere, eigen solves its pencil without a flow state)
_NOT_LOADED = {
    "validate": {"yaml"},
    "report": {"yaml", "singular_yamabe.variational"},
    "flow": {"singular_yamabe.variational", "singular_yamabe.diagnostics"},
    "yamabe": {"singular_yamabe.flow", "singular_yamabe.diagnostics"},
    "eigen": {"singular_yamabe.flow", "singular_yamabe.diagnostics"},
}


@pytest.mark.parametrize("command", list(_NOT_LOADED))
def test_command_loads_only_the_layers_it_runs(tmp_path, command):
    import yaml

    from singular_yamabe import cli

    run_dir = tmp_path / "run"
    flow_cfg, sphere_cfg = tmp_path / "flow.yaml", tmp_path / "sphere.yaml"
    flow_cfg.write_text(yaml.safe_dump({"grid": {"n_cells": 32},
                                        "time": {"t_end": 1e-3, "snapshot_every": 0.0},
                                        "output": {"dir": str(run_dir)}}))
    sphere_cfg.write_text(yaml.safe_dump({"model": {"type": "sphere", "n": 4},
                                          "grid": {"n_cells": 32},
                                          "output": {"dir": str(tmp_path / "sphere")}}))
    if command == "report":
        assert cli.main(["flow", str(flow_cfg), "--quiet"]) == 0
    argv = {"validate": ["validate", "--quiet"], "report": ["report", str(run_dir), "--quiet"],
            "flow": ["flow", str(flow_cfg), "--quiet"],
            "yamabe": ["yamabe", str(sphere_cfg), "--quiet"],
            "eigen": ["eigen", str(sphere_cfg), "--quiet"]}[command]
    root = str(Path(importlib.import_module("singular_yamabe").__file__).parents[1])
    code = (f"import sys\nsys.path.insert(0, {root!r})\nfrom singular_yamabe.cli import main\n"
            f"code = main({argv!r})\nprint(code, *sorted(sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=tmp_path)
    status, *loaded = out.stdout.split()
    assert status == "0", out.stdout
    unwanted = sorted(_NOT_LOADED[command] & set(loaded))
    assert not unwanted, f"{command} loads {unwanted}"


# a scenario file's layout -> whether a command that reads it loads PyYAML:
# the dump and the benchmark's bare-key files are in the one-line-per-section
# form that the scenario module reads itself
_SCENARIO_LAYOUTS = {"dump": False, "bare-key": False, "block": True}


@pytest.mark.parametrize("layout", list(_SCENARIO_LAYOUTS))
@pytest.mark.parametrize("command", ["flow", "yamabe", "eigen"])
def test_only_a_scenario_outside_the_flow_form_loads_yaml(tmp_path, command, layout):
    import yaml

    from singular_yamabe import scenario

    bare = ('model: {type: "eguchi-hanson", a: 1.0}\ngrid: {n_cells: 32, grading: "uniform"}\n'
            'time: {t_end: 1.0e-03, snapshot_every: 0.0}\noutput: {dir: "run"}\n')
    text = {"dump": scenario.default_config_text(), "bare-key": bare,
            "block": yaml.safe_dump(yaml.safe_load(bare))}[layout]
    (tmp_path / "scenario.yaml").write_text(text, encoding="utf-8")
    root = str(Path(importlib.import_module("singular_yamabe").__file__).parents[1])
    code = (f"import sys\nsys.path.insert(0, {root!r})\nfrom singular_yamabe.cli import main\n"
            f"code = main([{command!r}, 'scenario.yaml', '--quiet'])\n"
            "print(code, any(m.split('.')[0] == 'yaml' for m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=tmp_path)
    assert out.stdout.split() == ["0", str(_SCENARIO_LAYOUTS[layout])], out.stderr


# front-end process -> its arguments (None: it only imports the command
# line), exit code and the start of its stderr: none computes, so none loads
# numpy, scipy or a layer built on them, and each refusal names what it
# refuses; the refused scenario file is in the one-line-per-section form, so
# none loads PyYAML either
_FRONT_END = {
    "import": (None, None, ""),
    "dump-default-config": (["--dump-default-config"], 0, ""),
    "help": (["--help"], 0, ""),
    "usage-error": (["--no-such-flag"], 2, "usage: "),
    "flow": (["flow", "refused.yaml"], 2, "error: grid.n_cells must be >= 8\n"),
    "yamabe": (["yamabe", "refused.yaml"], 2, "error: grid.n_cells must be >= 8\n"),
    "eigen": (["eigen", "refused.yaml"], 2, "error: grid.n_cells must be >= 8\n"),
    "report": (["report", "."], 2, "error: cannot read ./report.json: "),
}
_NUMERIC_LAYERS = {"singular_yamabe.geometry", "singular_yamabe.flow",
                   "singular_yamabe.variational", "singular_yamabe.diagnostics"}


@pytest.mark.parametrize("process", list(_FRONT_END))
def test_front_end_loads_no_numeric_layer(tmp_path, process):
    argv, status, stderr = _FRONT_END[process]
    (tmp_path / "refused.yaml").write_text("grid: {n_cells: 4}\n")
    root = str(Path(importlib.import_module("singular_yamabe").__file__).parents[1])
    code = (f"import contextlib, io, sys\nsys.path.insert(0, {root!r})\n"
            "from singular_yamabe.cli import main\nstatus = None\n")
    if argv is not None:
        code += ("with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    try:\n        status = main({argv!r})\n"
                 "    except SystemExit as stop:  # argparse's --help and usage error\n"
                 "        status = stop.code\n")
    code += "print(status, *sorted(sys.modules))\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=tmp_path)
    printed, *loaded = out.stdout.split()
    assert printed == str(status), out.stderr
    assert out.stderr.startswith(stderr), out.stderr
    unwanted = [m for m in loaded
                if m.split(".")[0] in {"numpy", "scipy", "yaml"} or m in _NUMERIC_LAYERS]
    assert not unwanted, f"{argv} loads {unwanted}"


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


# the nodes that open a scope of their own
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_in(scope) -> set:
    """Names a function, lambda or comprehension binds in its own scope: its
    parameters and its assignment, loop, ``with`` and comprehension targets."""

    def targets(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                yield child.id
            elif not isinstance(child, _SCOPES):
                yield from targets(child)

    names = set(targets(scope))
    if hasattr(scope, "args"):  # a comprehension takes no parameters
        names |= {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
    return names


def _names_read(node, bound=frozenset()) -> set:
    """The names and attributes under ``node``, leaving out a name bound in
    a scope that encloses it: that name is a local, not the module's."""
    if isinstance(node, _SCOPES):
        bound = bound | _bound_in(node)
    if isinstance(node, ast.Attribute):
        names = {node.attr}
    elif isinstance(node, ast.Name) and node.id not in bound:
        names = {node.id}
    else:
        names = set()
    for child in ast.iter_child_nodes(node):
        names |= _names_read(child, bound)
    return names


def _unreferenced_public_definitions(src: Path) -> list:
    """Public top-level functions and classes of the package's modules that
    no code in the package names outside their own definition; a local of
    the same name does not count."""
    defined, referenced = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names_read(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined.append((path.stem, node.name))
            referenced |= names
    return [f"{module}.{name}" for module, name in defined if name not in referenced]


def test_a_local_of_the_same_name_is_no_use(tmp_path):
    # a parameter or an assignment, loop, with or comprehension target named
    # like a public definition is a local: minimize_quotient's ``step`` once
    # kept flow.step in use
    (tmp_path / "a.py").write_text(
        "def step(x):\n    return x\n\n\n"
        "def descend(step, path):\n"
        "    for k in [step for step in range(3)]:\n        step = k\n"
        "    with open(path) as step:\n        return step, (lambda step: step)\n")
    assert _unreferenced_public_definitions(tmp_path) == ["a.step", "a.descend"]
    (tmp_path / "b.py").write_text("import a\n\n\ndef _use():\n    return a.step(a.descend)\n")
    assert _unreferenced_public_definitions(tmp_path) == []


def test_public_definitions_are_used_or_traced():
    # library code that only the tests call is dead weight: use it or delete it
    traced = {f"{layer}.{name}" for layer, names in _traced_spans().items() for name in names}
    src = Path(__file__).parents[1] / "src" / "singular_yamabe"
    unused = [name for name in _unreferenced_public_definitions(src) if name not in traced]
    assert not unused, f"public definitions nothing in src/ calls: {unused}"


def _model_constructions(src: Path) -> list:
    """Calls of ``RadialGrid(...)`` in the package's modules but geometry."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py")) if path.stem != "geometry"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "RadialGrid"]


def test_models_are_built_by_their_builders():
    # a model checks nothing itself: build_grid and build_sphere_model check
    # their inputs, so a model built any other way is unchecked
    src = Path(__file__).parents[1] / "src" / "singular_yamabe"
    calls = _model_constructions(src)
    assert not calls, f"RadialGrid built outside geometry's builders: {calls}"


def _defaulted_parameters(sources: list) -> list:
    """Defaulted parameters of the package's public top-level functions, as
    (module.function, parameter, position or None for keyword-only, default
    node, the calls in ``sources`` that reach the function); a call is
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
    parameters = []
    for module, node in functions:
        spec = node.args
        positional = spec.posonlyargs + spec.args
        first = len(positional) - len(spec.defaults)
        defaulted = [(first + k, arg, default)
                     for k, (arg, default) in enumerate(zip(positional[first:], spec.defaults))]
        defaulted += [(None, arg, default)
                      for arg, default in zip(spec.kwonlyargs, spec.kw_defaults)
                      if default is not None]
        parameters += [(f"{module}.{node.name}", arg.arg, position, default,
                        calls.get(node.name, [])) for position, arg, default in defaulted]
    return parameters


def _sources() -> list:
    root = Path(__file__).parents[1]
    return sorted((root / "src" / "singular_yamabe").glob("*.py")) + [
        root / "perfbench" / "traced_cli.py"]


def _unpassed_defaulted_parameters(sources: list) -> list:
    """Defaulted parameters that no call in ``sources`` passes, by position
    or by keyword."""

    def passes(call, position, name):
        keywords = {kw.arg for kw in call.keywords}
        by_position = position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))
        return by_position or name in keywords or None in keywords

    return [f"{function}.{name}"
            for function, name, position, _, calls in _defaulted_parameters(sources)
            if not any(passes(call, position, name) for call in calls)]


def test_defaulted_parameters_are_passed():
    # an option no caller sets is a constant in disguise: make it one
    unpassed = _unpassed_defaulted_parameters(_sources())
    assert not unpassed, f"defaulted parameters no call in src/ or the tracer passes: {unpassed}"


def _single_valued_defaulted_parameters(sources: list) -> list:
    """Defaulted parameters that every call in ``sources`` gives the same
    literal, a call that omits the parameter giving it the default;
    parameters no call reaches, and calls that unpack arguments, are left
    to the rule above."""

    def literal(node):
        try:
            ast.literal_eval(node)
        except ValueError:
            return None
        return ast.dump(node)

    def value(call, position, name, default):
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg is None for kw in call.keywords)):
            return None
        if position is not None and len(call.args) > position:
            return literal(call.args[position])
        passed = [kw.value for kw in call.keywords if kw.arg == name]
        return literal(passed[0] if passed else default)

    single = []
    for function, name, position, default, calls in _defaulted_parameters(sources):
        values = {value(call, position, name, default) for call in calls}
        if len(values) == 1 and None not in values:
            single.append(f"{function}.{name}")
    return single


def test_defaulted_parameters_take_more_than_one_value():
    # a parameter every caller sets to the same literal is a constant too
    single = _single_valued_defaulted_parameters(_sources())
    assert not single, f"defaulted parameters every call in src/ or the tracer sets alike: {single}"


def _unused_imports(path: Path) -> list:
    """Names a module imports that its code never reads; ``from __future__``
    imports are directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(imported - read)


def test_imports_are_used():
    # a deletion that leaves its import behind keeps a dead dependency
    src = Path(__file__).parents[1] / "src" / "singular_yamabe"
    paths = sorted(src.glob("*.py"))
    assert {"__init__.py", "__main__.py"} <= {path.name for path in paths}
    unused = {path.name: names for path in paths if (names := _unused_imports(path))}
    assert not unused, f"imported names the module does not use: {unused}"


def _lapack_routines(src: Path) -> set:
    """Routines the package's modules take from ``geometry.lapack()``: the
    attributes read off that call, or off a name bound to its result."""

    def is_lapack(node):
        return isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)) == "lapack"

    routines = set()
    for path in sorted(src.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        bound = {target.id for node in nodes
                 if isinstance(node, ast.Assign) and is_lapack(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}
        routines |= {node.attr for node in nodes if isinstance(node, ast.Attribute) and (
            is_lapack(node.value) or getattr(node.value, "id", None) in bound)}
    return routines


def test_lapack_routines_exist():
    # a scipy build whose LAPACK extension lacks a routine the solves call
    # fails here, by name, rather than inside a solve
    from singular_yamabe import geometry

    routines = _lapack_routines(Path(__file__).parents[1] / "src" / "singular_yamabe")
    missing = sorted(name for name in routines if not hasattr(geometry.lapack(), name))
    assert not missing, f"{geometry.lapack().__file__} lacks the LAPACK routines {missing}"
    # the list the CI workflow's dependency-floor job names
    assert routines == {"dgttrf", "dgttrs", "dpttrf", "dpttrs", "dstebz", "dstein"}
