"""Public names and module loads: a module's public names are its
top-level definitions without a leading underscore, with no ``__all__``;
every function the benchmark's tracer times (perfbench/traced_cli.py
SPANS) is still there, every public definition is used by the package or
traced, and only geometry's builders construct a model.  What a process
loads is one table, one row per distinct process, each started once
through conftest's ``probe`` and held to three rules: no scipy but its
LAPACK extension, none of the row's forbidden modules, and PyYAML exactly
when its scenario file is block YAML."""

import ast
import functools
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import probe

import singular_yamabe
from singular_yamabe import cli, scenario
from singular_yamabe import geometry as geo


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


def _flow_form(n_cells=64, grading="uniform", t_end="1.6e-02", snapshot_every="8.0e-03"):
    """A scenario in the one-line-per-section form, as the benchmark writes
    them; by default a run of five steps with a snapshot mid-way, whose
    report fits a decay rate."""
    return (f'model: {{type: "eguchi-hanson", a: 1.0}}\n'
            f'grid: {{n_cells: {n_cells}, grading: "{grading}"}}\n'
            f'time: {{t_end: {t_end}, renorm_every: 10, snapshot_every: {snapshot_every}}}\n'
            f'output: {{dir: "run"}}\n')


def _flow_run(directory, **scenario):
    """Make ``directory/run`` with ``flow`` in this process."""
    (directory / "scenario.yaml").write_text(_flow_form(**scenario))
    assert cli.main(["flow", str(directory / "scenario.yaml"),
                     "--output-dir", str(directory / "run"), "--quiet"]) == 0


def _concentrated_run(directory):
    """A run on 512 geometric cells whose final snapshot is the bubble
    2 eps / (eps^2 + d^2), eps = 0.02, at volume 2."""
    _flow_run(directory, n_cells=512, grading="geometric", t_end="1.0e-08",
              snapshot_every="0.0")
    run = directory / "run"
    grid = geo.build_grid(512, "geometric")
    v = 0.04 / (0.02**2 + geo.distance_from_singular_point(grid.cell_centers) ** 2)
    v *= (2.0 / np.sum(v**4 * grid.weights)) ** 0.25
    final = json.loads((run / "report.json").read_text())["artifacts"]["snapshots"][-1]
    (run / final).write_text("".join(
        f"{x!r},{value!r}\n" for x, value in zip(grid.cell_centers.tolist(), v.tolist())))


# scenario files: the dump and the benchmark's bare-key files are in the
# one-line-per-section form that the scenario module reads itself, the rest
# is block YAML, which PyYAML reads
_LAYOUTS = {"dump": scenario.default_config_text(), "bare-key": _flow_form(),
            "block": yaml.safe_dump(yaml.safe_load(_flow_form()))}
_SPHERE = yaml.safe_dump({"model": {"type": "sphere", "n": 4}, "grid": {"n_cells": 32},
                          "output": {"dir": "run"}})
_BLOCK_YAML = (_LAYOUTS["block"], _SPHERE)

_SUBMODULES = {f"singular_yamabe.{path.stem}"
               for path in Path(singular_yamabe.__file__).parent.glob("*.py")
               if path.stem != "__init__"}
_LAYERS = {f"singular_yamabe.{name}" for name in ("geometry", "flow", "variational", "diagnostics")}
# the front end computes nothing; a command that makes no LAPACK call loads
# no scipy, nor numpy.f2py, which scipy's package code imports; each command
# imports only the solver layers it runs, and on the sphere eigen solves its
# pencil without a flow state
_FRONT_END = _LAYERS | {"numpy", "scipy"}
_NO_SCIPY = {"scipy", "numpy.f2py"}
_NOT_LOADED = {
    "flow": {"singular_yamabe.variational", "singular_yamabe.diagnostics"},
    "yamabe": {"singular_yamabe.flow", "singular_yamabe.diagnostics"},
    "eigen": {"singular_yamabe.diagnostics"},
    "report": _NO_SCIPY | {"singular_yamabe.variational"},
}
_REFUSED = "error: grid.n_cells must be >= 8\n"

# process -> (the argv of cli.main, or the one module the child imports;
# the scenario file's text, or what makes its run directory; main's status;
# the start of its stderr; the modules it must not load, a package standing
# for its submodules too)
_PROCESSES = {
    "import-package": ("singular_yamabe", None, None, "", _SUBMODULES | {"numpy", "scipy"}),
    "import-cli": ("singular_yamabe.cli", None, None, "", _FRONT_END),
    "dump-default-config": (["--dump-default-config"], None, 0, "", _FRONT_END),
    "help": (["--help"], None, 0, "", _FRONT_END),
    "usage-error": (["--no-such-flag"], None, 2, "usage: ", _FRONT_END),
    **{f"{command}-refused": ([command, "scenario.yaml"], "grid: {n_cells: 4}\n", 2, _REFUSED,
                              _FRONT_END) for command in ("flow", "yamabe", "eigen")},
    "report-refused": (["report", "."], None, 2, "error: cannot read ./report.json: ", _FRONT_END),
    "validate": (["validate", "--quiet"], None, 0, "", _NO_SCIPY),
    **{name: (["report", "run", "--quiet"], made, 0, "", _NOT_LOADED["report"])
       for name, made in (("report", _flow_run), ("report-concentrated", _concentrated_run))},
    **{f"{command}-{layout}": ([command, "scenario.yaml", "--quiet"], text, 0, "",
                               _NOT_LOADED[command])
       for command in ("flow", "yamabe", "eigen") for layout, text in _LAYOUTS.items()},
    **{f"{command}-sphere": ([command, "scenario.yaml", "--quiet"], _SPHERE, 0, "",
                             _NOT_LOADED["yamabe"]) for command in ("yamabe", "eigen")},
}


@pytest.fixture(scope="module")
def process(tmp_path_factory):
    """Runs a row of the table once, however many contracts below name it,
    and returns its directory: its status and the start of its stderr are
    the row's, it loads at most the LAPACK extension of scipy, none of its
    forbidden modules, and PyYAML exactly when its scenario file is block
    YAML."""

    @functools.cache
    def check(name):
        command, made, status, stderr, forbidden = _PROCESSES[name]
        directory = tmp_path_factory.mktemp(name)
        if callable(made):
            made(directory)
        elif made is not None:
            (directory / "scenario.yaml").write_text(made, encoding="utf-8")
        got, err, modules = probe(command, directory)
        assert (got, err[:len(stderr)]) == (status, stderr), (name, got, err)
        # the interpreter records that single-phase extension under its own name
        scipy_side = {m for m in modules
                      if m.split(".")[0] == "scipy" or m.startswith("numpy.f2py")}
        assert scipy_side <= {"scipy.linalg._flapack"}, (name, scipy_side)
        unwanted = [m for m in modules if any(m == f or m.startswith(f + ".") for f in forbidden)]
        assert not unwanted, f"{name} loads {unwanted}"
        assert any(m.split(".")[0] == "yaml" for m in modules) == (made in _BLOCK_YAML), name
        return directory

    return check


def test_package_import_loads_no_submodule(process):
    # callers import the layer they use, so no re-export facade grows back
    process("import-package")


@pytest.mark.parametrize("name", ["validate", "report", "flow-block", "yamabe-sphere",
                                  "eigen-sphere"], ids=lambda name: name.split("-")[0])
def test_command_loads_only_the_layers_it_runs(process, name):
    process(name)


@pytest.mark.parametrize("name", [f"{command}-{layout}" for command in ("flow", "yamabe", "eigen")
                                  for layout in _LAYOUTS])
def test_only_a_scenario_outside_the_flow_form_loads_yaml(process, name):
    process(name)


@pytest.mark.parametrize("name", ["import-cli", "dump-default-config", "help", "usage-error",
                                  "flow-refused", "yamabe-refused", "eigen-refused",
                                  "report-refused"],
                         ids=lambda name: name.removesuffix("-refused").removesuffix("-cli"))
def test_front_end_loads_no_numeric_layer(process, name):
    process(name)


def test_commands_load_scipy_only_to_solve(process):
    for name in ("dump-default-config", "validate"):
        process(name)
    # nor does a report's decay-rate fit, or its bubble fit of a run that
    # concentrates
    fits = [json.loads((process(name) / "run" / "dichotomy.json").read_text())
            for name in ("report", "report-concentrated")]
    assert fits[0]["decay_rate_fit"]["rate"] is not None and fits[0]["bubble_fit"] is None
    assert fits[1]["bubble_fit"]["scale_eps_lambda"] == pytest.approx(0.02, rel=1e-10)


def test_solving_commands_load_only_the_lapack_extension(process):
    # flow through a snapshot mid-way
    for name in ("yamabe-block", "yamabe-sphere", "eigen-block", "eigen-sphere"):
        process(name)
    report = json.loads((process("flow-block") / "run" / "report.json").read_text())
    assert len(report["artifacts"]["snapshots"]) == 3


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
