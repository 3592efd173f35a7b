import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import singular_yamabe
from singular_yamabe import cli, flow
from singular_yamabe import geometry as geo
from singular_yamabe import scenario, variational


def _scenario(tmp_path, **overrides):
    data = {
        "model": {"type": "eguchi-hanson", "a": 1.0},
        "grid": {"n_cells": 64, "grading": "uniform"},
        "time": {"t_end": 0.016, "safety": 0.4, "renorm_every": 10,
                 "snapshot_every": 0.008},
        "output": {"dir": str(tmp_path / "run")},
    }
    for section, content in overrides.items():
        if content is None:
            data.pop(section, None)
        elif isinstance(content, dict) and section in data:
            data[section].update(content)
        else:
            data[section] = content
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path), data


def test_dump_default_config_round_trip(capsys):
    assert cli.main(["--dump-default-config"]) == 0
    text = capsys.readouterr().out
    assert cli.parse_config(yaml.safe_load(text)) == cli.parse_config(scenario.DEFAULT_CONFIG)
    # the dumped defaults and the Scenario field defaults are one and the same
    assert cli.parse_config(yaml.safe_load(text)) == scenario.Scenario()


def test_no_command_prints_usage(capsys):
    assert cli.main([]) == cli.EXIT_INPUT


def test_validate_suite(tmp_path):
    assert cli.main(["validate", "--quiet", "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 13
    for name, check in payload["checks"].items():
        assert check["pass"] is True, name
    assert "scalar_l2_energy_a0.5" in payload["checks"]
    assert "green_kernel_second_moment" in payload["checks"]


def test_flow_artifacts(tmp_path):
    cfg_path, _ = _scenario(tmp_path)
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    outdir = tmp_path / "run"

    series = (outdir / "series.csv").read_text().splitlines()
    assert series[0] == "t,sigma_tilde,volume,F2,F3,v_at_x1,dt,mass_frac_0.1,mass_frac_0.05"
    records, cutoffs = cli.read_series_csv(str(outdir / "series.csv"))
    assert cutoffs == [0.1, 0.05]
    # the initial record and at least one step per snapshot interval
    assert len(records) >= 3
    sig = [r.sigma_tilde for r in records]
    assert all(b <= a + 1e-9 for a, b in zip(sig, sig[1:]))
    assert all(abs(r.volume - 2.0) < 1e-6 for r in records)
    assert records[-1].mass_fractions[0.1] > records[0].mass_fractions[0.1]

    meta = json.loads((outdir / "report.json").read_text())
    assert meta["completed"] is True
    assert meta["failure"] is None
    assert meta["steps"] == len(records) - 1
    assert meta["scenario"]["grid"]["n_cells"] == 64
    snaps = meta["artifacts"]["snapshots"]
    assert len(snaps) >= 3

    table = np.loadtxt(outdir / snaps[0], delimiter=",")
    grid = geo.build_grid(64, "uniform")
    assert np.array_equal(table[:, 0], grid.cell_centers)
    assert np.allclose(table[:, 1], 2.0 ** 0.5, rtol=1e-15)


def test_flow_is_deterministic(tmp_path):
    cfg_path, _ = _scenario(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["flow", cfg_path, "--quiet", "--output-dir", str(out_a)]) == 0
    assert cli.main(["flow", cfg_path, "--quiet", "--output-dir", str(out_b)]) == 0
    assert filecmp.cmp(out_a / "series.csv", out_b / "series.csv", shallow=False)
    assert filecmp.cmp(out_a / "report.json", out_b / "report.json", shallow=False)
    names = sorted(os.listdir(out_a / "snapshots"))
    assert names == sorted(os.listdir(out_b / "snapshots"))
    for name in names:
        assert filecmp.cmp(out_a / "snapshots" / name,
                           out_b / "snapshots" / name, shallow=False)


def test_flow_file_init(tmp_path):
    xs = np.linspace(0.0, 1.0, 30)
    vs = 1.1 + 0.2 * xs**2
    profile = tmp_path / "profile.csv"
    np.savetxt(profile, np.column_stack([xs, vs]), delimiter=",")
    cfg_path, _ = _scenario(
        tmp_path, init={"type": "file", "path": str(profile)},
        time={"t_end": 0.004, "safety": 0.4, "renorm_every": 0,
              "snapshot_every": 0.0})
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    records, _ = cli.read_series_csv(str(tmp_path / "run" / "series.csv"))
    grid = geo.build_grid(64, "uniform")
    expect = flow.FlowState(grid, np.interp(grid.cell_centers, xs, vs))
    assert records[0].volume == pytest.approx(expect.volume, rel=1e-12)


def test_flow_rejects_bad_inputs(tmp_path, capsys):
    bad_key, _ = _scenario(tmp_path, extras={"oops": 1})
    assert cli.main(["flow", bad_key, "--quiet"]) == cli.EXIT_INPUT
    assert "unknown top-level key" in capsys.readouterr().err

    cfg_path, data = _scenario(tmp_path)
    data["model"] = {"type": "sphere", "n": 4}
    path = tmp_path / "sphere.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main(["flow", str(path), "--quiet"]) == cli.EXIT_INPUT

    for grid in ({"n_cells": math.inf}, {"grading": "geometric", "ratio": 1.0}):
        bad_grid, _ = _scenario(tmp_path, grid=grid)
        assert cli.main(["flow", bad_grid, "--quiet"]) == cli.EXIT_INPUT

    broken = tmp_path / "broken.yaml"
    broken.write_text("model: [unclosed\n")
    assert cli.main(["flow", str(broken), "--quiet"]) == cli.EXIT_INPUT
    assert cli.main(["flow", str(tmp_path / "absent.yaml"), "--quiet"]) == cli.EXIT_INPUT
    capsys.readouterr()

    # a degenerate grid, a start whose volume or quotient overflows, and a
    # core scale whose quotient overflows are refused before the output
    # directory is made
    degenerate = {"grid": {"n_cells": 1024, "grading": "geometric", "ratio": 0.97}}
    huge = {"init": {"type": "constant", "value": 1e100}}
    refused = [(command, overrides) for command in ("flow", "yamabe", "eigen")
               for overrides in (degenerate, huge)]
    refused += [("yamabe", {"init": {"type": "constant", "value": 1e-100}}),
                ("yamabe", {"model": {"a": 1e200}})]
    for command, overrides in refused:
        cfg_path, _ = _scenario(tmp_path, **overrides)
        assert cli.main([command, cfg_path, "--quiet"]) == cli.EXIT_INPUT, (command, overrides)
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()

    # distinct cutoffs or exponents whose names in the outputs would collide
    for key, values in (("cutoffs", [0.1, 0.1000001]), ("f_p_exponents", [2, 2.0000001, 3])):
        cfg_path, _ = _scenario(tmp_path, diagnostics={key: values})
        assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: diagnostics.{key} ")


def test_flow_positivity_exit(tmp_path, monkeypatch):
    cfg_path, _ = _scenario(tmp_path, time={"t_end": 0.004, "safety": 0.4,
                                            "renorm_every": 0,
                                            "snapshot_every": 0.0})
    real = flow.run(scenario.Scenario(n_cells=64, t_end=0.004, renorm_every=0,
                                      snapshot_every=0.0))
    stopped = flow.RunResult(records=real.records, snapshots=real.snapshots,
                             completed=False,
                             failure="conformal cube lost positivity in 1 cells",
                             final_state=real.final_state)
    monkeypatch.setattr(cli.flow, "run", lambda *a, **k: stopped)
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_POSITIVITY
    outdir = tmp_path / "run"
    assert (outdir / "FAILED").read_text().startswith("conformal cube")
    meta = json.loads((outdir / "report.json").read_text())
    assert meta["completed"] is False
    assert "positivity" in meta["failure"]
    # the partial series is still on disk for post-mortems
    assert (outdir / "series.csv").exists()


def test_flow_positivity_loss_in_the_stepper_exits_3(tmp_path, monkeypatch):
    def lose_positivity(state, h):
        raise flow.PositivityError("conformal cube lost positivity in 1 cells")

    monkeypatch.setattr(flow, "rosenbrock_step", lose_positivity)
    cfg_path, _ = _scenario(tmp_path)
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_POSITIVITY
    outdir = tmp_path / "run"
    assert (outdir / "FAILED").read_text().startswith("conformal cube")
    assert json.loads((outdir / "report.json").read_text())["completed"] is False


@pytest.mark.parametrize("command", ["flow", "yamabe", "eigen", "validate"])
def test_output_dir_that_is_a_file_is_an_input_error(tmp_path, capsys, command):
    cfg_path, _ = _scenario(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    argv = [command] + ([] if command == "validate" else [cfg_path])
    assert cli.main(argv + ["--output-dir", str(afile), "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot use output directory")


def test_yamabe_sphere(tmp_path):
    cfg_path, data = _scenario(tmp_path, grid={"n_cells": 96})
    data["model"] = {"type": "sphere", "n": 4}
    path = tmp_path / "sphere.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main(["yamabe", str(path), "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "yamabe.json").read_text())
    assert payload["converged"] is True
    ref = payload["reference_constant"]
    assert abs(payload["value"] - ref) / ref < 5e-3
    assert payload["initial_value"] == pytest.approx(ref, rel=1e-6)


def test_yamabe_eh_does_not_converge(tmp_path):
    cfg_path, _ = _scenario(tmp_path,
                            grid={"n_cells": 256, "grading": "geometric",
                                  "ratio": 0.97})
    assert cli.main(["yamabe", cfg_path, "--quiet"]) == cli.EXIT_NO_CONVERGENCE
    payload = json.loads((tmp_path / "run" / "yamabe.json").read_text())
    assert payload["converged"] is False
    assert payload["initial_value"] == pytest.approx(16.0 * math.pi, rel=1e-9)
    assert payload["value"] < payload["initial_value"]
    assert payload["value"] > payload["reference_constant"]


def test_eigen_sphere(tmp_path):
    cfg_path, data = _scenario(tmp_path, grid={"n_cells": 256})
    data["model"] = {"type": "sphere", "n": 3}
    path = tmp_path / "sphere.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main(["eigen", str(path), "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "eigen.json").read_text())
    assert payload["lambda1"] == pytest.approx(3.0, rel=1e-2)
    assert payload["sigma_inf"] == 6.0
    assert set(payload["criteria"]) == {"uniqueness", "no_concentration"}


def test_eigen_eh(tmp_path):
    cfg_path, _ = _scenario(tmp_path, grid={"n_cells": 256})
    assert cli.main(["eigen", cfg_path, "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "eigen.json").read_text())
    assert payload["lambda1"] == pytest.approx(0.3890777, rel=1e-4)
    # the reduced spectral gap clears sigma_inf / 3 comfortably
    assert payload["criteria"] == {"uniqueness": True, "no_concentration": True}
    assert payload["residual"] < 1e-8


def test_eigen_solver_failure_exits_4(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalue solve failed")

    monkeypatch.setattr(variational.linalg, "eigh_tridiagonal", fail)
    cfg_path, _ = _scenario(tmp_path, grid={"n_cells": 64})
    assert cli.main(["eigen", cfg_path, "--quiet"]) == cli.EXIT_NO_CONVERGENCE
    payload = json.loads((tmp_path / "run" / "eigen.json").read_text())
    assert payload["lambda1"] is None
    assert payload["failure"] == "eigenvalue solve failed"


def test_report_dichotomy(tmp_path):
    cfg_path, _ = _scenario(tmp_path)
    outdir = str(tmp_path / "run")
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    assert cli.main(["report", outdir, "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "dichotomy.json").read_text())

    d = payload["dichotomy"]
    assert d["small_energy_ok"] is False
    assert d["low_average_ok"] is True
    assert d["max_bubble_count"] == 1
    assert d["concentration_detected"] is False
    assert len(d["concentration_cutoff_history"]) == 3
    assert d["sigma0"] == pytest.approx(16.0 * math.pi, rel=1e-3)
    assert d["sigma_inf"] < d["sigma0"]

    alt = payload["alternate_flags"]
    assert alt["consistent_with_derived_units"] is False
    assert alt["low_average_ok_variant"] is False
    assert alt["sigma0_variant"] == pytest.approx(math.pi**4 / 12.0)

    assert payload["decay_rate_fit"]["rate"] is not None
    assert payload["decay_rate_fit"]["rate"] > 0.0
    assert payload["green_identity_residual"] < 2e-2
    assert payload["sup_bound"]["max_violation"] == 0.0
    assert payload["bubble_fit"] is None
    assert set(payload["deviation_moments_final"]) == {"2", "3"}


def test_report_rejects_broken_inputs(tmp_path):
    assert cli.main(["report", str(tmp_path / "nope"), "--quiet"]) == cli.EXIT_INPUT
    cfg_path, _ = _scenario(tmp_path)
    outdir = tmp_path / "run"
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    series = outdir / "series.csv"
    body = series.read_text().splitlines()
    body[0] = "time,sigma,stuff"
    series.write_text("\n".join(body) + "\n")
    assert cli.main(["report", str(outdir), "--quiet"]) == cli.EXIT_INPUT


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A finished flow run directory, to be copied before it is damaged."""
    tmp_path = tmp_path_factory.mktemp("small_run")
    cfg_path, _ = _scenario(tmp_path)
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    return tmp_path / "run"


def _rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def _edit_series_row(edit):
    def apply(run):
        lines = (run / "series.csv").read_text().splitlines()
        lines[3] = edit(lines[3])
        (run / "series.csv").write_text("\n".join(lines) + "\n")
    return apply


def _snapshot(run, index):
    return run / json.loads((run / "report.json").read_text())["artifacts"]["snapshots"][index]


def _negative_first_v(text):
    lines = text.splitlines()
    lines[0] = lines[0].split(",")[0] + ",-1.0"
    return "\n".join(lines) + "\n"


def _off_grid_x(text):
    rows = [line.split(",") for line in text.splitlines()]
    return "".join(f"{0.5 + 0.001 * k!r},{v}\n" for k, (_x, v) in enumerate(rows))


def _without_scenario(text):
    meta = json.loads(text)
    del meta["scenario"]
    return json.dumps(meta)


REPORT_DAMAGE = {
    "malformed_report_json": lambda run: (run / "report.json").write_text("{not json"),
    "report_json_is_a_list": lambda run: (run / "report.json").write_text("[1, 2]"),
    "no_scenario_key": lambda run: _rewrite(run / "report.json", _without_scenario),
    "non_numeric_series_cell": _edit_series_row(lambda row: "abc," + row.split(",", 1)[1]),
    "short_series_row": _edit_series_row(lambda row: ",".join(row.split(",")[:4])),
    "nonpositive_snapshot_value": lambda run: _rewrite(_snapshot(run, -1), _negative_first_v),
    "missing_snapshot_file": lambda run: _snapshot(run, 0).unlink(),
    "snapshot_off_grid": lambda run: _rewrite(_snapshot(run, 0), _off_grid_x),
}


@pytest.mark.parametrize("damage", sorted(REPORT_DAMAGE))
def test_report_refuses_damaged_run_dir(small_run, tmp_path, capsys, damage):
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    REPORT_DAMAGE[damage](run)
    assert cli.main(["report", str(run), "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@given(target=st.sampled_from(["series.csv", "report.json", 0, -1]),
       action=st.sampled_from(["truncate", "corrupt", "delete"]),
       where=st.floats(0.0, 1.0), byte=st.integers(0, 255))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_report_never_raises_on_damaged_run_dir(small_run, capsys, target, action,
                                                where, byte):
    with tempfile.TemporaryDirectory(dir=small_run.parent) as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(small_run, run)
        path = run / target if isinstance(target, str) else _snapshot(run, target)
        data = path.read_bytes()
        at = int(where * (len(data) - 1))
        if action == "truncate":
            path.write_bytes(data[:at])
        elif action == "corrupt":
            path.write_bytes(data[:at] + bytes([byte]) + data[at + 1:])
        else:
            path.unlink()
        assert cli.main(["report", str(run), "--quiet"]) in (cli.EXIT_OK, cli.EXIT_INPUT)
    capsys.readouterr()


BAD_PROFILES = {
    "non_monotone_x": "0.0,1.0\n0.6,1.1\n0.4,1.2\n1.0,1.0\n",
    "nan_in_v": "0.0,1.0\n0.5,nan\n1.0,1.0\n",
    "one_row": "0.5,1.0\n",
    "negative_v": "0.0,1.0\n0.5,-1.0\n1.0,1.0\n",
    "non_numeric_cell": "0.0,1.0\n0.5,abc\n1.0,1.0\n",
    "repeated_x": "0.0,1.0\n0.5,1.0\n0.5,1.2\n1.0,1.0\n",
    "huge_v": "0.0,1e100\n1.0,1e100\n",
    "tiny_v": "0.0,1e-100\n1.0,1e-100\n",
}


@pytest.mark.parametrize("table", sorted(BAD_PROFILES))
@pytest.mark.parametrize("command, model", [
    ("flow", {"type": "eguchi-hanson", "a": 1.0}),
    ("eigen", {"type": "eguchi-hanson", "a": 1.0}),
    ("yamabe", {"type": "eguchi-hanson", "a": 1.0}),
    ("yamabe", {"type": "sphere", "n": 4}),
])
def test_malformed_profile_is_an_input_error(tmp_path, capsys, table, command, model):
    profile = tmp_path / "profile.csv"
    profile.write_text(BAD_PROFILES[table])
    _, data = _scenario(tmp_path, init={"type": "file", "path": str(profile)})
    data["model"] = model
    path = tmp_path / "bad_profile.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main([command, str(path), "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def _child_env():
    """Environment for a child interpreter that imports the same package as this suite."""
    env = dict(os.environ)
    package_root = str(Path(singular_yamabe.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def _scripts_table(text):
    """The [project.scripts] table of a pyproject.toml, read line by line."""
    scripts, inside = {}, False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, target = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def _declared_scripts():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = _scripts_table(text)
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: the line reader stands alone
        return scripts
    declared = tomllib.loads(text)["project"]["scripts"]
    assert scripts == declared
    return declared


def test_thread_cap_env(tmp_path):
    code = (
        "import os\n"
        "os.environ['SINGULAR_YAMABE_THREADS'] = '3'\n"
        "import singular_yamabe.cli\n"
        "print(os.environ['OMP_NUM_THREADS'],\n"
        "      os.environ['OPENBLAS_NUM_THREADS'],\n"
        "      os.environ['MKL_NUM_THREADS'])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_child_env())
    assert out.stdout.split() == ["3", "3", "3"]


def test_cli_import_loads_no_quadrature_or_special_functions():
    code = (
        "import sys\n"
        "import singular_yamabe.cli\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.special')\n"
        "             if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_child_env())
    assert out.stdout.strip() == "[]"


def test_console_script_smoke():
    target = _declared_scripts().get("singular-yamabe")
    assert target == "singular_yamabe.cli:main"
    module, func = target.split(":")
    # what the wrapper that pip generates for the entry point runs
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [
        [sys.executable, "-c", wrapper],
        [sys.executable, "-m", "singular_yamabe"],
    ]
    installed = shutil.which("singular-yamabe")
    if installed:
        commands.append([installed])
    for command in commands:
        out = subprocess.run(command + ["--dump-default-config"],
                             capture_output=True, text=True, env=_child_env())
        assert out.returncode == 0, (command, out.stderr)
        assert yaml.safe_load(out.stdout)["model"]["type"] == "eguchi-hanson"
