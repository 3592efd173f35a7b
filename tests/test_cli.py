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
from hypothesis import HealthCheck, example, given, settings, strategies as st

import singular_yamabe
from singular_yamabe import cli, flow, variational
from singular_yamabe import geometry as geo
from singular_yamabe import scenario


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


def test_dump_default_config_round_trip(tmp_path, capsys):
    assert cli.main(["--dump-default-config"]) == 0
    text = capsys.readouterr().out
    assert cli.parse_config(yaml.safe_load(text)) == scenario.Scenario()
    # one JSON flow mapping per section, in the scenario's order: a scenario
    # file that the scenario reader takes as it is
    assert [line.split(": ", 1) for line in text.splitlines()] == [
        [name, json.dumps(keys)] for name, keys in scenario.Scenario().echo().items()]
    path = tmp_path / "default.yaml"
    path.write_text(text, encoding="utf-8")
    assert scenario.load_config(str(path)) == scenario.Scenario()


def test_readme_schema_block_is_the_declared_schema():
    # README's first yaml block is the dump, each line with a comment
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == scenario.Scenario().echo()
    lines = [line.split("#", 1)[0].rstrip() for line in block.splitlines()]
    assert lines == scenario.default_config_text().splitlines()


def test_no_command_prints_usage(capsys):
    assert cli.main([]) == cli.EXIT_INPUT


def test_main_reads_the_scenario_and_calls_the_module_binding(tmp_path, monkeypatch):
    # main looks each command up when it parses, so a binding replaced after
    # import, as the benchmark's tracer replaces them, is the one that runs
    calls = []
    monkeypatch.setattr(cli, "cmd_flow", lambda args, cfg: calls.append(cfg) or cli.EXIT_OK)
    cfg_path, _ = _scenario(tmp_path)
    assert cli.main(["flow", cfg_path]) == cli.EXIT_OK
    assert calls == [scenario.load_config(cfg_path)]
    assert not (tmp_path / "run").exists()


def test_report_takes_no_output_dir(tmp_path, capsys):
    # a report is written into its run directory
    with pytest.raises(SystemExit) as stop:
        cli.main(["report", str(tmp_path), "--output-dir", str(tmp_path / "x")])
    assert stop.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments: --output-dir" in capsys.readouterr().err


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
    records = cli.read_series_csv(str(outdir / "series.csv"))
    assert list(records[0].mass_fractions) == [0.1, 0.05]
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


def test_write_snapshots_matches_per_cell_format(tmp_path):
    grid = geo.build_grid(512, "geometric", 0.97)
    special = [0.1, 1.0 / 3.0, 1e-300, 1.7976931348623157e308]
    rng = np.random.default_rng(5)
    v0 = np.concatenate([special, rng.random(508)])
    snapshots = [(0.0, v0), (0.25, v0[::-1].copy()), (0.5, np.exp(rng.normal(size=512)))]
    names = cli.write_snapshots(str(tmp_path / "snapshots"), snapshots, grid)
    assert len(names) == len(snapshots)
    for name, (_, v) in zip(names, snapshots):
        expected = "\n".join(f"{cli._fmt(x)},{cli._fmt(val)}"
                             for x, val in zip(grid.cell_centers, v)) + "\n"
        assert (tmp_path / "snapshots" / name).read_bytes() == expected.encode()


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
    records = cli.read_series_csv(str(tmp_path / "run" / "series.csv"))
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
    # bytes that are not UTF-8, a date yaml cannot build, a path with a NUL byte
    (tmp_path / "latin1.yaml").write_bytes(b"# caf\xe9\n")
    (tmp_path / "date.yaml").write_text("time: {t_end: 2020-13-45}\n")
    for path in ("latin1.yaml", "date.yaml", "a\0b.yaml"):
        assert cli.main(["flow", str(tmp_path / path), "--quiet"]) == cli.EXIT_INPUT, path
    capsys.readouterr()

    # a degenerate grid and a start whose volume or quotient overflows are
    # refused before the output directory is made
    degenerate = {"grid": {"n_cells": 1024, "grading": "geometric", "ratio": 0.97}}
    huge = {"init": {"type": "constant", "value": 1e100}}
    refused = [(command, overrides) for command in ("flow", "yamabe", "eigen")
               for overrides in (degenerate, huge)]
    refused += [("yamabe", {"init": {"type": "constant", "value": 1e-100}})]
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


@pytest.mark.parametrize("every", [1.0e-17, 1.0e-300, 2.0e-15])
def test_indistinguishable_snapshot_interval_is_refused(tmp_path, every):
    # these intervals once made the flow step without end: the first two lie
    # below the stop tolerance, 2e-15 asks for 5e11 stops; in a child under a
    # timeout a regression fails here instead of hanging the suite
    cfg_path, _ = _scenario(tmp_path, time={"t_end": 1.0e-3, "snapshot_every": every})
    out = subprocess.run([sys.executable, "-m", "singular_yamabe", "flow", cfg_path,
                          "--quiet"], capture_output=True, text=True, env=_child_env(),
                         timeout=30)
    assert out.returncode == cli.EXIT_INPUT
    assert out.stderr == (f"error: time.snapshot_every {every:g} is below time.t_end "
                          "0.001 / 10000: a run takes at most 10000 snapshot stops\n")
    assert not (tmp_path / "run").exists()


# a section whose type owns another key: an omitted type is the default one
_OTHER_TYPE = {
    "model.n": {"n": 4},
    "model.a": {"type": "sphere", "a": 1.0},
    "init.path": {"value": 1.0, "path": "start.csv"},
    "init.value": {"type": "file", "path": "start.csv", "value": 1.0},
}


@pytest.mark.parametrize("key", list(_OTHER_TYPE))
def test_key_of_another_type_is_refused(tmp_path, capsys, key):
    # model.a and model.n, init.value and init.path each belong to one type
    # of their section
    _, data = _scenario(tmp_path)
    data[key.split(".")[0]] = _OTHER_TYPE[key]
    path = tmp_path / "variant.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main(["flow", str(path), "--quiet"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} only applies to ") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


# files with several bad values: the first key in the file's order is named
_FIRST_ERROR = [
    ({"grid": {"grading": "spiral", "ratio": 2.0}},
     "grid.grading must be uniform or geometric, got 'spiral'"),
    ({"model": {"type": "sphere", "n": 4}, "grid": {"grading": "geometric", "ratio": 0.0}},
     "grid.grading must be uniform for the sphere model, whose polar grid is uniform"),
    ({"init": {"type": "random"}, "output": {"dir": ""}},
     "init.type must be constant or file, got 'random'"),
]


@pytest.mark.parametrize("data, message", _FIRST_ERROR)
def test_first_of_several_bad_values_is_reported(data, message):
    with pytest.raises(scenario.ConfigError) as err:
        cli.parse_config(data)
    assert str(err.value) == message


@pytest.mark.parametrize("exponents", [[2, math.inf], [math.inf]])
def test_non_finite_exponent_is_refused(tmp_path, capsys, exponents):
    # an infinite p passes p >= 1, and its moment says nothing about the state
    cfg_path, _ = _scenario(tmp_path, diagnostics={"f_p_exponents": exponents})
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == ("error: diagnostics.f_p_exponents must be a "
                                       "nonempty list of finite numbers >= 1\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["yamabe", "eigen"])
@pytest.mark.parametrize("n", [343, 344])
def test_sphere_dimension_above_342_is_refused(tmp_path, capsys, command, n):
    # from n = 343 the sphere's volume and Yamabe constant overflow a double:
    # the scenario is refused before any work, not by a traceback at the end
    assert math.isfinite(geo.yamabe_sphere_constant(342))
    _, data = _scenario(tmp_path)
    data["model"] = {"type": "sphere", "n": n}
    path = tmp_path / "sphere.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main([command, str(path), "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: model.n must be <= 342\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, key", [
    ("grid: {n_cells: 64}\ngrid: {grading: geometric}\n", "grid"),
    ("time: {t_end: 1.0e-3, t_end: 2.0e-3}\n", "t_end"),
], ids=["section", "key-in-section"])
def test_scenario_file_that_repeats_a_key_is_refused(tmp_path, capsys, text, key):
    # yaml alone keeps the last value and runs a scenario the file does not say
    path = tmp_path / "repeated.yaml"
    path.write_text(text + f"output: {{dir: {json.dumps(str(tmp_path / 'run'))}}}\n")
    assert cli.main(["flow", str(path), "--quiet"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse config {path}: found duplicate key {key!r}"), err
    assert not (tmp_path / "run").exists()


def test_merged_key_may_be_overridden(tmp_path):
    # a << merge is not a repeat: the explicit key wins, as in YAML
    path = tmp_path / "merged.yaml"
    path.write_text("grid:\n  <<: {n_cells: 64, grading: geometric}\n  n_cells: 128\n")
    cfg = scenario.load_config(str(path))
    assert (cfg.n_cells, cfg.grading) == (128, "geometric")


@pytest.mark.parametrize("text, message", [
    ("grid: {1: 2}\n", "unknown key(s) in section 'grid': 1"),
    ("1: 2\nx: 3\n", "unknown top-level key(s): 1, x"),
], ids=["in-section", "top-level"])
def test_unknown_key_that_is_not_a_string_is_refused(tmp_path, capsys, text, message):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert cli.main(["flow", str(path), "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


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
    monkeypatch.setattr(flow, "run", lambda *a, **k: stopped)
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


def test_completed_rerun_removes_the_failed_marker(tmp_path, monkeypatch, capsys):
    cfg_path, _ = _scenario(tmp_path)
    real_step = flow.rosenbrock_step

    def lose_positivity(state, h):
        raise flow.PositivityError("conformal cube lost positivity in 1 cells")

    monkeypatch.setattr(flow, "rosenbrock_step", lose_positivity)
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_POSITIVITY
    outdir = tmp_path / "run"
    assert (outdir / "FAILED").exists()
    monkeypatch.setattr(flow, "rosenbrock_step", real_step)
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_OK
    assert not (outdir / "FAILED").exists()
    assert json.loads((outdir / "report.json").read_text())["completed"] is True
    # a marker that cannot be removed is an unusable output directory
    (outdir / "FAILED").mkdir()
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot remove")


def test_flow_rerun_removes_an_earlier_runs_artifacts(tmp_path):
    # a shorter rerun leaves only its own snapshots, and drops the report
    # made from the earlier run; other files in the directory stay
    cfg_path, _ = _scenario(tmp_path, time={"t_end": 0.02, "snapshot_every": 0.005})
    run = tmp_path / "run"
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    assert cli.main(["report", str(run), "--quiet"]) == 0
    for name in ("notes.txt", "snapshots/notes.txt", "snapshots/snap_x.txt"):
        (run / name).write_text("kept\n")
    cfg_path, _ = _scenario(tmp_path, time={"t_end": 0.01, "snapshot_every": 0.005})
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    listed = json.loads((run / "report.json").read_text())["artifacts"]["snapshots"]
    assert listed == ["snapshots/snap_0.csv", "snapshots/snap_0.005.csv",
                      "snapshots/snap_0.01.csv"]
    assert sorted(os.listdir(run / "snapshots")) == sorted(
        [name.split("/")[1] for name in listed] + ["notes.txt", "snap_x.txt"])
    assert sorted(os.listdir(run)) == ["notes.txt", "report.json", "series.csv", "snapshots"]


@pytest.mark.parametrize("command", ["flow", "yamabe", "eigen", "validate"])
def test_output_dir_that_is_a_file_is_an_input_error(tmp_path, capsys, command):
    cfg_path, _ = _scenario(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    argv = [command] + ([] if command == "validate" else [cfg_path])
    # a path with a NUL byte, which no file system call takes, is refused too
    for outdir in (str(afile), str(tmp_path / "a\0b")):
        assert cli.main(argv + ["--output-dir", outdir, "--quiet"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: cannot use output directory")
    if command != "validate":  # the same path as the scenario file's output.dir
        cfg_path, _ = _scenario(tmp_path, output={"dir": str(tmp_path / "run\0x")})
        assert cli.main([command, cfg_path, "--quiet"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: cannot use output directory")


def test_unwritable_artifacts_exit_2(tmp_path, capsys):
    # a snapshots entry that is a file, and a yamabe.json that is a
    # directory: the write fails, the run exits 2 and leaves no temp file
    cfg_path, _ = _scenario(tmp_path)
    run = tmp_path / "run"
    run.mkdir()
    (run / "snapshots").write_text("not a directory\n")
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot use output directory")
    (run / "yamabe.json").mkdir()
    assert cli.main(["yamabe", cfg_path, "--quiet"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert not [name for name in os.listdir(run) if name.startswith(".tmp-")]


def _run_child(argv, buffered, **streams):
    """``python -m singular_yamabe argv`` in a child, its standard streams
    as ``streams`` gives them, buffered as a terminal-less run is or not."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "singular_yamabe", *argv], env=env,
                          timeout=60, **streams)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--dump-default-config"], ["validate"], ["--help"],
                                  ["flow", "--help"]],
                         ids=["dump-default-config", "validate", "help", "flow-help"])
def test_unwritable_standard_output_exits_2(tmp_path, argv, buffered):
    # standard output on a full device, closed, and on a pipe whose reader
    # is gone: one error line, and nothing more when the interpreter exits
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        children = {"closed pipe": _run_child(argv, buffered, stdout=write_end,
                                              stderr=subprocess.PIPE, text=True)}
    finally:
        os.close(write_end)
    children["closed"] = _run_child(argv, buffered, stderr=subprocess.PIPE, text=True,
                                    preexec_fn=lambda: os.close(1))
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            children["full"] = _run_child(argv, buffered, stdout=full,
                                          stderr=subprocess.PIPE, text=True)
    for where, child in children.items():
        assert child.returncode == cli.EXIT_INPUT, (where, child.stderr)
        assert child.stderr.startswith("error: cannot write standard output: "), where
        assert child.stderr.count("\n") == 1, (where, child.stderr)
    # with --quiet there is nothing to write
    if argv == ["validate"]:
        child = _run_child(argv + ["--quiet", "--output-dir", str(tmp_path)], buffered,
                           stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
        assert (child.returncode, child.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_unwritable_standard_error_keeps_the_exit_code(tmp_path, buffered):
    # a refused scenario, and argparse's usage error
    (tmp_path / "refused.yaml").write_text("grid: {n_cells: 4}\n")
    for argv in (["flow", str(tmp_path / "refused.yaml")], ["--no-such-flag"]):
        with open("/dev/full", "w") as full:
            child = _run_child(argv, buffered, stderr=full)
        assert child.returncode == cli.EXIT_INPUT, argv


def test_artifacts_take_the_umask_mode(tmp_path):
    # a new artifact is 0o666 & ~umask, as a plain open would make it, and a
    # rerun into the same directory replaces every file without a temp left
    cfg_path, _ = _scenario(tmp_path)
    run = tmp_path / "run"
    previous = os.umask(0o022)
    try:
        for _ in range(2):
            assert cli.main(["flow", cfg_path, "--quiet"]) == 0
            assert cli.main(["report", str(run), "--quiet"]) == 0
    finally:
        os.umask(previous)
    files = [path for path in run.rglob("*") if path.is_file()]
    assert {"series.csv", "report.json", "dichotomy.json"} <= {path.name for path in files}
    assert len([path for path in files if path.parent.name == "snapshots"]) == 3
    modes = {path.name: oct(path.stat().st_mode & 0o777) for path in files}
    assert set(modes.values()) == {oct(0o666 & ~0o022)}, modes
    assert not [path for path in files if path.name.startswith(".tmp-")]


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_yamabe_constant_sphere_start_keeps_its_value(tmp_path, n):
    # the constant is the minimizer, so the descent takes no step, and the
    # reported start is the descent's own first value, bit for bit
    cfg_path, data = _scenario(tmp_path, grid={"n_cells": 256})
    data["model"] = {"type": "sphere", "n": n}
    path = tmp_path / "sphere.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main(["yamabe", str(path), "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "yamabe.json").read_text())
    assert payload["iterations"] == 0
    assert payload["value"] == payload["initial_value"]


def test_yamabe_eh_converges_above_the_local_threshold(tmp_path):
    cfg_path, _ = _scenario(tmp_path,
                            grid={"n_cells": 256, "grading": "geometric",
                                  "ratio": 0.97})
    assert cli.main(["yamabe", cfg_path, "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "yamabe.json").read_text())
    assert payload["converged"] is True
    assert payload["initial_value"] == pytest.approx(16.0 * math.pi, rel=1e-9)
    assert payload["value"] < payload["initial_value"]
    assert payload["value"] > payload["reference_constant"]


def test_yamabe_eh_does_not_converge(tmp_path, monkeypatch):
    # the descent above, cut by the iteration cap: exit 4 with the partial result
    monkeypatch.setattr(variational, "_MAX_ITERS", 20)
    cfg_path, _ = _scenario(tmp_path,
                            grid={"n_cells": 256, "grading": "geometric",
                                  "ratio": 0.97})
    assert cli.main(["yamabe", cfg_path, "--quiet"]) == cli.EXIT_NO_CONVERGENCE
    payload = json.loads((tmp_path / "run" / "yamabe.json").read_text())
    assert payload["converged"] is False
    assert payload["iterations"] == 20
    assert payload["initial_value"] == pytest.approx(16.0 * math.pi, rel=1e-9)
    assert payload["value"] < payload["initial_value"]
    assert payload["value"] > payload["reference_constant"]


def test_yamabe_does_not_depend_on_the_core_scale(tmp_path):
    # the core scale only sets the unit of length: the quotient, its descent
    # and the stopping rule are the same at every a
    outputs = {}
    for a in (1e-3, 1.0, 1e200):
        cfg_path = tmp_path / f"a{a:g}.yaml"
        cfg_path.write_text(yaml.safe_dump({"model": {"type": "eguchi-hanson", "a": a}}))
        out = tmp_path / f"a{a:g}"
        code = cli.main(["yamabe", str(cfg_path), "--output-dir", str(out), "--quiet"])
        payload = json.loads((out / "yamabe.json").read_text())
        assert payload.pop("scenario")["model"]["a"] == a
        outputs[a] = code, payload
    assert outputs[1e-3] == outputs[1.0] == outputs[1e200]


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


@pytest.mark.parametrize("n, n_cells", [(10, 4096)] + [(n, 16384) for n in range(3, 11)])
def test_eigen_sphere_large_residual_exits_4(tmp_path, monkeypatch, n, n_cells):
    # lambda1 = n on the round sphere, and in every dimension lambda1 lies
    # below n by the grid's discretization error alone, 4.90230e-8 relative
    # on 4096 cells and 3.06393e-9 on 16384; a shifted refinement in the
    # unsymmetrized pencil read n = 5 on 16384 cells as 4.999999984966,
    # n = 6 as 6.000001064 and refused n = 7 to 10. With no multiple of the
    # residual's round-off scale allowed, the same solve is refused as no
    # result
    _, data = _scenario(tmp_path, grid={"n_cells": n_cells})
    data["model"] = {"type": "sphere", "n": n}
    path = tmp_path / "sphere.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli.main(["eigen", str(path), "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "eigen.json").read_text())
    error = {4096: 4.90230e-8, 16384: 3.06393e-9}[n_cells]
    assert (n - payload["lambda1"]) / n == pytest.approx(error, rel=1e-4)
    assert payload["residual"] <= 1e-6
    monkeypatch.setattr(variational, "_ROUNDOFF_FACTOR", 0.0)
    assert cli.main(["eigen", str(path), "--quiet"]) == cli.EXIT_NO_CONVERGENCE
    payload = json.loads((tmp_path / "run" / "eigen.json").read_text())
    assert payload["lambda1"] is None
    assert "residual" in payload["failure"]


def test_eigen_eh_fine_uniform_grid_solves(tmp_path):
    # the residual of a backward-stable solve grows with the pencil's norm,
    # about 2e-4 relative on 524288 cells, where a fixed bar of 1e-6 refused
    # a correct lambda1
    cfg_path, _ = _scenario(tmp_path, grid={"n_cells": 524288})
    assert cli.main(["eigen", cfg_path, "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "eigen.json").read_text())
    assert payload["lambda1"] == pytest.approx(0.38907816768, rel=1e-9)


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

    # the eigen solve calls its LAPACK routines through the accessor
    monkeypatch.setattr(geo.lapack(), "dstebz", fail)
    cfg_path, _ = _scenario(tmp_path, grid={"n_cells": 64})
    assert cli.main(["eigen", cfg_path, "--quiet"]) == cli.EXIT_NO_CONVERGENCE
    payload = json.loads((tmp_path / "run" / "eigen.json").read_text())
    assert payload["lambda1"] is None
    assert payload["failure"] == "eigenvalue solve failed"


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("value", [1.0e-76, 1.0e-75, 1.0e-52, 1.0e-4, 1.0e70, 1.0e75, 1.0e76,
                                   1.0e77])
def test_eigen_solves_every_normal_start(tmp_path, value):
    # the pencil scales as 1 / v^2 and is solved at unit size, so a start
    # whose volume is a normal double solves like the constant 1: at 1e-76
    # the bisection found no eigenvalue
    scaled = {}
    for v in (1.0, value):
        cfg_path, _ = _scenario(tmp_path, init={"type": "constant", "value": v})
        out = tmp_path / f"v{v:g}"
        assert cli.main(["eigen", cfg_path, "--output-dir", str(out), "--quiet"]) == 0
        payload = json.loads((out / "eigen.json").read_text(), parse_constant=_refuse_constant)
        assert payload["residual"] < 1e-12
        scaled[v] = payload["lambda1"] * v * v
    assert scaled[value] == pytest.approx(scaled[1.0], rel=1e-12)


def test_subnormal_start_is_refused(tmp_path, capsys):
    # a constant 1e-80 leaves the volume and the sum m |v|^p subnormal, and
    # a table holding 1e-90 below x = 0.05 leaves the metric there zero:
    # each is refused with one error line, before the output directory
    table = tmp_path / "tiny.csv"
    table.write_text("".join(f"{x!r},{1e-90 if x < 0.05 else 1.0!r}\n"
                             for x in np.linspace(0.0, 1.0, 64).tolist()))
    # 5e-324, the smallest subnormal, also underflows x v and v^3 to 0
    refused = [(command, {"type": "constant", "value": value})
               for value in (1.0e-80, 5.0e-324) for command in ("flow", "yamabe", "eigen")]
    refused += [("eigen", {"type": "file", "path": str(table)})]
    for command, init in refused:
        cfg_path, _ = _scenario(tmp_path, init=init)
        assert cli.main([command, cfg_path, "--quiet"]) == cli.EXIT_INPUT, (command, init)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()
    # a start of 1e-75 keeps a normal volume and runs
    for command in ("flow", "yamabe"):
        cfg_path, _ = _scenario(tmp_path, init={"type": "constant", "value": 1.0e-75})
        assert cli.main([command, cfg_path, "--quiet"]) == cli.EXIT_OK, command


def _keeps_the_bad_input_contract(tmp_path, capsys, scenario):
    """Run flow, report, eigen and yamabe on ``scenario``, writing into a
    fresh directory: each command exits 0, 2, 3 or 4, prints nothing under
    --quiet but one error line on a refusal, and writes only JSON that strict
    parsers read, and report reads every run that flow finished or ended
    early."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        run, cfg_path = Path(tmp) / "run", Path(tmp) / "scenario.yaml"
        cfg_path.write_text(yaml.safe_dump({**scenario, "output": {"dir": str(run)}}))
        codes = {}
        for argv in (["flow", str(cfg_path)], ["report", str(run)],
                     ["eigen", str(cfg_path)], ["yamabe", str(cfg_path)]):
            code = codes[argv[0]] = cli.main([*argv, "--quiet"])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3, 4), (argv, code)
            assert out == "", (argv, out)
            if code == cli.EXIT_INPUT:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            else:
                assert err == "", (argv, err)
        if codes["flow"] in (cli.EXIT_OK, cli.EXIT_POSITIVITY):
            assert codes["report"] == cli.EXIT_OK
        for path in run.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)


@given(value=st.floats(-323.3, 100.0).map(lambda e: 10.0**e),
       exponents=st.lists(st.sampled_from([2, 3, 50, 400]), min_size=1, max_size=3,
                          unique=True),
       n_cells=st.sampled_from([16, 32]), grading=st.sampled_from(["uniform", "geometric"]))
# the moment of order 50 passes the double range: report once wrote Infinity
@example(value=1.0e-9, exponents=[2, 50], n_cells=64, grading="uniform")
# x v and v^3 underflow to 0: the start's 0/0 once warned before its error line
@example(value=5.0e-324, exponents=[2, 3], n_cells=64, grading="uniform")
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_constant_starts_keep_the_bad_input_contract(tmp_path, capsys, value, exponents,
                                                      n_cells, grading):
    # a constant start between the smallest subnormal and 1e100 (log-uniform)
    _keeps_the_bad_input_contract(tmp_path, capsys, {
        "grid": {"n_cells": n_cells, "grading": grading, "ratio": 0.97},
        "init": {"type": "constant", "value": value},
        "diagnostics": {"f_p_exponents": exponents},
    })


# (cells, grading): 32 geometric cells are left out for time alone; from a
# core of 1e-50 cut at 0.05, flow takes 66834 steps there, 2736 on 32 uniform
@given(exponent=st.floats(-110.0, 0.0), cut=st.sampled_from([0.02, 0.05, 0.2]),
       grid=st.sampled_from([(16, "uniform"), (16, "geometric"), (32, "uniform")]))
# the curvature deviation moments of the first step pass the double range:
# flow once wrote F3 = inf into series.csv, which report then refused
@example(exponent=-90.0, cut=0.05, grid=(16, "uniform"))
# those of the start itself do: flow once wrote them and exited 0
@example(exponent=-75.0, cut=0.05, grid=(16, "uniform"))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_file_starts_with_a_tiny_core_keep_the_bad_input_contract(tmp_path, capsys, exponent,
                                                                  cut, grid):
    # a 64-row table holding 10^exponent below x = cut and 1 above
    n_cells, grading = grid
    table = tmp_path / "core.csv"
    table.write_text("".join(f"{x!r},{10.0**exponent if x < cut else 1.0!r}\n"
                             for x in np.linspace(0.0, 1.0, 64).tolist()))
    _keeps_the_bad_input_contract(tmp_path, capsys, {
        "grid": {"n_cells": n_cells, "grading": grading, "ratio": 0.97},
        "init": {"type": "file", "path": str(table)},
    })


def test_start_whose_cube_underflows_is_refused(tmp_path, capsys):
    # 1e-110 below x = 0.04 cubes to zero, which gives those cells infinite
    # curvature: the start is refused with one error line, before the output
    # directory, where it once wrote a series row of nan and exited 3
    table = tmp_path / "tiny.csv"
    table.write_text("".join(f"{x!r},{1e-110 if x < 0.04 else 1.0!r}\n"
                             for x in np.linspace(0.0, 1.0, 64).tolist()))
    cfg_path, _ = _scenario(tmp_path, init={"type": "file", "path": str(table)})
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: cannot start the run: profile curvature is not finite in ")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


def test_cube_underflow_mid_run_exits_3(tmp_path, monkeypatch):
    # the same cube reached by a step ends the run with its partial artifacts
    def underflow(state, h):
        w = state.v**3
        w[:3] = 1e-320
        return flow._cube_state(state, w, state.t + h), 0.0

    monkeypatch.setattr(flow, "rosenbrock_step", underflow)
    cfg_path, _ = _scenario(tmp_path)
    assert cli.main(["flow", cfg_path, "--quiet"]) == cli.EXIT_POSITIVITY
    outdir = tmp_path / "run"
    assert "profile curvature is not finite" in (outdir / "FAILED").read_text()
    assert json.loads((outdir / "report.json").read_text())["completed"] is False


def test_report_dichotomy(tmp_path):
    cfg_path, _ = _scenario(tmp_path)
    outdir = str(tmp_path / "run")
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    assert cli.main(["report", outdir, "--quiet"]) == 0
    payload = json.loads((tmp_path / "run" / "dichotomy.json").read_text(),
                         parse_constant=_refuse_constant)

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


def _set_f2(row, cell):
    cells = row.split(",")
    cells[3] = cell
    return ",".join(cells)


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
    "nan_series_cell": _edit_series_row(lambda row: _set_f2(row, "nan")),
    "overflowing_series_cell": _edit_series_row(lambda row: _set_f2(row, "1e400")),
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


def test_report_in_the_run_directory_names_its_file(small_run, tmp_path, monkeypatch, capsys):
    # `report ""` reads and writes the current directory; its message once
    # named /dichotomy.json, a file at the file system root
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    monkeypatch.chdir(run)
    assert cli.main(["report", ""]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "report in dichotomy.json"
    assert (run / "dichotomy.json").is_file()


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


def _scipy_modules_after(statement):
    """The scipy modules, sorted, that a child interpreter holds after the
    statement, with numpy.f2py's, which scipy's package code imports."""
    code = (
        "import contextlib, io, sys\n"
        "from singular_yamabe import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert {statement} == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_child_env())
    return out.stdout.strip()


def _concentrated_run(tmp_path):
    """A run directory on 512 geometric cells whose final snapshot is the
    bubble 2 eps / (eps^2 + d^2), eps = 0.02, at volume 2."""
    tmp_path.mkdir()
    cfg_path, _ = _scenario(tmp_path, grid={"n_cells": 512, "grading": "geometric"},
                            time={"t_end": 1e-8, "snapshot_every": 0.0})
    assert cli.main(["flow", cfg_path, "--quiet"]) == 0
    run = tmp_path / "run"
    grid = geo.build_grid(512, "geometric")
    v = 0.04 / (0.02**2 + geo.distance_from_singular_point(grid.cell_centers) ** 2)
    v *= (2.0 / np.sum(v**4 * grid.weights)) ** 0.25
    final = json.loads((run / "report.json").read_text())["artifacts"]["snapshots"][-1]
    (run / final).write_text("".join(f"{x!r},{value!r}\n" for x, value in
                                     zip(grid.cell_centers.tolist(), v.tolist())))
    return run


def test_commands_load_scipy_only_to_solve(small_run, tmp_path):
    # no command here makes a LAPACK call, so none pays for scipy
    assert _scipy_modules_after("cli.main(['--dump-default-config'])") == "[]"
    assert _scipy_modules_after("cli.main(['validate', '--quiet'])") == "[]"
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    assert _scipy_modules_after(f"cli.main(['report', {str(run)!r}, '--quiet'])") == "[]"
    assert json.loads((run / "dichotomy.json").read_text())["bubble_fit"] is None
    # nor does the bubble fit of a run that concentrates
    run = _concentrated_run(tmp_path / "concentrated")
    assert _scipy_modules_after(f"cli.main(['report', {str(run)!r}, '--quiet'])") == "[]"
    fit = json.loads((run / "dichotomy.json").read_text())["bubble_fit"]
    assert fit["scale_eps_lambda"] == pytest.approx(0.02, rel=1e-10)


def test_solving_commands_load_only_the_lapack_extension(tmp_path):
    # the solves load scipy's compiled LAPACK extension and nothing else of
    # scipy; the interpreter records that single-phase extension module
    # under its own name
    lapack_only = ("[]", "['scipy.linalg._flapack']")
    cfg_path, data = _scenario(tmp_path)
    assert _scipy_modules_after(f"cli.main(['flow', {cfg_path!r}, '--quiet'])") in lapack_only
    data["model"] = {"type": "sphere", "n": 4}
    sphere = tmp_path / "sphere.yaml"
    sphere.write_text(yaml.safe_dump(data))
    for path in (cfg_path, str(sphere)):
        for command in ("yamabe", "eigen"):
            loaded = _scipy_modules_after(f"cli.main([{command!r}, {path!r}, '--quiet'])")
            assert loaded in lapack_only, (command, path)


def test_sphere_model_refuses_a_graded_grid(tmp_path, capsys):
    # the polar grid of the sphere model is uniform: a grading is refused,
    # not ignored, before the output directory is made
    _, data = _scenario(tmp_path, grid={"grading": "geometric", "ratio": 0.5})
    data["model"] = {"type": "sphere", "n": 4}
    path = tmp_path / "sphere.yaml"
    path.write_text(yaml.safe_dump(data))
    for command in ("yamabe", "eigen"):
        assert cli.main([command, str(path), "--quiet"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            "error: grid.grading must be uniform for the sphere model")
    assert not (tmp_path / "run").exists()


def test_quotient_results_do_not_depend_on_blas_threads(tmp_path):
    # above 10^4 cells a BLAS dot splits its sum over the threads, and a split
    # sum rounds differently; the quotient and spectral reductions, and the
    # flow state's curvature mean that eigen writes as sigma_inf, do not.
    # Each start is 1 + 0.05 cos(k pi t / L + 0.7) on [0, L].
    runs = {}
    for model, length, k, commands in (
            ({"type": "sphere", "n": 4}, math.pi, 2, ("yamabe", "eigen")),
            ({"type": "eguchi-hanson"}, 1.0, 1, ("yamabe", "eigen"))):
        start = tmp_path / f"{model['type']}.csv"
        values = (1.0 + 0.05 * math.cos(k * math.pi * j / 63 + 0.7) for j in range(64))
        start.write_text("".join(f"{length * j / 63!r},{v!r}\n" for j, v in enumerate(values)))
        config = tmp_path / f"{model['type']}.yaml"
        config.write_text(yaml.safe_dump({"model": model, "grid": {"n_cells": 16384},
                                          "init": {"type": "file", "path": str(start)}}))
        runs[model["type"]] = (config, commands)
    outputs = {}
    for threads in ("1", "2"):
        env = _child_env()
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        for model, (config, commands) in runs.items():
            out = tmp_path / f"{model}-threads{threads}"
            for command in commands:
                subprocess.run([sys.executable, "-m", "singular_yamabe", command, config,
                                "--output-dir", str(out), "--quiet"], check=True, env=env)
            outputs[model, threads] = out
    for model in ("sphere", "eguchi-hanson"):
        for name in ("yamabe.json", "eigen.json"):
            assert ((outputs[model, "1"] / name).read_bytes()
                    == (outputs[model, "2"] / name).read_bytes()), (model, name)


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
    # PYTHONPROFILEIMPORTTIME is -X importtime for whichever interpreter the
    # entry point starts: each import is a line on stderr, and printing the
    # default scenario imports no numpy and no PyYAML
    env = {**_child_env(), "PYTHONPROFILEIMPORTTIME": "1"}
    for command in commands:
        out = subprocess.run(command + ["--dump-default-config"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, (command, out.stderr)
        assert yaml.safe_load(out.stdout)["model"]["type"] == "eguchi-hanson"
        imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "singular_yamabe.cli" in imported, (command, out.stderr)
        unwanted = [name for name in imported if name.split(".")[0] in ("numpy", "yaml")]
        assert not unwanted, (command, unwanted)
