"""Benchmark of the singular_yamabe command line, run the way its users run it.

Each workload is a fixed sequence of fresh ``python -m singular_yamabe``
processes, started one at a time from this script with PYTHONPATH=src (no
install step) and single-threaded BLAS.  Every command's exit code and
outputs are checked; a command failing its check counts as failed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]

A run first times SETUP_SAMPLES fresh ``--dump-default-config`` processes
(setup_s), then repeats the workload's command sequence while the next
repetition still fits in --seconds, and at least MIN_REPS times so that the
byte-identity check always compares two repetitions.  --seconds 0 therefore
runs the checks once over the minimum (the untimed mode).  Metrics are
medians over the repetitions of wall times scaled for the machine's speed
drift (see SpeedScale).

--trace 1 alternates untraced repetitions with traced ones, in which every
command runs under perfbench/traced_cli.py; it reports the per-layer metrics
from the traced repetitions and the tracing overhead as the traced minus the
untraced wall_s.  --workload all runs every workload untraced and traced.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the environment
and a table of medians with quartiles and sample counts.  perfbench/README.md
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
TRACED_CLI = BENCH_DIR / "traced_cli.py"

SETUP_SAMPLES = 5
PROBE_REF_S = 0.3  # probe time at which scaled seconds equal wall seconds
MIN_REPS = 2
DEADLINE_S = 170.0  # a run stops starting work after this and ends within 180 s

FLOW_WORKLOADS = {
    "long-horizon-256": {"grid": {"n_cells": 256, "grading": "uniform", "ratio": 0.97},
                         "t_end": 2.0},
    "stiff-geometric-512": {"grid": {"n_cells": 512, "grading": "geometric", "ratio": 0.97},
                            "t_end": 4e-5},
}
QUOTIENT_WORKLOAD = "quotient-spectral-16384"
QUOTIENT_CELLS = 16384
WORKLOADS = (*FLOW_WORKLOADS, QUOTIENT_WORKLOAD)

# Output checks, fixed by the benchmark rather than read from the program.
SIGMA_RISE_TOL = 1e-9       # sigma_tilde may not rise by more between series rows
VOLUME_DRIFT_TOL = 1e-6     # |volume / target - 1| on every series row
PROFILE_TOL = 1e-5          # final snapshot vs the committed reference, max norm
MOTION_TOL = 1e-3           # ... and vs how far the reference moved from its start
SPHERE_CONSTANT = 8.0 * math.sqrt(6.0) * math.pi   # Yamabe constant of S^4
SPHERE_VALUE_TOL = 1e-6
SPHERE_LAMBDA1 = 4.0
SPHERE_LAMBDA1_TOL = 1e-6
EIGEN_TOL = 1e-10           # the eigen solver's own stopping rule, tol * max(1, |lambda|)
FLAG_KEYS = ("small_energy_ok", "low_average_ok", "max_bubble_count",
             "concentration_detected")

END_TO_END = {"setup_s": "s", "wall_s": "s", "solve_s": "s", "post_s": "s",
              "peak_rss_mb": "MB"}
# Summed wall time of each command kind; solve_s and post_s group them.
COMMAND_METRICS = {"flow_s": "solve", "yamabe_s": "solve", "eigen_s": "solve",
                   "report_s": "post", "validate_s": "post"}


class CheckError(Exception):
    """A command's exit code or outputs are wrong."""


class BenchError(Exception):
    """The benchmark cannot run here (no program, no reference)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("SINGULAR_YAMABE_THREADS", "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Outcome:
    code: int
    wall_s: float
    rss_mb: float
    log: Path


def spawn(argv: list, log: Path, timeout: float) -> Outcome:
    """Run one process to completion; wall time and peak RSS come from wait4."""
    done = threading.Event()
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)

        def kill_if_running():
            if not done.is_set():
                proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill_if_running)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            done.set()
        except BaseException:
            done.set()
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


def probe_s() -> float:
    """Time a fixed numpy and interpreter kernel in this process.

    The kernel mixes the small-array steps of the flow with large-array
    sweeps like the quotient descent's, and takes about PROBE_REF_S.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for n, iters in ((256, 8000), (16384, 800)):
        x = np.linspace(0.01, 1.0, n)
        v = np.full(n, 1.3)
        for _ in range(iters):
            w = v**3
            flux = np.diff(x * v) / np.diff(x)
            acc += float((w * x).sum()) + float(flux[0])
            v = np.cbrt(w * (1.0 + 1e-15 * acc))
    table = {}
    for i in range(400000):
        acc += (i % 7) * 0.5
        table[i & 255] = acc
    return time.perf_counter() - start


class SpeedScale:
    """Scales wall times to a machine on which probe_s() takes PROBE_REF_S.

    On a shared machine the processor's speed drifts by up to a factor two
    within minutes, and every process on it slows alike.  The probe runs
    right before and right after each timed process; the wall time is scaled
    by PROBE_REF_S over the mean of the two.  The program never runs during
    a probe, so its own speed changes pass through unscaled.
    """

    def __init__(self):
        probe_s()  # the first call pays the numpy import
        self.before = probe_s()
        self.probes = [self.before]

    def __call__(self, wall_s: float) -> float:
        after = probe_s()
        self.probes.append(after)
        scale = PROBE_REF_S / (0.5 * (self.before + after))
        self.before = after
        return wall_s * scale


def cli_argv(args: list, spans: Path | None = None) -> list:
    if spans is None:
        return [sys.executable, "-m", "singular_yamabe", *map(str, args)]
    return [sys.executable, str(TRACED_CLI), str(spans), *map(str, args)]


def yaml_text(value) -> str:
    """YAML flow text for plain data.  Unlike JSON it spells 4e-05 as 4.0e-05,
    which YAML 1.1 readers need to see a number."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {yaml_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(yaml_text, value)) + "]"
    if isinstance(value, float):
        mantissa, e, exponent = repr(value).partition("e")
        return mantissa + ("" if "." in mantissa else ".0") + e + exponent
    return json.dumps(value)


def write_scenario(path: Path, scenario: dict) -> Path:
    path.write_text("".join(f"{k}: {yaml_text(v)}\n" for k, v in scenario.items()),
                    encoding="utf-8")
    return path


def flow_scenario(name: str, safety: float = 0.4) -> dict:
    spec = FLOW_WORKLOADS[name]
    return {
        "model": {"type": "eguchi-hanson", "a": 1.0},
        "grid": dict(spec["grid"]),
        "time": {"t_end": spec["t_end"], "safety": safety, "renorm_every": 20,
                 "snapshot_every": 0.005},
        "init": {"type": "constant", "value": None},
        "diagnostics": {"cutoffs": [0.1, 0.05], "f_p_exponents": [2, 3]},
        "output": {"dir": "runs/perfbench"},
    }


def read_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        raise CheckError(f"cannot read {path.name}: {err}") from err


def read_profile(path: Path) -> list:
    """The v column of a two-column x,v snapshot."""
    with open(path, encoding="utf-8") as handle:
        return [float(line.split(",")[1]) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# workloads: command sequences with their output checks
# ---------------------------------------------------------------------------


@dataclass
class Command:
    label: str                         # names the command in facts and failures
    metric: str                        # key of COMMAND_METRICS
    args: list                         # after `python -m singular_yamabe`
    check: Callable[[int], dict]       # exit code -> facts; raises CheckError


def flow_commands(name: str, config: Path, out: Path, reference: dict) -> list:
    """flow then report, writing into ``out``; flow's artifacts must be
    byte-identical across the repetitions that reuse these commands."""
    t_end = FLOW_WORKLOADS[name]["t_end"]
    first_digest: list = []

    def check_flow(code: int) -> dict:
        if code != 0:
            raise CheckError(f"flow exited {code}")
        meta = read_json(out / "report.json")
        final_t = meta["final"]["t"]
        if not meta.get("completed") or abs(final_t - t_end) > 1e-12 * t_end:
            raise CheckError(f"flow ended at t={final_t!r}, not t_end={t_end!r}")
        series, digest, dts = out / "series.csv", hashlib.sha256(), []
        with open(series, "rb") as handle:
            data = handle.read()
        digest.update(data)
        lines = data.decode().splitlines()
        header = lines[0].split(",")
        i_sigma, i_volume, i_dt = (header.index(k) for k in ("sigma_tilde", "volume", "dt"))
        target = prev_sigma = None
        for line in lines[1:]:
            row = line.split(",")
            sigma, volume = float(row[i_sigma]), float(row[i_volume])
            target = volume if target is None else target
            if prev_sigma is not None and sigma - prev_sigma > SIGMA_RISE_TOL:
                raise CheckError(f"sigma_tilde rose by {sigma - prev_sigma:.3g}")
            if abs(volume / target - 1.0) > VOLUME_DRIFT_TOL:
                raise CheckError(f"volume drift {volume / target - 1.0:.3g}")
            prev_sigma = sigma
            dts.append(float(row[i_dt]))
        if len(lines) - 1 != meta["steps"] + 1:
            raise CheckError("series.csv does not hold one row per step")
        snapshots = meta["artifacts"]["snapshots"]
        size = series.stat().st_size + (out / "report.json").stat().st_size
        for rel in snapshots:
            blob = (out / rel).read_bytes()
            digest.update(rel.encode() + b"\0" + blob)
            size += len(blob)
        final_v = read_profile(out / snapshots[-1])
        ref_v, start_v = reference["final_v"], reference["initial_v"]
        if len(final_v) != len(ref_v):
            raise CheckError("final snapshot does not match the reference grid")
        error = max(abs(a - b) for a, b in zip(final_v, ref_v))
        motion = max(abs(a - b) for a, b in zip(ref_v, start_v))
        if error > PROFILE_TOL * max(map(abs, ref_v)) or error > MOTION_TOL * motion:
            raise CheckError(f"final profile {error:.3g} from the reference, "
                             f"which moved {motion:.3g} from its start")
        first_digest[:] = first_digest or [digest.hexdigest()]
        if first_digest[0] != digest.hexdigest():
            raise CheckError("artifacts differ from the first repetition's")
        # dt_min leaves out the last step, which flow.run clips to end at t_end.
        return {"steps": meta["steps"], "rows": len(lines) - 1,
                "snapshot_files": len(snapshots), "artifact_bytes": size,
                "dt_min": min(dts[1:-1] or dts[1:]), "dt_median": statistics.median(dts[1:])}

    def check_report(code: int) -> dict:
        if code != 0:
            raise CheckError(f"report exited {code}")
        flags = read_json(out / "dichotomy.json")["dichotomy"]
        got = {k: flags.get(k) for k in FLAG_KEYS}
        if got != reference["flags"]:
            raise CheckError(f"dichotomy flags {got} differ from {reference['flags']}")
        return {}

    return [Command("flow", "flow_s", ["flow", config, "--output-dir", out, "--quiet"],
                    check_flow),
            Command("report", "report_s", ["report", out, "--quiet"], check_report)]


def perturbed_profile(rng: random.Random, upper: float) -> str:
    """64 samples of 1 + 5% cos(k pi x / upper + phase) on [0, upper], as x,v lines."""
    mode, phase = rng.randint(1, 3), rng.uniform(0.0, 2.0 * math.pi)
    xs = [upper * j / 63 for j in range(64)]
    return "".join(f"{x!r},{1.0 + 0.05 * math.cos(mode * math.pi * x / upper + phase)!r}\n"
                   for x in xs)


def quotient_commands(inputs: Path, out: Path, seed: int) -> list:
    rng = random.Random(seed)
    models = {"eh": ({"type": "eguchi-hanson", "a": 1.0}, 1.0),
              "sphere": ({"type": "sphere", "n": 4}, math.pi)}
    configs = {}
    for key, (model, upper) in models.items():
        profile = inputs / f"start_{key}.csv"
        profile.write_text(perturbed_profile(rng, upper), encoding="utf-8")
        configs[key] = write_scenario(inputs / f"{key}.yaml", {
            "model": model,
            "grid": {"n_cells": QUOTIENT_CELLS, "grading": "uniform"},
            "init": {"type": "file", "path": str(profile)},
            "output": {"dir": "runs/perfbench"},
        })

    def check_yamabe(key):
        def check(code: int) -> dict:
            if code not in (0, 4):
                raise CheckError(f"yamabe {key} exited {code}")
            result = read_json(out / key / "yamabe.json")
            value = result["value"]
            if not value <= result["initial_value"]:
                raise CheckError(f"yamabe {key} raised the quotient to {value!r}")
            if key == "sphere" and value < SPHERE_CONSTANT * (1.0 - SPHERE_VALUE_TOL):
                raise CheckError(f"sphere quotient {value!r} below the sphere constant")
            if (code == 0) != result["converged"]:
                raise CheckError(f"yamabe {key} exit {code} contradicts converged")
            return {"converged": result["converged"], "iterations": result["iterations"],
                    "gap": value / result["reference_constant"] - 1.0}
        return check

    def check_eigen(key):
        def check(code: int) -> dict:
            if code != 0:
                raise CheckError(f"eigen {key} exited {code}")
            result = read_json(out / key / "eigen.json")
            lam, residual = result["lambda1"], result["residual"]
            if not (isinstance(lam, float) and math.isfinite(lam) and lam > 0.0):
                raise CheckError(f"eigen {key} gave lambda1={lam!r}")
            if key == "sphere" and abs(lam - SPHERE_LAMBDA1) > SPHERE_LAMBDA1_TOL:
                raise CheckError(f"sphere lambda1 {lam!r} is not 4")
            return {"converged": residual <= EIGEN_TOL * max(1.0, abs(lam)),
                    "residual": residual}
        return check

    def check_validate(code: int) -> dict:
        if code != 0:
            raise CheckError(f"validate exited {code}")
        if read_json(out / "validate" / "validate.json").get("all_pass") is not True:
            raise CheckError("validate reports a failing check")
        return {}

    return [
        *(Command(f"yamabe {k}", "yamabe_s",
                  ["yamabe", configs[k], "--output-dir", out / k, "--quiet"], check_yamabe(k))
          for k in models),
        *(Command(f"eigen {k}", "eigen_s",
                  ["eigen", configs[k], "--output-dir", out / k, "--quiet"], check_eigen(k))
          for k in models),
        Command("validate", "validate_s", ["validate", "--output-dir", out / "validate",
                                           "--quiet"], check_validate),
    ]


def load_reference(name: str) -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][name]
    except (OSError, ValueError, KeyError) as err:
        raise BenchError(f"no reference for {name} in {REFERENCE}: {err}") from err


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    traced: bool
    times: dict = field(default_factory=dict)      # COMMAND_METRICS key -> scaled seconds
    raw: dict = field(default_factory=dict)        # the same, unscaled wall seconds
    facts: dict = field(default_factory=dict)      # command label -> check facts
    spans: list = field(default_factory=list)      # traced_cli output per command
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    elapsed: float = 0.0                            # including the output checks

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def run_rep(commands: list, rep_dir: Path, traced: bool, deadline: float,
            scale: SpeedScale) -> Rep:
    rep = Rep(traced)
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        spans = rep_dir / f"spans_{i}.json" if traced else None
        outcome = spawn(cli_argv(cmd.args, spans), rep_dir / f"cmd_{i}.log",
                        deadline - time.perf_counter())
        rep.attempted += 1
        rep.times[cmd.metric] = rep.times.get(cmd.metric, 0.0) + scale(outcome.wall_s)
        rep.raw[cmd.metric] = rep.raw.get(cmd.metric, 0.0) + outcome.wall_s
        rep.rss_mb = max(rep.rss_mb, outcome.rss_mb)
        try:
            rep.facts[cmd.label] = cmd.check(outcome.code)
            if spans is not None:
                rep.spans.append(read_json(spans))
        except Exception as err:  # any malformed output fails the command, not the run
            rep.failed += 1
            rep.problems.append(f"{cmd.label}: {type(err).__name__}: {err}")
    rep.elapsed = time.perf_counter() - start
    return rep


def check_setup(outcome: Outcome) -> None:
    if outcome.code != 0:
        raise CheckError(f"--dump-default-config exited {outcome.code}")
    if not outcome.log.read_text(encoding="utf-8").startswith("model:"):
        raise CheckError("--dump-default-config printed no scenario")


@dataclass
class RunResult:
    workload: str
    trace: bool
    setup: list
    setup_raw: list
    probes: list
    reps: list
    attempted: int
    failed: int
    problems: list


def remove_work(work: Path) -> None:
    """Remove a per-run work directory, and perfbench/.work once it is empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    work = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    try:
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        warm = spawn(cli_argv(["--dump-default-config"]), work / "warmup.log",
                     deadline - time.perf_counter())
        try:
            check_setup(warm)   # also compiles the package's bytecode, as an install would
        except CheckError as err:
            raise BenchError(f"the program does not start: {err}") from err

        attempted = failed = 0
        problems, setup, setup_raw = [], [], []
        scale = SpeedScale()
        for i in range(SETUP_SAMPLES):
            outcome = spawn(cli_argv(["--dump-default-config"]), work / f"setup_{i}.log",
                            deadline - time.perf_counter())
            setup_scaled = scale(outcome.wall_s)
            attempted += 1
            try:
                check_setup(outcome)
                setup.append(setup_scaled)
                setup_raw.append(outcome.wall_s)
            except CheckError as err:
                failed += 1
                problems.append(str(err))

        out = work / "out"
        if name in FLOW_WORKLOADS:
            config = write_scenario(inputs / "scenario.yaml", flow_scenario(name))
            commands = flow_commands(name, config, out, load_reference(name))
        else:
            commands = quotient_commands(inputs, out, seed)
        reps = []
        while True:
            rep_dir = work / f"rep_{len(reps)}"
            out.mkdir()
            rep_dir.mkdir()
            rep = run_rep(commands, rep_dir, trace and len(reps) % 2 == 1, deadline, scale)
            shutil.rmtree(out)
            shutil.rmtree(rep_dir)
            reps.append(rep)
            attempted += rep.attempted
            failed += rep.failed
            problems += rep.problems
            now = time.perf_counter()
            estimate = max(r.elapsed for r in reps[-2:])
            if now + estimate > deadline:
                break
            if len(reps) >= MIN_REPS and now + estimate > start + seconds:
                break
        return RunResult(name, trace, setup, setup_raw, scale.probes, reps, attempted,
                         failed, problems)
    finally:
        remove_work(work)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def samples(result: RunResult, raw: bool = False) -> dict:
    """Per-repetition values of the end-to-end metrics and of each command
    kind's time, from the untraced repetitions; scaled seconds unless raw."""
    untraced = [r for r in result.reps if not r.traced]
    times = [r.raw if raw else r.times for r in untraced]

    def phase(t, name):
        return sum(v for m, v in t.items() if COMMAND_METRICS[m] == name)

    values = {
        "setup_s": result.setup_raw if raw else result.setup,
        "wall_s": [sum(t.values()) for t in times],
        "solve_s": [phase(t, "solve") for t in times],
        "post_s": [phase(t, "post") for t in times],
        "peak_rss_mb": [r.rss_mb for r in untraced],
    }
    values.update({m: [t[m] for t in times] for m in COMMAND_METRICS
                   if times and m in times[0]})
    return values


def end_to_end(result: RunResult) -> dict:
    values = samples(result)
    return {name: median(values[name]) for name in END_TO_END}


def converged(rep: Rep, command: str) -> tuple:
    """(converged, run) counts of a command kind over both models."""
    facts = [f for label, f in rep.facts.items() if label.split()[0] == command]
    return sum(bool(f["converged"]) for f in facts), len(facts)


PER_LAYER = {
    "cli.import_s": "s", "cli.load_config_s": "s", "cli.write_series_csv_s": "s",
    "cli.series_rows": "count", "cli.write_snapshots_s": "s", "cli.snapshot_files": "count",
    "cli.artifact_bytes": "bytes", "cli.read_series_csv_s": "s", "cli.self_s": "s",
    "geometry.scalar_from_v.calls": "count", "geometry.scalar_from_v.self_s": "s",
    "geometry.scalar_from_v.us_per_call": "us", "geometry.build_grid_s": "s",
    "geometry.quadrature_s": "s",
    "flow.steps": "count", "flow.dt_min": "sim_t", "flow.dt_median": "sim_t",
    "flow.curvature_evals_per_step": "count", "flow.step.self_s": "s",
    "flow.step.us_per_call": "us", "flow.stable_dt.self_s": "s",
    "flow.renormalize.calls": "count", "flow.renormalize.self_s": "s",
    "flow.mass_fraction.self_s": "s", "flow.run_s": "s", "flow.run.self_s": "s",
    "flow.renorm_drift_max": "ratio",
    "variational.minimize_quotient.iterations": "count",
    "variational.minimize_quotient.self_s": "s",
    "variational.minimize_quotient.us_per_iter": "us",
    "variational.minimize_quotient.converged_ratio": "ratio",
    "variational.minimize_quotient.gap": "ratio",
    "variational.minimize_quotient.gap_eh": "ratio",
    "variational.first_eigenvalue.self_s": "s",
    "variational.first_eigenvalue.residual": "norm",
    "variational.sphere_first_eigenvalue.self_s": "s",
    "variational.sphere_first_eigenvalue.residual": "norm",
    "variational.first_eigenvalue.converged_ratio": "ratio",
    "diagnostics.build_dichotomy_report.self_s": "s",
    "diagnostics.decay_rate_fit.self_s": "s", "diagnostics.f_p.self_s": "s",
    "diagnostics.sup_bound_check.self_s": "s",
    "diagnostics.green_identity_residual.self_s": "s",
    "diagnostics.bubble_fit.calls": "count",
    "trace.spans": "count", "trace.wall_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition; 0 where a layer does no work."""
    spans: dict = {}
    values: dict = {}
    import_s = 0.0
    for record in rep.spans:
        import_s += record["import_s"]
        for name, (calls, total, self_s) in record["spans"].items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, vals in record["values"].items():
            values.setdefault(name, []).extend(vals)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    def fact(label, key, default=0.0):
        return rep.facts.get(label, {}).get(key, default)

    steps = fact("flow", "steps", 0)
    iterations = fact("yamabe eh", "iterations", 0) + fact("yamabe sphere", "iterations", 0)
    yamabe_ok, yamabe_n = converged(rep, "yamabe")
    eigen_ok, eigen_n = converged(rep, "eigen")
    return {
        "cli.import_s": import_s,
        "cli.load_config_s": total("cli.load_config"),
        "cli.write_series_csv_s": total("cli.write_series_csv"),
        "cli.series_rows": fact("flow", "rows", 0),
        "cli.write_snapshots_s": total("cli.write_snapshots"),
        "cli.snapshot_files": fact("flow", "snapshot_files", 0),
        "cli.artifact_bytes": fact("flow", "artifact_bytes", 0),
        "cli.read_series_csv_s": total("cli.read_series_csv"),
        "cli.self_s": sum(agg[2] for n, agg in spans.items() if n.startswith("cli.")),
        "geometry.scalar_from_v.calls": calls("geometry.scalar_from_v"),
        "geometry.scalar_from_v.self_s": self_s("geometry.scalar_from_v"),
        "geometry.scalar_from_v.us_per_call": per(self_s("geometry.scalar_from_v"),
                                                  calls("geometry.scalar_from_v"), 1e6),
        "geometry.build_grid_s": total("geometry.build_grid", "geometry.build_sphere_model"),
        "geometry.quadrature_s": total("geometry.eh_volume_quadrature",
                                       "geometry.eh_scalar_l2_energy",
                                       "geometry.eh_distance_to_infinity"),
        "flow.steps": steps,
        "flow.dt_min": fact("flow", "dt_min"),
        "flow.dt_median": fact("flow", "dt_median"),
        "flow.curvature_evals_per_step": per(sum(values.get("flow.run.scalar_from_v_calls", [])),
                                             steps),
        "flow.step.self_s": self_s("flow.step"),
        "flow.step.us_per_call": per(self_s("flow.step"), calls("flow.step"), 1e6),
        "flow.stable_dt.self_s": self_s("flow.stable_dt"),
        "flow.renormalize.calls": calls("flow.renormalize"),
        "flow.renormalize.self_s": self_s("flow.renormalize"),
        "flow.mass_fraction.self_s": self_s("flow.mass_fraction"),
        "flow.run_s": total("flow.run"),
        "flow.run.self_s": self_s("flow.run"),
        "flow.renorm_drift_max": max(values.get("flow.renorm_drift", [0.0])),
        "variational.minimize_quotient.iterations": iterations,
        "variational.minimize_quotient.self_s": self_s("variational.minimize_quotient"),
        "variational.minimize_quotient.us_per_iter": per(
            self_s("variational.minimize_quotient"), iterations, 1e6),
        "variational.minimize_quotient.converged_ratio": per(yamabe_ok, yamabe_n),
        "variational.minimize_quotient.gap": fact("yamabe sphere", "gap"),
        "variational.minimize_quotient.gap_eh": fact("yamabe eh", "gap"),
        "variational.first_eigenvalue.self_s": self_s("variational.first_eigenvalue"),
        "variational.first_eigenvalue.residual": fact("eigen eh", "residual"),
        "variational.sphere_first_eigenvalue.self_s":
            self_s("variational.sphere_first_eigenvalue"),
        "variational.sphere_first_eigenvalue.residual": fact("eigen sphere", "residual"),
        "variational.first_eigenvalue.converged_ratio": per(eigen_ok, eigen_n),
        "diagnostics.build_dichotomy_report.self_s":
            self_s("diagnostics.build_dichotomy_report"),
        "diagnostics.decay_rate_fit.self_s": self_s("diagnostics.decay_rate_fit"),
        "diagnostics.f_p.self_s": self_s("diagnostics.f_p"),
        "diagnostics.sup_bound_check.self_s": self_s("diagnostics.sup_bound_check"),
        "diagnostics.green_identity_residual.self_s":
            self_s("diagnostics.green_identity_residual"),
        "diagnostics.bubble_fit.calls": calls("diagnostics.bubble_fit"),
        "trace.spans": sum(agg[0] for agg in spans.values()),
        "trace.wall_s": rep.wall_s,
    }


def per_layer(result: RunResult) -> dict:
    traced = [r for r in result.reps if r.traced and len(r.spans) == r.attempted]
    untraced = [r for r in result.reps if not r.traced]
    rows = [layer_metrics(r) for r in traced]
    metrics = {name: median(row[name] for row in rows) for name in PER_LAYER
               if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (median(r.wall_s for r in traced)
                                   - median(r.wall_s for r in untraced)) if traced else 0.0
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def source_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, seconds: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "singular_yamabe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = {}
    for package in ("numpy", "scipy", "PyYAML"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "commit": source_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "python": sys.version.split()[0],
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
    }


def spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g} n={len(values)}"


def summary(result: RunResult) -> dict:
    """Printable record of one run; also what --out writes."""
    untraced = [r for r in result.reps if not r.traced]
    record = {
        "workload": result.workload,
        "trace": result.trace,
        "repetitions": len(result.reps),
        "attempted": result.attempted,
        "failed": result.failed,
        "fail_ratio": result.failed / result.attempted if result.attempted else 1.0,
        "problems": result.problems[:20],
        "end_to_end": end_to_end(result),
        "command_s": {m: median(v) for m, v in samples(result).items()
                      if m in COMMAND_METRICS},
        "unscaled": {m: median(v) for m, v in samples(result, raw=True).items()},
        "speed_scale": median(PROBE_REF_S / p for p in result.probes),
    }
    if untraced and result.workload == QUOTIENT_WORKLOAD:
        record["converged"] = {c: "{}/{}".format(*converged(untraced[0], c))
                               for c in ("yamabe", "eigen")}
    if result.trace:
        record["per_layer"] = per_layer(result)
    return record


def print_summary(result: RunResult, record: dict) -> None:
    values = samples(result)
    print(f"== {result.workload} (trace {int(result.trace)}): {len(result.reps)} repetitions, "
          f"fail_ratio {result.failed}/{result.attempted}, "
          f"speed scale {record['speed_scale']:.3f}")
    for problem in record["problems"]:
        print(f"   FAILED {problem}")
    for name, unit in (*END_TO_END.items(), *((m, "s") for m in record["command_s"])):
        print(f"   {name:<14} {median(values[name]):10.4g} {unit:<3} median, "
              f"{spread(values[name])}, unscaled {record['unscaled'][name]:.4g}")
    for name, ratio in record.get("converged", {}).items():
        print(f"   converged {name}: {ratio}")
    for name, value in record.get("per_layer", {}).items():
        print(f"   {name:<46} {value:12.6g} {PER_LAYER[name]}")


def result_line(records: list, metric_sets: list) -> dict:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": {k: v for metrics in metric_sets
                                          for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "singular_yamabe" / "__main__.py").is_file():
        print(f"error: no singular_yamabe package under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed, args.seconds)
    print("env " + json.dumps(env, sort_keys=True))
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]

    records, metric_sets = [], []
    try:
        for name, trace in plan:
            result = run_workload(name, args.seed, args.seconds, trace)
            record = summary(result)
            print_summary(result, record)
            records.append(record)
            units = PER_LAYER if trace else END_TO_END
            values = record["per_layer"] if trace else record["end_to_end"]
            prefix = f"{name}/" if args.workload == "all" else ""
            metric_sets.append({prefix + k: {"value": v, "unit": units[k]}
                                for k, v in values.items()})
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(json.dumps({"env": env, "runs": records}, indent=1) + "\n",
                            encoding="utf-8")
    print(json.dumps(result_line(records, metric_sets)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
