"""Command line front end: scenario configs in, CSV and JSON artifacts out.

Subcommands
    validate          run the closed-form cross-check suite
    flow CONFIG       drive the reduced flow, write series.csv + snapshots/
    yamabe CONFIG     minimize the conformal quotient for the configured model
    eigen CONFIG      first nonzero eigenvalue of the configured state
    report RUN_DIR    classify a finished (or failed) run directory

Exit codes are a stable contract: 0 success, 2 input error, 3 positivity
failure during a run (partial artifacts are kept), 4 non-convergence.
Standard output that cannot be written is an input error too; standard error
that cannot be written leaves the exit code as it was.

Each process runs one command, so numpy, geometry and the solver layers
(flow, variational, diagnostics) are imported inside the commands that call
them.  ``main`` reads and checks a command's scenario before the command
runs, and each command checks its other inputs before its imports: a
command loads only the layers it runs, and printing the default scenario, a
usage error or a refused input loads none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import __version__
from .scenario import (
    ConfigError,
    default_config_text,
    load_config,
    load_profile,
    parse_config,
    read_profile,
    value_name,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_POSITIVITY = 3
EXIT_NO_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _make_outdir(path: str) -> str:
    try:
        # "" is the current directory, as in `report ""`
        os.makedirs(path or os.curdir, exist_ok=True)
    except (OSError, ValueError) as err:  # ValueError: a path with a NUL byte
        raise ConfigError(f"cannot use output directory {path!r}: {err}") from err
    return path


def _remove(path: str) -> None:
    """Remove the file at ``path``, if there is one."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as err:
        raise ConfigError(f"cannot remove {path}: {err}") from err


def _atomic_write(path: str, text: str) -> None:
    # a fresh file beside the target, so the rename stays on one file system
    # and the artifact's mode is the one the umask gives a new file
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    try:
        handle = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err


# every number in an artifact is written round-trip exact in this format
_FLOAT_FORMAT = ".17g"


def _fmt(value: float) -> str:
    return format(float(value), _FLOAT_FORMAT)


def _write_json(path: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    _atomic_write(path, text + "\n")


def _flush(stream) -> None:
    """Flush a standard stream, if it is open.  When it cannot be written,
    its descriptor is pointed at the null device before the OSError is
    raised: the bytes it still holds would fail again at interpreter exit."""
    if stream is None:  # closed when the interpreter started
        return
    try:
        stream.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, stream.fileno())
        finally:
            os.close(null)
        raise


def _out(text: str) -> None:
    """Write ``text`` to standard output, which ``main`` flushes."""
    if sys.stdout is None:
        raise ConfigError("cannot write standard output: it is closed")
    try:
        sys.stdout.write(text)
    except OSError as err:  # a write past the buffer, or an unbuffered one
        with contextlib.suppress(OSError):
            _flush(sys.stdout)
        raise ConfigError(f"cannot write standard output: {err}") from err


def _complain(message: str) -> None:
    """Print ``error: message`` on standard error, if it can be written."""
    if sys.stderr is not None:  # print's file=None is standard output
        with contextlib.suppress(OSError):
            print(f"error: {message}", file=sys.stderr)


def _say(args, *lines: str) -> None:
    if not args.quiet:
        _out("".join(f"{line}\n" for line in lines))


def _publish(args, outdir, name: str, payload, *lines: str) -> None:
    """Write ``payload`` to ``<outdir>/<name>.json``, making the directory
    (no file when ``outdir`` is None), then print ``lines`` unless --quiet."""
    if outdir is not None:
        _write_json(os.path.join(_make_outdir(outdir), f"{name}.json"), payload)
    _say(args, *lines)


def _result(cfg, **fields) -> dict:
    """A scenario command's result, headed by its scenario and the package version."""
    return {"scenario": cfg.echo(), "package_version": __version__, **fields}


# series.csv's fixed columns, in order -> the TimeSeriesRecord field each holds
_SERIES_COLUMNS = {"t": "t", "sigma_tilde": "sigma_tilde", "volume": "volume",
                   "F2": "f2", "F3": "f3", "v_at_x1": "v_at_x1", "dt": "dt_used"}


def write_series_csv(path: str, records, cutoffs) -> None:
    lines = [",".join([*_SERIES_COLUMNS, *(f"mass_frac_{value_name(c)}" for c in cutoffs)])]
    for rec in records:
        cells = [_fmt(getattr(rec, name)) for name in _SERIES_COLUMNS.values()]
        cells.extend(_fmt(rec.mass_fractions[c]) for c in cutoffs)
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _snapshot_name(t: float, used: set) -> str:
    for digits in (10, 17):
        name = f"snap_{format(t, f'.{digits}g')}.csv"
        if name not in used:
            return name
    raise ValueError(f"two snapshots at t={t!r}")


def write_snapshots(directory: str, snapshots, grid) -> list:
    """Write plain two-column x,v files; returns the file names in time order."""
    _make_outdir(directory)
    used: set = set()
    names = []
    # every snapshot lies on the same grid, so its x column is formatted once,
    # into a template that takes a snapshot's v column in one % operation
    template = "".join(f"{_fmt(x)},%{_FLOAT_FORMAT}\n" for x in grid.cell_centers.tolist())
    for t, v in snapshots:
        name = _snapshot_name(t, used)
        used.add(name)
        _atomic_write(os.path.join(directory, name), template % tuple(v.tolist()))
        names.append(name)
    return names


def read_series_csv(path: str):
    """Parse a series file back into records; inverse of write_series_csv.

    Raises ConfigError when the file cannot be read or is not a series of
    finite numbers.
    """
    from . import flow

    try:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            rows = [line.strip().split(",") for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    fixed = list(_SERIES_COLUMNS)
    names = header[len(fixed):]
    if header[: len(fixed)] != fixed or not all(n.startswith("mass_frac_") for n in names):
        raise ConfigError(f"unexpected series header in {path}")
    records = []
    try:
        cutoffs = [float(name[len("mass_frac_"):]) for name in names]
        for row in rows:
            values = [float(cell) for cell in row]
            if len(values) != len(header):
                raise ValueError(f"a row of {len(values)} cells under {len(header)} columns")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"a cell that is not a finite number in {','.join(row)}")
            records.append(flow.TimeSeriesRecord(
                **dict(zip(_SERIES_COLUMNS.values(), values)),
                mass_fractions=dict(zip(cutoffs, values[len(fixed):])),
            ))
    except ValueError as err:
        raise ConfigError(f"unusable series {path}: {err}") from err
    return records


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    import numpy as np

    from . import diagnostics, geometry, variational

    pi = math.pi
    checks = []
    checks.append(("eh_volume_a1", geometry.eh_volume(),
                   geometry.eh_volume_quadrature(), 1e-8))
    for a in (0.5, 1.0, 2.0):
        checks.append((f"scalar_l2_energy_a{format(a, 'g')}", 288.0 * pi**2,
                       geometry.eh_scalar_l2_energy(a), 1e-6))
    checks.append(("scalar_at_bolt_a1", 48.0,
                   geometry.eh_scalar_curvature(0.0, 1.0), 0.0))
    dist_oracle = (math.sqrt(pi) / 4.0) * math.gamma(0.25) / math.gamma(0.75)
    checks.append(("distance_to_infinity_a1", dist_oracle,
                   geometry.eh_distance_to_infinity(), 1e-8))
    for n, expected in ((4, 8.0 * math.sqrt(6.0) * pi),
                        (3, 6.0 * (2.0 * pi**2) ** (2.0 / 3.0))):
        value = variational.yamabe_quotient_sphere(np.ones(512),
                                                   geometry.build_sphere_model(n, 512))
        checks.append((f"sphere_quotient_n{n}", expected, value, 1e-6))
    checks.append(("orbifold_local_threshold", 8.0 * math.sqrt(3.0) * pi,
                   geometry.Y_LOCAL, 1e-12))
    small = diagnostics.small_energy_test(12.0 * math.sqrt(2.0) * pi)
    checks.append(("small_energy_on_initial_data", 0.0, float(small), 0.0))
    checks.append(("green_kernel_origin", 2.0,
                   geometry.green_kernel(np.array([1e-13]))[0], 1e-9))
    checks.append(("green_kernel_half", 2.0 * math.log(3.0),
                   geometry.green_kernel(np.array([0.5]))[0], 1e-12))
    x, _, weights = geometry.tanh_sinh_rule()
    moment = geometry.inner(weights * x * x, geometry.green_kernel(x))
    checks.append(("green_kernel_second_moment", 1.0, moment, 1e-8))

    report = {}
    all_pass = True
    for name, expected, computed, tol in checks:
        if expected != 0.0:
            rel = abs(computed - expected) / abs(expected)
        else:
            rel = abs(computed - expected)
        ok = bool(rel <= tol)
        all_pass = all_pass and ok
        report[name] = {"expected": float(expected), "computed": float(computed),
                        "relative_error": float(rel), "pass": ok}
    payload = {"checks": report, "all_pass": all_pass}
    _publish(args, args.output_dir or None, "validate", payload,
             json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if all_pass else 1


def cmd_flow(args, cfg) -> int:
    from . import flow

    try:
        result = flow.run(cfg)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot start the run: {err}") from err
    outdir = _make_outdir(args.output_dir or cfg.output_dir)

    write_series_csv(os.path.join(outdir, "series.csv"), result.records,
                     cfg.cutoffs)
    snapdir = os.path.join(outdir, "snapshots")
    names = write_snapshots(snapdir, result.snapshots, result.final_state.grid)
    final = result.records[-1]
    payload = _result(
        cfg,
        completed=result.completed,
        failure=result.failure,
        steps=len(result.records) - 1,
        final={"t": final.t, "sigma_tilde": final.sigma_tilde, "volume": final.volume},
        artifacts={"series": "series.csv",
                   "snapshots": [f"snapshots/{n}" for n in names]},
    )
    # the manifest goes first: an interrupted rerun then leaves no old
    # manifest over the new series and snapshots
    _write_json(os.path.join(outdir, "report.json"), payload)
    # an earlier run's snapshots and report describe another run
    for name in sorted(set(os.listdir(snapdir)) - set(names)):
        if name.startswith("snap_") and name.endswith(".csv"):
            _remove(os.path.join(snapdir, name))
    _remove(os.path.join(outdir, "dichotomy.json"))
    failed = os.path.join(outdir, "FAILED")
    if not result.completed:
        _atomic_write(failed, (result.failure or "positivity failure") + "\n")
        _say(args, f"flow stopped early: {result.failure}", f"partial artifacts in {outdir}")
        return EXIT_POSITIVITY
    _remove(failed)  # a completed run clears the marker an earlier run left
    _say(args, f"flow finished: {len(result.records) - 1} steps to t={_fmt(final.t)}",
         f"sigma_tilde {_fmt(result.records[0].sigma_tilde)} -> {_fmt(final.sigma_tilde)}",
         f"artifacts in {outdir}")
    return EXIT_OK


def cmd_yamabe(args, cfg) -> int:
    import numpy as np

    from . import geometry, variational

    model = cfg.model()  # the quotient does not depend on the core scale model.a
    if cfg.init_type == "file":
        init = load_profile(cfg.init_path, model.cell_centers)
    else:  # the quotient is scale-invariant, so a constant start defaults to 1
        init = np.full(cfg.n_cells, cfg.init_value or 1.0)
    try:
        result = variational.minimize_quotient(model, init=init)
    except ValueError as err:  # a start the arithmetic cannot carry
        raise ConfigError(str(err)) from err
    reference = (geometry.yamabe_sphere_constant(cfg.sphere_n)
                 if cfg.model_type == "sphere" else geometry.Y_LOCAL)
    outdir = args.output_dir or cfg.output_dir
    payload = _result(
        cfg,
        initial_value=float(result.history[0]),
        value=float(result.value),
        iterations=int(result.iterations),
        gradient_norm=float(result.gradient_norm),
        converged=bool(result.converged),
        reference_constant=float(reference),
    )
    state = "converged" if result.converged else "did not converge"
    _publish(args, outdir, "yamabe", payload,
             f"quotient {_fmt(result.history[0])} -> {_fmt(result.value)} "
             f"({state}, {result.iterations} iterations)",
             f"result in {outdir}/yamabe.json")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_eigen(args, cfg) -> int:
    import numpy as np  # before the try: its handler names np.linalg.LinAlgError

    from . import variational

    outdir = args.output_dir or cfg.output_dir
    try:
        if cfg.model_type == "sphere":
            result = variational.sphere_first_eigenvalue(cfg.model())
            sigma_inf = float(cfg.sphere_n * (cfg.sphere_n - 1))
            n = cfg.sphere_n
        else:
            from . import flow

            state = flow.initial_state(cfg)
            result = variational.first_eigenvalue(state)
            sigma_inf = state.sigma_tilde
            n = 4
    except np.linalg.LinAlgError as err:  # a ValueError, so caught first
        _publish(args, outdir, "eigen", _result(cfg, lambda1=None, failure=str(err)),
                 f"eigen solve failed: {err}")
        return EXIT_NO_CONVERGENCE
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot build the eigenproblem: {err}") from err
    criteria = {k: bool(v) for k, v in
                variational.eigen_criteria(result.lambda1, sigma_inf, n).items()}
    payload = _result(cfg, lambda1=float(result.lambda1), residual=float(result.residual),
                      sigma_inf=float(sigma_inf), criteria=criteria)
    _publish(args, outdir, "eigen", payload,
             f"lambda1 = {_fmt(result.lambda1)} (residual {_fmt(result.residual)})",
             f"criteria vs sigma_inf={_fmt(sigma_inf)}: {criteria}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = args.run_dir
    series_path = os.path.join(run_dir, "series.csv")
    report_path = os.path.join(run_dir, "report.json")
    try:
        with open(report_path, encoding="utf-8") as handle:
            run_meta = json.load(handle)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read {report_path}: {err}") from err
    if not isinstance(run_meta, dict) or "scenario" not in run_meta:
        raise ConfigError(f"{report_path} records no scenario")
    cfg = parse_config(run_meta["scenario"])
    if cfg.model_type != "eguchi-hanson":
        raise ConfigError("reports cover eguchi-hanson runs")
    import numpy as np

    from . import diagnostics, flow

    records = read_series_csv(series_path)
    if not records:
        raise ConfigError(f"{series_path} holds no records")
    artifacts = run_meta.get("artifacts")
    snapshot_files = artifacts.get("snapshots") if isinstance(artifacts, dict) else None
    if (not isinstance(snapshot_files, list) or not snapshot_files
            or not all(isinstance(name, str) for name in snapshot_files)):
        raise ConfigError("the run report lists no snapshots")

    grid = cfg.model()

    def load_state(rel_name: str, t: float) -> flow.FlowState:
        x, v = read_profile(os.path.join(run_dir, rel_name))
        if not np.array_equal(x, grid.cell_centers):
            raise ConfigError(f"snapshot {rel_name} does not lie on the grid")
        try:
            return flow.FlowState(grid, v, t=t, volume_target=records[0].volume)
        except ValueError as err:
            raise ConfigError(f"snapshot {rel_name} at t={t!r}: {err}") from err

    initial = load_state(snapshot_files[0], records[0].t)
    final = load_state(snapshot_files[-1], records[-1].t)
    payload = {
        "scenario": cfg.echo(),
        "completed": run_meta.get("completed"),
        "failure": run_meta.get("failure"),
        **diagnostics.build_dichotomy_report(initial, final, records, cfg),
    }
    d = payload["dichotomy"]
    rate = payload["decay_rate_fit"]["rate"]
    _publish(args, run_dir, "dichotomy", payload,
             "dichotomy: " + " ".join(
                 f"{k}={d[k]}" for k in ("small_energy_ok", "low_average_ok",
                                         "max_bubble_count", "concentration_detected")),
             f"decay rate estimate: {'n/a' if rate is None else _fmt(rate)}",
             f"report in {os.path.join(run_dir, 'dichotomy.json')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own hides a write that fails
        return _out(self.format_help()) if file is None else super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singular-yamabe",
        description="Reduced conformal flow on the compactified Eguchi-Hanson "
                    "space: runs, quotient minimization, and concentration reports.")
    parser.add_argument("--dump-default-config", action="store_true",
                        help="print the default scenario file and exit")
    subs = parser.add_subparsers(dest="command")
    # each subcommand: its function, its positional argument and its help;
    # the functions are looked up when the parser is built, so a binding
    # replaced on this module after import is the one that runs
    for name, func, positional, text in (
            ("validate", cmd_validate, None, "closed-form cross-check suite"),
            ("flow", cmd_flow, "config", "drive the reduced flow"),
            ("yamabe", cmd_yamabe, "config", "minimize the conformal quotient"),
            ("eigen", cmd_eigen, "config", "first nonzero eigenvalue"),
            ("report", cmd_report, "run_dir", "classify a run directory")):
        sub = subs.add_parser(name, help=text)
        if positional:
            sub.add_argument(positional)
        if name != "report":  # a report is written into its run directory
            sub.add_argument("--output-dir", default=None,
                             help="override the config's output directory")
        sub.add_argument("--quiet", action="store_true", help="suppress progress output")
        sub.set_defaults(func=func)
    return parser


def _flushed(status: int) -> int:
    """``status`` once both standard streams are flushed, or EXIT_INPUT
    when standard output cannot be written."""
    try:
        _flush(sys.stdout)
    except OSError as err:
        _complain(f"cannot write standard output: {err}")
        status = EXIT_INPUT
    with contextlib.suppress(OSError):
        _flush(sys.stderr)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:  # a --help that standard output refuses raises ConfigError
            args = parser.parse_args(argv)
        except SystemExit as stop:  # argparse printed its help or a usage error
            raise SystemExit(_flushed(stop.code)) from None
        if args.dump_default_config:
            _out(default_config_text())
            status = EXIT_OK
        elif not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            status = EXIT_INPUT
        elif "config" not in args:
            status = args.func(args)
        else:
            # the scenario is read and checked before its command loads a layer
            status = args.func(args, load_config(args.config))
    except ConfigError as err:
        _complain(str(err))
        status = EXIT_INPUT
    return _flushed(status)


if __name__ == "__main__":
    sys.exit(main())
