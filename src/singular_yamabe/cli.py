"""Command line front end: scenario configs in, CSV and JSON artifacts out.

Subcommands
    validate          run the closed-form cross-check suite
    flow CONFIG       drive the reduced flow, write series.csv + snapshots/
    yamabe CONFIG     minimize the conformal quotient for the configured model
    eigen CONFIG      first nonzero eigenvalue of the configured state
    report RUN_DIR    classify a finished (or failed) run directory

Exit codes are a stable contract: 0 success, 2 input error, 3 positivity
failure during a run (partial artifacts are kept), 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

# Cap BLAS pools before the numeric stack loads; the variable is read once
# per process so this only helps when the CLI is the entry point, which is
# the case it is meant for.
_THREAD_CAP = os.environ.get("SINGULAR_YAMABE_THREADS")
if _THREAD_CAP:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = _THREAD_CAP

import numpy as np

from . import __version__
from . import diagnostics, flow, geometry, variational
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


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_json(path: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    _atomic_write(path, text + "\n")


def write_series_csv(path: str, records, cutoffs) -> None:
    header = "t,sigma_tilde,volume,F2,F3,v_at_x1,dt"
    header += "".join(f",mass_frac_{value_name(c)}" for c in cutoffs)
    lines = [header]
    for rec in records:
        cells = [_fmt(rec.t), _fmt(rec.sigma_tilde), _fmt(rec.volume),
                 _fmt(rec.f2), _fmt(rec.f3), _fmt(rec.v_at_x1), _fmt(rec.dt_used)]
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
    os.makedirs(directory, exist_ok=True)
    used: set = set()
    names = []
    for t, v in snapshots:
        name = _snapshot_name(t, used)
        used.add(name)
        lines = [f"{_fmt(x)},{_fmt(val)}" for x, val in zip(grid.cell_centers, v)]
        _atomic_write(os.path.join(directory, name), "\n".join(lines) + "\n")
        names.append(name)
    return names


def read_series_csv(path: str):
    """Parse a series file back into records; inverse of write_series_csv.

    Raises ConfigError when the file cannot be read or is not a series.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            rows = [line.strip().split(",") for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    fixed = ["t", "sigma_tilde", "volume", "F2", "F3", "v_at_x1", "dt"]
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
            records.append(flow.TimeSeriesRecord(
                t=values[0], sigma_tilde=values[1], volume=values[2],
                f2=values[3], f3=values[4], v_at_x1=values[5], dt_used=values[6],
                mass_fractions=dict(zip(cutoffs, values[7:])),
            ))
    except ValueError as err:
        raise ConfigError(f"unusable series {path}: {err}") from err
    return records, cutoffs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _make_outdir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot use output directory {path}: {err}") from err
    return path


def cmd_validate(args) -> int:
    from scipy.integrate import quad
    from scipy.special import gamma

    pi = math.pi
    checks = []
    checks.append(("eh_volume_a1", geometry.eh_volume(1.0),
                   geometry.eh_volume_quadrature(1.0), 1e-8))
    for a in (0.5, 1.0, 2.0):
        checks.append((f"scalar_l2_energy_a{format(a, 'g')}", 288.0 * pi**2,
                       geometry.eh_scalar_l2_energy(a), 1e-6))
    checks.append(("scalar_at_bolt_a1", 48.0,
                   geometry.eh_scalar_curvature(0.0, 1.0), 0.0))
    dist_oracle = (math.sqrt(pi) / 4.0) * gamma(0.25) / gamma(0.75)
    checks.append(("distance_to_infinity_a1", dist_oracle,
                   geometry.eh_distance_to_infinity(1.0), 1e-8))
    for n, expected in ((4, 8.0 * math.sqrt(6.0) * pi),
                        (3, 6.0 * (2.0 * pi**2) ** (2.0 / 3.0))):
        model = geometry.build_sphere_model(n, 512)
        value = variational.yamabe_quotient_sphere(np.ones(512), model)
        checks.append((f"sphere_quotient_n{n}", expected, value, 1e-6))
    thresholds = variational.orbifold_thresholds()
    checks.append(("orbifold_local_threshold", 8.0 * math.sqrt(3.0) * pi,
                   thresholds.Y_local, 1e-12))
    small = diagnostics.small_energy_test(12.0 * math.sqrt(2.0) * pi,
                                          thresholds.Y_local)
    checks.append(("small_energy_on_initial_data", 0.0, float(small), 0.0))
    checks.append(("green_kernel_origin", 2.0,
                   geometry.green_kernel(np.array([1e-13]))[0], 1e-9))
    checks.append(("green_kernel_half", 2.0 * math.log(3.0),
                   geometry.green_kernel(np.array([0.5]))[0], 1e-12))
    moment = quad(lambda x: geometry.green_kernel(np.array([x]))[0] * x * x,
                  0.0, 1.0, limit=200)[0]
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
    if not args.quiet:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.output_dir:
        _make_outdir(args.output_dir)
        _write_json(os.path.join(args.output_dir, "validate.json"), payload)
    return EXIT_OK if all_pass else 1


def cmd_flow(args) -> int:
    cfg = load_config(args.config)
    if cfg.model_type != "eguchi-hanson":
        raise ConfigError("the flow command drives the eguchi-hanson reduction; "
                          "set model.type accordingly")
    try:
        result = flow.run(cfg)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot start the run: {err}") from err
    outdir = _make_outdir(args.output_dir or cfg.output_dir)

    write_series_csv(os.path.join(outdir, "series.csv"), result.records,
                     cfg.cutoffs)
    names = write_snapshots(os.path.join(outdir, "snapshots"), result.snapshots,
                            result.final_state.grid)
    final = result.records[-1]
    payload = {
        "scenario": cfg.echo(),
        "package_version": __version__,
        "completed": result.completed,
        "failure": result.failure,
        "steps": len(result.records) - 1,
        "final": {"t": final.t, "sigma_tilde": final.sigma_tilde,
                  "volume": final.volume},
        "artifacts": {"series": "series.csv",
                      "snapshots": [f"snapshots/{n}" for n in names]},
    }
    _write_json(os.path.join(outdir, "report.json"), payload)
    if not result.completed:
        _atomic_write(os.path.join(outdir, "FAILED"),
                      (result.failure or "positivity failure") + "\n")
        if not args.quiet:
            print(f"flow stopped early: {result.failure}")
            print(f"partial artifacts in {outdir}")
        return EXIT_POSITIVITY
    if not args.quiet:
        print(f"flow finished: {len(result.records) - 1} steps to t={_fmt(final.t)}")
        print(f"sigma_tilde {_fmt(result.records[0].sigma_tilde)} -> {_fmt(final.sigma_tilde)}")
        print(f"artifacts in {outdir}")
    return EXIT_OK


def cmd_yamabe(args) -> int:
    cfg = load_config(args.config)
    if cfg.model_type == "sphere":
        model = geometry.build_sphere_model(cfg.sphere_n, cfg.n_cells)
        grid, nodes = None, model.thetas
        reference = variational.yamabe_sphere_constant(cfg.sphere_n)
    else:
        model = geometry.EguchiHansonModel(a=cfg.a)
        grid = cfg.grid()
        nodes = grid.cell_centers
        reference = variational.orbifold_thresholds().Y_local
    if cfg.init_type == "file":
        init = load_profile(cfg.init_path, nodes)
    else:  # the quotient is scale-invariant, so a constant start defaults to 1
        init = np.full(cfg.n_cells, cfg.init_value or 1.0)
    # a start of order 1e100 or 1e-100, or a core scale of order 1e200,
    # overflows the quotient: refuse it rather than descend from garbage
    with np.errstate(all="ignore"):
        try:
            if grid is None:
                initial_value = variational.yamabe_quotient_sphere(init, model)
            else:
                initial_value = variational.yamabe_quotient_eh(init, grid, a=cfg.a)
        except (OverflowError, ZeroDivisionError):  # Python float arithmetic
            initial_value = math.nan
    if not 0.0 < initial_value < math.inf:
        raise ConfigError(f"the start's quotient is {initial_value!r}, not finite and "
                          "positive; rescale init or model.a")
    outdir = _make_outdir(args.output_dir or cfg.output_dir)
    result = variational.minimize_quotient(model, grid=grid, init=init)
    payload = {
        "scenario": cfg.echo(),
        "package_version": __version__,
        "initial_value": float(initial_value),
        "value": float(result.value),
        "iterations": int(result.iterations),
        "gradient_norm": float(result.gradient_norm),
        "converged": bool(result.converged),
        "reference_constant": float(reference),
    }
    _write_json(os.path.join(outdir, "yamabe.json"), payload)
    if not args.quiet:
        state = "converged" if result.converged else "did not converge"
        print(f"quotient {_fmt(initial_value)} -> {_fmt(result.value)} "
              f"({state}, {result.iterations} iterations)")
        print(f"result in {outdir}/yamabe.json")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_eigen(args) -> int:
    cfg = load_config(args.config)
    outdir = args.output_dir or cfg.output_dir
    payload = {"scenario": cfg.echo(), "package_version": __version__}
    try:
        if cfg.model_type == "sphere":
            model = geometry.build_sphere_model(cfg.sphere_n, cfg.n_cells)
            result = variational.sphere_first_eigenvalue(model)
            sigma_inf = float(cfg.sphere_n * (cfg.sphere_n - 1))
            n = cfg.sphere_n
        else:
            state = flow.initial_state(cfg)
            result = variational.first_eigenvalue(state)
            sigma_inf = state.sigma_tilde
            n = 4
    except np.linalg.LinAlgError as err:  # a ValueError, so caught first
        payload.update({"lambda1": None, "failure": str(err)})
        _write_json(os.path.join(_make_outdir(outdir), "eigen.json"), payload)
        if not args.quiet:
            print(f"eigen solve failed: {err}")
        return EXIT_NO_CONVERGENCE
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot build the eigenproblem: {err}") from err
    _make_outdir(outdir)
    criteria = variational.eigen_criteria(result.lambda1, sigma_inf, n)
    payload.update({
        "lambda1": float(result.lambda1),
        "residual": float(result.residual),
        "sigma_inf": float(sigma_inf),
        "criteria": {k: bool(v) for k, v in criteria.items()},
    })
    _write_json(os.path.join(outdir, "eigen.json"), payload)
    if not args.quiet:
        print(f"lambda1 = {_fmt(result.lambda1)} (residual {_fmt(result.residual)})")
        print(f"criteria vs sigma_inf={_fmt(sigma_inf)}: {payload['criteria']}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = args.run_dir
    series_path = os.path.join(run_dir, "series.csv")
    report_path = os.path.join(run_dir, "report.json")
    snap_dir = os.path.join(run_dir, "snapshots")
    for needed in (series_path, report_path, snap_dir):
        if not os.path.exists(needed):
            raise ConfigError(f"missing run artifact: {needed}")
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
    records, _cutoffs = read_series_csv(series_path)
    if not records:
        raise ConfigError(f"{series_path} holds no records")
    artifacts = run_meta.get("artifacts")
    snapshot_files = artifacts.get("snapshots") if isinstance(artifacts, dict) else None
    if (not isinstance(snapshot_files, list) or not snapshot_files
            or not all(isinstance(name, str) for name in snapshot_files)):
        raise ConfigError("the run report lists no snapshots")

    grid = cfg.grid()
    model = geometry.EguchiHansonModel(a=cfg.a)

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
    thresholds = variational.orbifold_thresholds()
    dichotomy = diagnostics.build_dichotomy_report(initial, final, thresholds)

    try:
        decay = diagnostics.decay_rate_fit(records)
        decay_payload = {"rate": None if math.isinf(decay) else decay,
                         "window_records": len(records) - len(records) // 2}
    except ValueError as err:
        decay_payload = {"rate": None, "error": str(err)}

    moments = {value_name(p): diagnostics.f_p(final, p) for p in cfg.f_p_exponents}
    sup = diagnostics.sup_bound_check(final, diagnostics.scalar_l2_bound(initial))

    bubble_payload = None
    if dichotomy.concentration_detected:
        try:
            fit = diagnostics.bubble_fit(final, model)
            ratio = None
            if dichotomy.sigma_inf_phys > 0.0:
                rigid = diagnostics.rigidity_profile_constant(dichotomy.sigma_inf_phys)
                ratio = fit.c_fit / rigid
            bubble_payload = {
                "scale_eps_lambda": fit.scale_eps_lambda,
                "c_fit": fit.c_fit,
                "residual": fit.residual,
                "window": list(fit.window),
                "c_over_rigidity_constant": ratio,
            }
        except diagnostics.BubbleFitError as err:
            bubble_payload = {"error": str(err)}

    payload = {
        "scenario": cfg.echo(),
        "completed": run_meta.get("completed"),
        "failure": run_meta.get("failure"),
        "dichotomy": {
            "small_energy_ok": dichotomy.small_energy_ok,
            "low_average_ok": dichotomy.low_average_ok,
            "max_bubble_count": dichotomy.max_bubble_count,
            "concentration_detected": dichotomy.concentration_detected,
            "concentration_cutoff_history": [
                {"t": t, "cutoff": x0, "fraction": frac}
                for t, x0, frac in dichotomy.concentration_cutoff_history],
            "s0_plus_norm": dichotomy.s0_plus_norm,
            "sigma0": dichotomy.sigma0_phys,
            "sigma_inf": dichotomy.sigma_inf_phys,
            "thresholds": {"Y": thresholds.Y, "Y_local": thresholds.Y_local,
                           "n": thresholds.n},
        },
        "alternate_flags": diagnostics.alternate_flag_variants(thresholds),
        "decay_rate_fit": decay_payload,
        "deviation_moments_final": moments,
        "green_identity_residual": diagnostics.green_identity_residual(final),
        "sup_bound": {"C": sup.C, "max_violation": sup.max_violation,
                      "monotonicity_violation": sup.monotonicity_violation},
        "bubble_fit": bubble_payload,
    }
    _write_json(os.path.join(run_dir, "dichotomy.json"), payload)
    if not args.quiet:
        d = payload["dichotomy"]
        print("dichotomy: " + " ".join(
            f"{k}={d[k]}" for k in ("small_energy_ok", "low_average_ok",
                                    "max_bubble_count", "concentration_detected")))
        rate = decay_payload.get("rate")
        print(f"decay rate estimate: {'n/a' if rate is None else _fmt(rate)}")
        print(f"report in {run_dir}/dichotomy.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singular-yamabe",
        description="Reduced conformal flow on the compactified Eguchi-Hanson "
                    "space: runs, quotient minimization, and concentration reports.")
    parser.add_argument("--dump-default-config", action="store_true",
                        help="print the default scenario file and exit")
    subs = parser.add_subparsers(dest="command")

    def common(sub):
        sub.add_argument("--output-dir", default=None,
                         help="override the config's output directory")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress progress output")

    sub = subs.add_parser("validate", help="closed-form cross-check suite")
    common(sub)
    sub.set_defaults(func=cmd_validate)

    sub = subs.add_parser("flow", help="drive the reduced flow")
    sub.add_argument("config")
    common(sub)
    sub.set_defaults(func=cmd_flow)

    sub = subs.add_parser("yamabe", help="minimize the conformal quotient")
    sub.add_argument("config")
    common(sub)
    sub.set_defaults(func=cmd_yamabe)

    sub = subs.add_parser("eigen", help="first nonzero eigenvalue")
    sub.add_argument("config")
    common(sub)
    sub.set_defaults(func=cmd_eigen)

    sub = subs.add_parser("report", help="classify a run directory")
    sub.add_argument("run_dir")
    sub.add_argument("--quiet", action="store_true")
    sub.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_default_config:
        sys.stdout.write(default_config_text())
        return EXIT_OK
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
