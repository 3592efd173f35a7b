"""Run one ``singular_yamabe`` command with spans around each layer's public functions.

Usage: python perfbench/traced_cli.py SPANS_JSON <command line arguments>

The package is imported and its public functions are replaced, at every
module binding other modules call them by, with wrappers that time each
call.  The program itself is not modified.  Spans are aggregated in memory
by name (calls, total seconds, self seconds = total minus child spans) and
written to SPANS_JSON when the command returns, together with two counts
only the process can see: the curvature evaluations made inside flow.run and
the volume drift each renormalization removes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer module -> public functions to time.  Every binding of a function in
# the package's modules is wrapped: geometry.scalar_from_v is also reached as
# flow.scalar_from_v and diagnostics.scalar_from_v, and all three count as
# the one span "geometry.scalar_from_v".
SPANS = {
    "geometry": ("scalar_from_v", "build_grid", "build_sphere_model",
                 "eh_volume_quadrature", "eh_scalar_l2_energy",
                 "eh_distance_to_infinity"),
    "flow": ("run", "initial_state", "step", "stable_dt", "renormalize",
             "mass_fraction"),
    "variational": ("minimize_quotient", "yamabe_quotient_eh",
                    "yamabe_quotient_sphere", "first_eigenvalue",
                    "sphere_first_eigenvalue"),
    "diagnostics": ("build_dichotomy_report", "decay_rate_fit", "f_p",
                    "scalar_l2_bound", "sup_bound_check",
                    "green_identity_residual", "bubble_fit"),
    "cli": ("main", "cmd_validate", "cmd_flow", "cmd_yamabe", "cmd_eigen",
            "cmd_report", "load_config", "write_series_csv", "write_snapshots",
            "read_series_csv"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.values: dict[str, list] = {}  # name -> observed values
        self._stack: list[float] = []      # child time of each open span

    def record(self, name: str, value) -> None:
        self.values.setdefault(name, []).append(value)

    def wrap(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children
                if stack:
                    stack[-1] += duration
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced


def _record_drift(tracer: Tracer):
    """Observer for flow.renormalize: the relative volume drift it removes."""

    def observe(args, kwargs, result):
        state = args[0]
        volume = float((state.v**4 * state.grid.weights).sum())
        tracer.record("flow.renorm_drift", abs(volume / state.volume_target - 1.0))

    return observe


def _count_curvature_in_run(tracer: Tracer, run_fn):
    """flow.run, also recording how many curvature evaluations it made."""
    curvature = tracer.stats.setdefault("geometry.scalar_from_v", [0, 0.0, 0.0])

    @functools.wraps(run_fn)
    def run(*args, **kwargs):
        before = curvature[0]
        try:
            return run_fn(*args, **kwargs)
        finally:
            tracer.record("flow.run.scalar_from_v_calls", curvature[0] - before)

    return run


def install(tracer: Tracer, modules: list) -> None:
    """Replace every binding of each SPANS function in ``modules`` by its span."""
    by_name = {module.__name__.rsplit(".", 1)[-1]: module for module in modules}
    observers = {"flow.renormalize": _record_drift(tracer)}
    for layer, names in SPANS.items():
        for fname in names:
            original = getattr(by_name[layer], fname)
            span = f"{layer}.{fname}"
            target = original
            if span == "flow.run":
                target = _count_curvature_in_run(tracer, original)
            wrapper = tracer.wrap(span, target, observers.get(span))
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import singular_yamabe
    from singular_yamabe import cli, diagnostics, flow, geometry, variational
    import_s = time.perf_counter() - start

    tracer = Tracer()
    install(tracer, [geometry, flow, variational, diagnostics, cli, singular_yamabe])
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.stats,
                       "values": tracer.values}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
