"""Shared fixtures, and the one way the suite starts a child interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import singular_yamabe
from singular_yamabe import flow
from singular_yamabe import geometry as geo

# the directory that holds the package this suite imports
PACKAGE_ROOT = str(Path(singular_yamabe.__file__).parents[1])


def run_child(argv=(), *, code=None, program=None, env=None, timeout=120, **options):
    """Run ``python -m singular_yamabe ARGV`` in a child, or ``python -c
    CODE ARGV`` when ``code`` is given, or ``PROGRAM ARGV``, importing the
    same package as this suite and killed after ``timeout`` seconds.

    ``env`` entries are set in the child's environment, a None entry
    removed; the other options go to ``subprocess.run``.
    """
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    environ = {**os.environ, "PYTHONPATH": path, **(env or {})}
    environ = {name: value for name, value in environ.items() if value is not None}
    if program is not None:
        start = [program]
    elif code is not None:
        start = [sys.executable, "-c", code]
    else:
        start = [sys.executable, "-m", "singular_yamabe"]
    return subprocess.run([*start, *argv], env=environ, timeout=timeout, **options)


_PROBE = """\
import contextlib, io, sys
import {module}
status = None
if {run}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            status = singular_yamabe.cli.main(sys.argv[1:])
        except SystemExit as stop:  # argparse's --help and usage error
            status = stop.code
print(status, *sorted(sys.modules))
"""


def probe(command, cwd):
    """Run ``cli.main(command)`` in a child in ``cwd`` or, when ``command``
    is a module name, only import that module there.  Returns main's status
    (None when nothing ran), the child's standard error and the sorted names
    in its ``sys.modules``."""
    run = not isinstance(command, str)
    module = "singular_yamabe.cli" if run else command
    child = run_child(command if run else [], code=_PROBE.format(module=module, run=run),
                      cwd=cwd, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    status, *modules = child.stdout.split()
    return None if status == "None" else int(status), child.stderr, modules


@pytest.fixture(scope="session")
def constant_curvature_state():
    """A state of constant discrete curvature on 128 uniform cells, volume 2.

    Plain fixed-point sweeps: integrate the source sigma v^3 from the outer
    face inward to get the fluxes of a profile with cellwise-constant
    curvature, rebuild that profile from its fluxes and restore the volume,
    until a sweep moves v by at most 1e-12 of its size (116 sweeps).
    """
    grid = geo.build_grid(128, "uniform")
    x, dx = grid.cell_centers, grid.cell_widths
    conductance = (1.0 - grid.faces[1:-1] ** 2) / np.diff(x)
    v = np.full(grid.n_cells, 4.0**0.25)
    for _ in range(500):
        sigma = flow.FlowState(grid, v).sigma_tilde
        flux = sigma * np.cumsum((dx * v**3)[::-1])[::-1]
        xv = x[0] * flux[0] + np.concatenate(([0.0], np.cumsum(flux[1:] / conductance)))
        swept = xv / x
        swept *= (2.0 / np.sum(swept**4 * grid.weights)) ** 0.25
        if np.max(np.abs(swept - v)) <= 1e-12 * np.max(v):
            return flow.FlowState(grid, swept, volume_target=2.0)
        v = swept
    raise AssertionError("the constant-curvature sweeps did not settle in 500 steps")
