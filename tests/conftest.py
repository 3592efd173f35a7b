"""Shared fixtures."""

import numpy as np
import pytest

from singular_yamabe import flow
from singular_yamabe import geometry as geo


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
