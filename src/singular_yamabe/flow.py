"""Volume-normalized curvature flow for radial conformal profiles.

The evolution acts on w = v^3: dw/dt = sigma * w + div(flux), where the flux
divergence is the conservation-form curvature operator from
:mod:`singular_yamabe.geometry` and sigma is the volume-weighted curvature
mean.  The semi-discrete flow preserves the discrete volume identically (the
mean is built from the same fluxes), so all drift is time error, removed
periodically by renormalization.

:func:`run` integrates with the two-stage linearly implicit Rosenbrock
method ROS2 (Verwer, Spee, Blom & Hundsdorfer 1999), whose embedded Euler
solution controls the step size; the flux divergence is tridiagonal, so a
step costs two banded solves and two curvature evaluations.  The explicit
Euler :func:`step` under the diffusion bound :func:`stable_dt` is kept as
the reference the tests replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .geometry import RadialGrid, scalar_from_v
from .scenario import Scenario, load_profile

__all__ = [
    "PositivityError",
    "FlowState",
    "TimeSeriesRecord",
    "RunResult",
    "mass_fraction",
    "boundary_value",
    "stable_dt",
    "step",
    "rosenbrock_step",
    "renormalize",
    "run",
]


class PositivityError(RuntimeError):
    """A step drove the conformal cube nonpositive somewhere."""

    def __init__(self, message: str, t: float | None = None, cells=None):
        super().__init__(message)
        self.t = t
        self.cells = cells


@dataclass(frozen=True)
class FlowState:
    """Immutable flow snapshot: profile v > 0 on a grid at time t.

    The rest is computed once, at construction, and read-only: scalar is
    the discrete curvature :func:`~singular_yamabe.geometry.scalar_from_v`,
    dvol the volume element v^4 x dx of each cell, volume their sum, and
    sigma_tilde the dvol-weighted mean of scalar, which makes it equal to
    the summation-by-parts energy quotient exactly.  The volume target
    defaults to the state's own volume.  A profile whose discrete volume
    overflows or underflows (v of order 1e100 or 1e-100) is refused.
    """

    grid: RadialGrid
    v: np.ndarray
    t: float = 0.0
    volume_target: float | None = None
    volume: float = field(init=False)
    sigma_tilde: float = field(init=False)
    scalar: np.ndarray = field(init=False, repr=False)
    dvol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError("profile shape does not match grid")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValueError("profile must be positive and finite")
        if not np.isfinite(self.t):
            raise ValueError("time must be finite")
        with np.errstate(over="ignore"):  # an infinite volume is refused below
            dvol = v**4 * self.grid.weights
            volume = float(np.sum(dvol))
        if not 0.0 < volume < math.inf:
            raise ValueError(f"profile volume {volume:g} must be finite and positive")
        if self.volume_target is None:
            object.__setattr__(self, "volume_target", volume)
        elif not 0.0 < self.volume_target < math.inf:
            raise ValueError("volume target must be finite and positive")
        scalar = scalar_from_v(v, self.grid)
        for name, array in (("v", v), ("scalar", scalar), ("dvol", dvol)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "sigma_tilde", float(np.dot(scalar, dvol) / volume))


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def boundary_value(state: FlowState) -> float:
    """Profile extrapolated linearly to the bolt boundary x = 1."""
    x = state.grid.cell_centers
    v = state.v
    slope = (v[-1] - v[-2]) / (x[-1] - x[-2])
    return float(v[-1] + slope * (1.0 - x[-1]))


def mass_fraction(state: FlowState, x0: float) -> float:
    """Fraction of the volume inside the coordinate ball x < x0.

    The cell containing x0 contributes its exact partial mass, so the
    fraction is continuous in x0.
    """
    if not 0.0 < x0 <= 1.0:
        raise ValueError(f"cutoff must lie in (0, 1], got {x0}")
    faces = state.grid.faces
    v4 = state.v**4
    k = int(np.searchsorted(faces, x0, side="right")) - 1
    k = min(k, state.grid.n_cells - 1)
    inner = float(np.dot(v4[:k], state.grid.weights[:k]))
    if x0 > faces[k]:
        inner += v4[k] * 0.5 * (x0**2 - faces[k] ** 2)
    return inner / state.volume


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def stable_dt(state: FlowState, safety: float = 0.4) -> float:
    """Largest explicit step within the diffusion stability limit, scaled down.

    The linearized diffusion coefficient is x (1 - x^2) / (3 v^2); the bound
    keeps safety * dt * coeff / dx^2 below one half for safety < 0.5.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError("safety factor must lie in (0, 1)")
    x = state.grid.cell_centers
    dx = state.grid.cell_widths
    limit = 3.0 * state.v**2 * dx**2 / (x * (1.0 - x * x) + 1e-14)
    return float(safety * np.min(limit))


def _cube_state(state: FlowState, w: np.ndarray, t: float) -> FlowState:
    """The state with conformal cube w at time t; PositivityError unless every
    cell of w is positive and finite."""
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
    if bad.size:
        raise PositivityError(
            f"conformal cube lost positivity in {bad.size} cells at t={t:.6g}"
            f" (first cell {bad[0]}, x={state.grid.cell_centers[bad[0]]:.4g})",
            t=t,
            cells=bad,
        )
    return FlowState(grid=state.grid, v=np.cbrt(w), t=t,
                     volume_target=state.volume_target)


def _check_step_size(dt: float) -> None:
    if not dt > 0.0 or not np.isfinite(dt):
        raise ValueError(f"step size must be positive and finite, got {dt}")


def step(state: FlowState, dt: float) -> FlowState:
    """One explicit Euler step on w = v^3 at fixed volume target."""
    _check_step_size(dt)
    w = state.v**3
    return _cube_state(state, w * (1.0 + dt * (state.sigma_tilde - state.scalar)),
                       state.t + dt)


_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)  # ROS2's stage coefficient, L-stable
_TOL = 1e-5  # largest accepted error estimate max |w_ros2 - w_euler| / w per step


def _rate(state: FlowState) -> np.ndarray:
    """dw/dt = sigma w + D v = w (sigma - scalar)."""
    return state.v**3 * (state.sigma_tilde - state.scalar)


def rosenbrock_step(state: FlowState, h: float) -> tuple[FlowState, float]:
    """One ROS2 step on w = v^3; returns the new state and its error estimate.

    With the Jacobian J = sigma I + D diag(1 / (3 v^2)) frozen at the start
    (sigma included) and W = I - gamma h J,

        W k1 = f(w),  W k2 = f(w + h k1) - 2 k1,  w_new = w + h (3 k1 + k2) / 2.

    D is the grid's fixed flux divergence
    :attr:`~singular_yamabe.geometry.RadialGrid.divergence_bands`.  The
    estimate is max |w_new - (w + h k1)| / w against the embedded Euler
    solution.  Raises PositivityError when the stage or the result is not
    positive.
    """
    _check_step_size(h)
    gh = _GAMMA * h
    lhs = state.grid.divergence_bands * (-gh / (3.0 * state.v**2))
    lhs[1] += 1.0 - gh * state.sigma_tilde
    w = state.v**3
    k1 = solve_banded((1, 1), lhs, _rate(state), check_finite=False)
    stage = _cube_state(state, w + h * k1, state.t + h)
    k2 = solve_banded((1, 1), lhs, _rate(stage) - 2.0 * k1, check_finite=False)
    new = _cube_state(state, w + h * (1.5 * k1 + 0.5 * k2), state.t + h)
    return new, float(np.max(np.abs(0.5 * h * (k1 + k2)) / w))


def renormalize(state: FlowState) -> FlowState:
    """Rescale the profile so the discrete volume matches the target exactly."""
    scale = (state.volume_target / state.volume) ** 0.25
    return FlowState(grid=state.grid, v=state.v * scale, t=state.t,
                     volume_target=state.volume_target)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSeriesRecord:
    t: float
    sigma_tilde: float
    volume: float
    f2: float
    f3: float
    v_at_x1: float
    mass_fractions: dict
    dt_used: float


@dataclass(frozen=True)
class RunResult:
    records: list
    snapshots: list
    completed: bool
    failure: str | None
    final_state: FlowState


def _make_record(state: FlowState, dt_used: float, cutoffs) -> TimeSeriesRecord:
    dev = np.abs(state.scalar - state.sigma_tilde)
    return TimeSeriesRecord(
        t=state.t,
        sigma_tilde=state.sigma_tilde,
        volume=state.volume,
        f2=float(np.dot(dev**2, state.dvol)),
        f3=float(np.dot(dev**3, state.dvol)),
        v_at_x1=boundary_value(state),
        mass_fractions={x0: mass_fraction(state, x0) for x0 in cutoffs},
        dt_used=dt_used,
    )


def initial_state(scenario: Scenario) -> FlowState:
    """The starting state of the scenario, on its grid.

    The flow preserves volume, so a start's target is its own discrete
    volume, except the default constant 4^(1/4), whose target is exactly 2.
    """
    grid = scenario.grid()
    if scenario.init_type == "file":
        return FlowState(grid, load_profile(scenario.init_path, grid.cell_centers))
    if scenario.init_value is None:
        return FlowState(grid, np.full(grid.n_cells, 4.0**0.25), volume_target=2.0)
    return FlowState(grid, np.full(grid.n_cells, scenario.init_value))


def run(scenario: Scenario) -> RunResult:
    """Drive the scenario's flow to t_end with error-controlled ROS2 steps.

    The first step is the explicit stability bound; after each attempt the
    step size becomes h * clip(0.9 / sqrt(err / _TOL), 0.2, 2), and only
    attempts with err <= _TOL are kept.  Steps are clipped to end exactly on
    t_end and on every multiple of snapshot_every.  An attempt that loses
    positivity is retried at a fifth of its size, unless it was already
    within the explicit bound.

    Records are emitted for the initial state and after every accepted step
    (post renormalization when due).  Snapshots are taken at t = 0, at every
    multiple of snapshot_every, and at the final time.  On positivity loss
    the partial history is returned with completed = False.
    """
    if scenario.model_type != "eguchi-hanson":
        raise ValueError("run() drives the eguchi-hanson reduction, "
                         f"not the {scenario.model_type} model")
    state = initial_state(scenario)
    records = [_make_record(state, 0.0, scenario.cutoffs)]
    snapshots = [(state.t, np.array(state.v))]
    every = scenario.snapshot_every
    snaps_taken = 1
    next_snap = every if every > 0.0 else np.inf
    steps = 0
    t_stop = scenario.t_end * (1.0 - 1e-12)
    h = stable_dt(state, scenario.safety)
    while state.t < t_stop:
        h_try = min(h, next_snap - state.t, scenario.t_end - state.t)
        try:
            new, err = rosenbrock_step(state, h_try)
        except PositivityError as exc:
            if h_try <= stable_dt(state, scenario.safety):
                if snapshots[-1][0] != state.t:
                    snapshots.append((state.t, np.array(state.v)))
                return RunResult(records, snapshots, False, str(exc), state)
            h = 0.2 * h_try
            continue
        factor = min(2.0, max(0.2, 0.9 * math.sqrt(_TOL / err))) if err > 0.0 else 2.0
        if not err <= _TOL:
            h = h_try * factor
            continue
        # a step cut short by a clip does not shrink the next proposal
        h = max(h_try * factor, h) if h_try < h else h_try * factor
        state = new
        steps += 1
        if scenario.renorm_every > 0 and steps % scenario.renorm_every == 0:
            state = renormalize(state)
        records.append(_make_record(state, h_try, scenario.cutoffs))
        if state.t >= next_snap * (1.0 - 1e-12):
            snapshots.append((state.t, np.array(state.v)))
            snaps_taken += 1
            next_snap = snaps_taken * every
    if snapshots[-1][0] != state.t:
        snapshots.append((state.t, np.array(state.v)))
    return RunResult(records, snapshots, True, None, state)
