"""Volume-normalized curvature flow for radial conformal profiles.

The evolution acts on w = v^3: dw/dt = sigma * w + D v, where D is the
conservation-form flux divergence of :mod:`singular_yamabe.geometry`,
D v = -Q v / M with the grid's quotient form Q and M = 12 pi^2 x dx, and sigma
is the volume-weighted curvature mean.  The semi-discrete flow preserves the
discrete volume identically (the mean is built from the same fluxes), so all
drift is time error, removed periodically by renormalization.

:func:`advance` integrates with the two-stage linearly implicit Rosenbrock
method ROS2 (Verwer, Spee, Blom & Hundsdorfer 1999), whose embedded Euler
solution controls the step size; its Jacobian is built from the same form Q
as the rate, so a step costs one tridiagonal factorization, two
back-substitutions and two curvature evaluations; :func:`run` is the
consumer that keeps a scenario's records and snapshots.  The explicit Euler
:func:`step` under the diffusion bound :func:`stable_dt` is kept as the
reference the tests replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import RadialGrid, form_bands, inner, lapack, scalar_from_v
from .scenario import STOP_RTOL, Scenario, load_profile


class PositivityError(RuntimeError):
    """A step drove the conformal cube nonpositive, or too small to carry its
    curvature, somewhere."""


@dataclass(frozen=True)
class FlowState:
    """Immutable flow snapshot: profile v > 0 on a grid at time t.

    The rest is computed once, at construction, and read-only: scalar is
    the discrete curvature :func:`~singular_yamabe.geometry.scalar_from_v`,
    dvol the volume element v^4 x dx of each cell, volume their sum, and
    sigma_tilde the dvol-weighted mean of scalar, which reads some 5e-6 (256
    uniform cells) to 8e-5 (512 geometric) below the energy quotient until
    ROADMAP item 3.  The volume target defaults to the state's own volume.
    A profile whose discrete volume overflows or is subnormal (v of order
    1e100 or 1e-80) is refused, and so is one whose curvature is not finite
    (a cell whose cube underflows, v below about 1e-104 next to cells of
    order 1).
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
        # powers of v past the double range are refused with the volume below,
        # unless only some cubes underflow: those cells get infinite curvature,
        # refused with the curvature mean (0/0 where every power underflows)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scalar = scalar_from_v(v, self.grid)  # checks the shape, then positivity
            dvol = v**4 * self.grid.weights
            volume = float(np.sum(dvol))
        if not math.isfinite(self.t):
            raise ValueError("time must be finite")
        tiny = np.finfo(float).tiny
        if not tiny <= volume < math.inf:
            raise ValueError(f"profile volume {volume:g} must be finite and at least {tiny:.2g}")
        if self.volume_target is None:
            object.__setattr__(self, "volume_target", volume)
        elif not 0.0 < self.volume_target < math.inf:
            raise ValueError("volume target must be finite and positive")
        sigma_tilde = inner(scalar, dvol) / volume
        if not math.isfinite(sigma_tilde):  # nor is the curvature of some cell
            raise ValueError("profile curvature is not finite in "
                             f"{np.count_nonzero(~np.isfinite(scalar))} cells")
        for name, array in (("v", v), ("scalar", scalar), ("dvol", dvol)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "sigma_tilde", sigma_tilde)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def boundary_value(state: FlowState) -> float:
    """Profile extrapolated linearly to the bolt boundary x = 1."""
    x = state.grid.cell_centers
    v = state.v
    slope = (v[-1] - v[-2]) / (x[-1] - x[-2])
    return float(v[-1] + slope * (1.0 - x[-1]))


def moment(g: np.ndarray, dvol: np.ndarray, p: float) -> float:
    """The moment sum |g|^p dvol as sum (|g| dvol^(1/p))^p: weighted before
    the power, it cannot overflow while the moment is finite (at amplitude
    1e-60, |g|^3 overflows but the third moment is about 1e117)."""
    return float(np.sum((np.abs(g) * dvol ** (1.0 / p)) ** p))


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
    mass = inner(v4[:k], state.grid.weights[:k])
    if x0 > faces[k]:
        mass += v4[k] * 0.5 * (x0**2 - faces[k] ** 2)
    return mass / state.volume


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
    cell of w is positive and finite and the state can be built from it."""
    if not (w.min() > 0.0 and w.max() < math.inf):  # a NaN fails the first test
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        raise PositivityError(
            f"conformal cube lost positivity in {bad.size} cells at t={t:.6g}"
            f" (first cell {bad[0]}, x={state.grid.cell_centers[bad[0]]:.4g})")
    try:
        return FlowState(grid=state.grid, v=np.cbrt(w), t=t,
                         volume_target=state.volume_target)
    except ValueError as err:  # a run's failure, not a bad input
        raise PositivityError(f"conformal cube at t={t:.6g} is out of range: {err}") from err


def _check_step_size(dt: float) -> None:
    if not dt > 0.0 or not math.isfinite(dt):
        raise ValueError(f"step size must be positive and finite, got {dt}")


def step(state: FlowState, dt: float) -> FlowState:
    """One explicit Euler step on w = v^3 at fixed volume target."""
    _check_step_size(dt)
    w = state.v**3
    return _cube_state(state, w * (1.0 + dt * (state.sigma_tilde - state.scalar)),
                       state.t + dt)


_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)  # ROS2's stage coefficient, L-stable
_TOL = 1e-5  # largest accepted error estimate max |w_ros2 - w_euler| / w per step


def rosenbrock_step(state: FlowState, h: float) -> tuple[FlowState, float]:
    """One ROS2 step on w = v^3; returns the new state and its error estimate.

    With the Jacobian J = sigma I + D diag(1 / (3 v^2)) frozen at the start
    (sigma included) and W = I - gamma h J,

        W k1 = f(w),  W k2 = f(w + h k1) - 2 k1,  w_new = w + h (3 k1 + k2) / 2.

    The flux divergence is D = -diag(1 / M) Q with the grid's quotient form
    Q and M = :attr:`~singular_yamabe.geometry.RadialGrid.curvature_divisor`,
    as in the rate, so each stage solves the symmetric-pattern system
    M W = diag(M (1 - gamma h sigma)) + gamma h Q diag(1 / (3 v^2)) against M
    times its right-hand side: one tridiagonal factorization, two
    back-substitutions and two curvature evaluations per step.  The estimate
    is max |w_new - (w + h k1)| / w against the embedded Euler solution.
    Raises PositivityError when the stage or the result is not positive, and
    LinAlgError when the system is singular.
    """
    _check_step_size(h)
    gh = _GAMMA * h
    mass = state.grid.curvature_divisor
    lhs = form_bands(*state.grid.quotient_form[:2]) * (gh / (3.0 * state.v**2))
    lhs[1] += mass * (1.0 - gh * state.sigma_tilde)
    *factors, info = lapack().dgttrf(lhs[2, :-1], lhs[1], lhs[0, 1:])
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    w = state.v**3  # the rate dw/dt = sigma w + D v is w (sigma - scalar)
    k1 = lapack().dgttrs(*factors, mass * (w * (state.sigma_tilde - state.scalar)))[0]
    stage = _cube_state(state, w + h * k1, state.t + h)
    rate = stage.v**3 * (stage.sigma_tilde - stage.scalar)
    k2 = lapack().dgttrs(*factors, mass * (rate - 2.0 * k1))[0]
    new = _cube_state(state, w + h * (1.5 * k1 + 0.5 * k2), state.t + h)
    return new, float(np.max(np.abs(0.5 * h * (k1 + k2)) / w))


def renormalize(state: FlowState) -> FlowState:
    """Rescale the profile so the discrete volume matches the target exactly."""
    scale = (state.volume_target / state.volume) ** 0.25
    return FlowState(grid=state.grid, v=state.v * scale, t=state.t,
                     volume_target=state.volume_target)


def _reached(t: float, stop: float) -> bool:
    return t >= stop * (1.0 - STOP_RTOL)


def advance(state: FlowState, stops, safety: float, renorm_every: int):
    """Step the flow through the increasing times ``stops`` with
    error-controlled ROS2 steps; yields (state, h, stopped) after every
    accepted step.

    The first step is the explicit stability bound :func:`stable_dt` at
    ``safety``; after each attempt the step size becomes
    h * clip(0.9 / sqrt(err / _TOL), 0.2, 2), and only attempts with
    err <= _TOL are kept.  Steps are clipped to end exactly on the next
    stop, and a step that clipping cut short does not shrink the next
    proposal.  A stop counts as reached within a relative 1e-12; ``stopped``
    says that the yielded state reached one or more stops, and stops the
    start has reached are passed over.  Every ``renorm_every``-th accepted
    step is renormalized before it is yielded (never when 0).

    An attempt that loses positivity is retried at a fifth of its size,
    unless it was already within the explicit bound: then the
    PositivityError propagates, after the last accepted state was yielded.
    The generator ends on the last stop.
    """
    stops = iter(stops)
    stop = next(stops, None)
    while stop is not None and _reached(state.t, stop):
        stop = next(stops, None)
    h = stable_dt(state, safety)
    accepted = 0
    while stop is not None:
        h_try = min(h, stop - state.t)
        try:
            new, err = rosenbrock_step(state, h_try)
        except PositivityError:
            if h_try <= stable_dt(state, safety):
                raise
            h = 0.2 * h_try
            continue
        factor = min(2.0, max(0.2, 0.9 * math.sqrt(_TOL / err))) if err > 0.0 else 2.0
        if not err <= _TOL:
            h = h_try * factor
            continue
        h = max(h_try * factor, h) if h_try < h else h_try * factor
        state = new
        accepted += 1
        if renorm_every > 0 and accepted % renorm_every == 0:
            state = renormalize(state)
        stopped = False
        while stop is not None and _reached(state.t, stop):
            stop, stopped = next(stops, None), True
        yield state, h_try, stopped


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
    """The state's series row; ValueError when a deviation moment is past
    the double range (a start whose curvature is some -3e226 where v is 1e-75)."""
    dev = state.scalar - state.sigma_tilde
    with np.errstate(over="ignore"):  # refused below, without numpy's warning
        f2, f3 = moment(dev, state.dvol, 2.0), moment(dev, state.dvol, 3.0)
    for name, value in (("F2", f2), ("F3", f3)):
        if not math.isfinite(value):
            raise ValueError(f"curvature deviation moment {name} is not finite"
                             f" at t={state.t:.6g}")
    return TimeSeriesRecord(
        t=state.t,
        sigma_tilde=state.sigma_tilde,
        volume=state.volume,
        f2=f2,
        f3=f3,
        v_at_x1=boundary_value(state),
        mass_fractions={x0: mass_fraction(state, x0) for x0 in cutoffs},
        dt_used=dt_used,
    )


def initial_state(scenario: Scenario) -> FlowState:
    """The starting state of the scenario, on its grid.

    The flow preserves volume, so a start's target is its own discrete
    volume, except the default constant 4^(1/4), whose target is exactly 2.
    A model other than eguchi-hanson raises ValueError.
    """
    if scenario.model_type != "eguchi-hanson":
        raise ValueError("the flow drives the eguchi-hanson reduction, "
                         f"not the {scenario.model_type} model")
    grid = scenario.model()
    if scenario.init_type == "file":
        return FlowState(grid, load_profile(scenario.init_path, grid.cell_centers))
    if scenario.init_value is None:
        return FlowState(grid, np.full(grid.n_cells, 4.0**0.25), volume_target=2.0)
    return FlowState(grid, np.full(grid.n_cells, scenario.init_value))


def _snapshot_stops(every: float, t_end: float):
    """The multiples k * every that do not reach t_end, then t_end; only
    t_end when every is 0.  A multiple within the relative 1e-12 that counts
    as reaching t_end is left out, so the run ends on t_end itself."""
    if every > 0.0:
        k = 1
        while not _reached(k * every, t_end):
            yield k * every
            k += 1
    yield t_end


def run(scenario: Scenario) -> RunResult:
    """Drive the scenario's flow to t_end through :func:`advance`.

    The stops are the multiples of snapshot_every and t_end.  Records are
    emitted for the initial state and after every accepted step (post
    renormalization when due).  Snapshots are taken at t = 0 and on every
    stop.  On positivity loss, or a ValueError past the start (a state whose
    record is not finite), the partial history, ending in a snapshot of the
    last recorded state, is returned with completed = False; a start whose
    record is not finite raises ValueError.
    """
    state = initial_state(scenario)
    records = [_make_record(state, 0.0, scenario.cutoffs)]
    snapshots = [(state.t, state.v)]  # the state's profile is read-only
    stops = _snapshot_stops(scenario.snapshot_every, scenario.t_end)
    try:
        for new, h, stopped in advance(state, stops, scenario.safety,
                                       scenario.renorm_every):
            records.append(_make_record(new, h, scenario.cutoffs))
            state = new
            if stopped:
                snapshots.append((state.t, state.v))
    except (PositivityError, ValueError) as exc:
        if snapshots[-1][0] != state.t:
            snapshots.append((state.t, state.v))
        return RunResult(records, snapshots, False, str(exc), state)
    return RunResult(records, snapshots, True, None, state)
