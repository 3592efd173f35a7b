import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singular_yamabe import flow
from singular_yamabe import geometry as geo
from singular_yamabe.scenario import MAX_STOPS, ConfigError, Scenario


@pytest.fixture(scope="module")
def grid64():
    return geo.build_grid(64, "uniform")


@pytest.fixture(scope="module")
def grid256():
    return geo.build_grid(256, "uniform")


def test_constant_state_curvature_mean(grid256):
    # the volume-weighted mean of 2x/c^2 at unit volume density is 2/3,
    # up to the quadrature error of the flux form
    s = flow.initial_state(Scenario(n_cells=256))
    assert abs(s.sigma_tilde - 2.0 / 3.0) < 1e-5
    assert abs(flow.initial_state(Scenario(n_cells=64)).sigma_tilde - 2.0 / 3.0) < 1e-4
    # the state carries its curvature and volume element
    assert np.array_equal(s.scalar, geo.scalar_from_v(s.v, grid256))
    assert np.array_equal(s.dvol, s.v**4 * grid256.weights)
    assert s.volume == float(np.sum(s.dvol))
    assert s.sigma_tilde == geo.inner(s.scalar, s.dvol) / s.volume
    assert math.isclose(s.volume, 2.0, rel_tol=1e-14)


def test_constant_state_accepts_target_and_value(grid64):
    # the volume target defaults to the state's own volume
    s = flow.FlowState(grid64, np.full(64, 2.0))
    assert s.volume_target == s.volume
    assert math.isclose(s.volume, 8.0, rel_tol=1e-14)
    assert flow.FlowState(grid64, s.v, volume_target=2.0).volume_target == 2.0
    # the default constant start has target exactly 2; an explicit value
    # keeps its own volume
    default = flow.initial_state(Scenario(n_cells=64))
    assert np.all(default.v == 4.0**0.25) and default.volume_target == 2.0
    explicit = flow.initial_state(Scenario(n_cells=64, init_value=1.5))
    assert np.all(explicit.v == 1.5)
    assert explicit.volume_target == explicit.volume
    assert math.isclose(explicit.volume, 1.5**4 / 2.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        flow.FlowState(grid64, np.full(64, -1.0))


def test_state_is_immutable():
    s = flow.initial_state(Scenario(n_cells=64))
    for array in (s.v, s.scalar, s.dvol):
        with pytest.raises(ValueError):
            array[3] = 7.0
    for name in ("t", "volume", "sigma_tilde"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1.0)


def test_state_validation(grid64):
    # a profile both off the grid and not positive gets the shape error, and
    # an empty one never reaches min()
    for v in (np.ones(10), -np.ones(10), np.zeros(0), np.full(65, math.nan)):
        with pytest.raises(ValueError, match="profile shape does not match grid"):
            flow.FlowState(grid=grid64, v=v)
    for value in (-2.0, 0.0, math.nan, math.inf):
        bad = np.ones(64)
        bad[5] = value
        with pytest.raises(ValueError, match="profile must be positive and finite"):
            flow.FlowState(grid=grid64, v=bad)
    with pytest.raises(ValueError):
        flow.FlowState(grid=grid64, v=np.ones(64), t=math.nan)
    with pytest.raises(ValueError):
        flow.FlowState(grid=grid64, v=np.ones(64), volume_target=0.0)
    with pytest.raises(ValueError):
        flow.FlowState(grid=grid64, v=np.ones(64), volume_target=math.inf)
    # v^4 overflows or underflows: the discrete volume is not finite, or is
    # zero or subnormal
    for extreme in (1e100, 1e-100, 1e-80):
        with pytest.raises(ValueError):
            flow.FlowState(grid=grid64, v=np.full(64, extreme))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_cube_state_refuses_a_cube_not_positive_and_finite(grid64, bad):
    state = flow.FlowState(grid64, np.ones(64))
    w = np.ones(64)
    w[[9, 30]] = bad
    x9 = f"{grid64.cell_centers[9]:.4g}"
    with pytest.raises(flow.PositivityError,
                       match=rf"in 2 cells at t=0\.5 \(first cell 9, x={x9}\)$"):
        flow._cube_state(state, w, 0.5)


def test_cube_that_underflows_gives_no_state(grid64):
    # a cube that underflows gives its cell infinite curvature: the profile
    # is refused as input, and the same cube reached by a step is the run's
    # positivity failure, not a ValueError a caller would take for bad input
    v = np.ones(64)
    v[:3] = 1e-110
    with pytest.raises(ValueError, match=r"^profile curvature is not finite in 3 cells$"):
        flow.FlowState(grid64, v)
    w = np.ones(64)
    w[:3] = 1e-320
    with pytest.raises(flow.PositivityError, match=r"^conformal cube at t=0\.5 is out of range: "
                                                   r"profile curvature is not finite in 1 cells$"):
        flow._cube_state(flow.FlowState(grid64, np.ones(64)), w, 0.5)


def test_boundary_value_extrapolates_linearly(grid64):
    s = flow.FlowState(grid64, 2.0 + 3.0 * grid64.cell_centers)
    assert math.isclose(flow.boundary_value(s), 5.0, rel_tol=1e-13)


def test_mass_fraction_constant_profile():
    s = flow.initial_state(Scenario(n_cells=64))
    assert math.isclose(flow.mass_fraction(s, 0.5), 0.25, abs_tol=1e-14)
    assert math.isclose(flow.mass_fraction(s, 1.0), 1.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        flow.mass_fraction(s, 0.0)
    with pytest.raises(ValueError):
        flow.mass_fraction(s, 1.5)


@given(x0=st.floats(1e-3, 1.0), x1=st.floats(1e-3, 1.0))
@settings(max_examples=50, deadline=None)
def test_mass_fraction_monotone(x0, x1):
    grid = geo.build_grid(48, "geometric", 0.97)
    rng = np.random.default_rng(7)
    s = flow.FlowState(grid, 1.0 + rng.random(48))
    lo, hi = sorted((x0, x1))
    assert flow.mass_fraction(s, lo) <= flow.mass_fraction(s, hi) + 1e-15


def test_stable_dt_scales_with_safety():
    s = flow.initial_state(Scenario(n_cells=64))
    base = flow.stable_dt(s, 0.4)
    assert base > 0.0
    assert math.isclose(flow.stable_dt(s, 0.8), 2.0 * base, rel_tol=1e-14)
    with pytest.raises(ValueError):
        flow.stable_dt(s, 0.0)
    with pytest.raises(ValueError):
        flow.stable_dt(s, 1.0)


def test_step_rejects_bad_dt():
    s = flow.initial_state(Scenario(n_cells=64))
    with pytest.raises(ValueError):
        flow.step(s, 0.0)
    with pytest.raises(ValueError):
        flow.step(s, math.inf)


def test_step_positivity_error_carries_context():
    s = flow.initial_state(Scenario(n_cells=64))
    with pytest.raises(flow.PositivityError) as info:
        flow.step(s, 5.0)
    match = re.fullmatch(r"conformal cube lost positivity in (\d+) cells at t=5"
                         r" \(first cell (\d+), x=[0-9.]+\)", str(info.value))
    assert match, str(info.value)
    count, first = map(int, match.groups())
    # the curvature of a constant profile grows toward the bolt, so the
    # overshoot kills the outermost cells first
    assert count > 0 and first + count == 64


def test_step_reduces_curvature_mean():
    s = flow.initial_state(Scenario(n_cells=256))
    after = flow.step(s, flow.stable_dt(s))
    assert after.sigma_tilde < s.sigma_tilde
    assert after.t == pytest.approx(flow.stable_dt(s))
    # the explicit step preserves the volume only approximately
    assert abs(after.volume - 2.0) < 1e-6


def test_renormalize_restores_volume_and_scales_sigma(grid256):
    v = math.sqrt(2.0) * (1.0 + 0.2 * np.sin(3.0 * grid256.cell_centers))
    s = flow.FlowState(grid256, v, volume_target=2.0)
    r = flow.renormalize(s)
    assert math.isclose(r.volume, 2.0, rel_tol=1e-12)
    # v -> cv rescales the curvature by 1/c^2
    expected = s.sigma_tilde * (s.volume / 2.0) ** 0.5
    assert math.isclose(r.sigma_tilde, expected, rel_tol=1e-12)


def test_constant_curvature_state_is_flat_and_stationary(constant_curvature_state):
    cc = constant_curvature_state
    scal = geo.scalar_from_v(cc.v, cc.grid)
    dvol = cc.v**4 * cc.grid.weights
    assert float(np.dot((scal - cc.sigma_tilde) ** 2, dvol)) < 1e-20
    after = flow.step(cc, flow.stable_dt(cc))
    assert float(np.max(np.abs(after.v - cc.v))) < 1e-14


def test_run_structure():
    res = flow.run(Scenario(n_cells=64, t_end=0.004, snapshot_every=0.002))
    assert res.completed and res.failure is None
    times = [rec.t for rec in res.records]
    assert times[0] == 0.0
    assert np.all(np.diff(times) > 0)
    assert math.isclose(times[-1], 0.004, rel_tol=1e-9)
    sigmas = [rec.sigma_tilde for rec in res.records]
    assert np.all(np.diff(sigmas) <= 1e-9)
    for rec in res.records:
        assert abs(rec.volume - 2.0) < 1e-6
        assert set(rec.mass_fractions) == {0.1, 0.05}
    assert res.snapshots[0][0] == 0.0
    assert res.snapshots[-1][0] == pytest.approx(0.004)
    assert res.final_state.t == pytest.approx(0.004)


def test_run_record_count_matches_steps():
    res = flow.run(Scenario(n_cells=64, t_end=0.004, snapshot_every=0.0))
    # one record per step plus the initial one; no intermediate snapshots
    assert len(res.records) >= 2
    assert res.records[1].dt_used > 0.0
    assert res.records[0].dt_used == 0.0
    assert len(res.snapshots) == 2


@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_divergence_bands_apply_the_flux_divergence(grading):
    # the ROS2 system's bands are the quotient form's, and its masses the
    # curvature divisor, both read-only and built once
    grid = geo.build_grid(64, grading, 0.9)
    c, d, _, _ = grid.quotient_form
    mass = grid.curvature_divisor
    assert grid.curvature_divisor is mass
    assert not (c.flags.writeable or d.flags.writeable or mass.flags.writeable)
    bands = grid.quotient_bands
    assert grid.quotient_bands is bands and not bands.flags.writeable
    dense = np.diag(bands[1]) + np.diag(bands[0, 1:], 1) + np.diag(bands[2, :-1], -1)
    rng = np.random.default_rng(3)
    v = 1.0 + rng.random(64)
    # the curvature is minus the flux divergence over v^3: the fluxes v_0 at
    # the first face, (1 - f^2) diff(x v) / diff(x) inside and none at the last
    x = grid.cell_centers
    flux = np.concatenate(([v[0]], (1.0 - grid.faces[1:-1] ** 2) * np.diff(x * v) / np.diff(x),
                           [0.0]))
    expected = -np.diff(flux)
    got = dense @ v / (12.0 * np.pi**2 * x)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
    assert np.allclose(geo.scalar_from_v(v, grid) * mass * v**3, dense @ v, rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(dense @ v)))
    # the bands are the matrix of the form
    u = rng.standard_normal(64)
    product = geo.apply_form(c, d, u)
    assert np.allclose(dense @ u, product, rtol=1e-12, atol=1e-12 * np.max(np.abs(product)))
    assert math.isclose(geo.inner(u, product), float(u @ dense @ u), rel_tol=1e-12)


def _fixed_step_ros2(grid, t_end, n_steps):
    state = flow.FlowState(grid, np.full(grid.n_cells, 4.0**0.25))
    for _ in range(n_steps):
        state, _err = flow.rosenbrock_step(state, t_end / n_steps)
    return state


def test_rosenbrock_step_is_second_order(grid64):
    reference = _fixed_step_ros2(grid64, 0.004, 1024).v
    errors = [float(np.max(np.abs(_fixed_step_ros2(grid64, 0.004, n).v - reference)))
              for n in (4, 8, 16)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 3.5


def test_rosenbrock_step_estimates_its_error():
    s = flow.initial_state(Scenario(n_cells=64))
    new, err = flow.rosenbrock_step(s, 1e-3)
    assert new.t == pytest.approx(1e-3)
    assert new.volume_target == s.volume_target
    # the estimate is the distance to the embedded Euler solution w + h k1,
    # Euler's local error, so it quarters when the step halves
    _, half = flow.rosenbrock_step(s, 5e-4)
    assert 3.5 < err / half < 4.5
    with pytest.raises(ValueError):
        flow.rosenbrock_step(s, 0.0)
    with pytest.raises(ValueError):
        flow.rosenbrock_step(s, math.nan)


# the long horizon, free of snapshot clips, is where the error controller
# sets the step size: at _TOL = 1e-3 its volume drift is 6.6e-5
@pytest.mark.parametrize("n_cells, t_end", [(256, 0.02), (64, 1.0)])
def test_run_matches_explicit_reference(n_cells, t_end):
    cfg = Scenario(n_cells=n_cells, t_end=t_end, renorm_every=20, snapshot_every=0.0)
    result = flow.run(cfg)
    assert max(abs(rec.volume / 2.0 - 1.0) for rec in result.records) <= 1e-6
    state, steps = flow.initial_state(cfg), 0
    while state.t < cfg.t_end * (1.0 - 1e-12):
        state = flow.step(state, min(flow.stable_dt(state, 0.1), cfg.t_end - state.t))
        steps += 1
        if steps % cfg.renorm_every == 0:
            state = flow.renormalize(state)
    error = float(np.max(np.abs(result.final_state.v - state.v)))
    motion = float(np.max(np.abs(state.v - flow.initial_state(cfg).v)))
    assert error <= 1e-5 * float(np.max(state.v))
    assert error <= 1e-3 * motion
    assert len(result.records) - 1 < steps / 10


def test_constant_start_with_a_value_keeps_its_volume():
    # an explicit init.value is its own volume target, so no renormalization
    # jumps the run: every row keeps the criterion-2 bounds
    result = flow.run(Scenario(init_value=1.5, renorm_every=5))
    assert result.completed
    records = result.records
    assert records[0].volume == pytest.approx(1.5**4 / 2.0, rel=1e-14)
    assert all(b.sigma_tilde <= a.sigma_tilde + 1e-9 for a, b in zip(records, records[1:]))
    assert max(abs(rec.volume / records[0].volume - 1.0) for rec in records) <= 1e-6


def test_run_snapshots_land_on_distinct_multiples():
    every = 0.0005
    res = flow.run(Scenario(n_cells=64, t_end=0.004, snapshot_every=every))
    times = [t for t, _v in res.snapshots]
    assert len(times) == 9 and len(set(times)) == 9
    for k, t in enumerate(times):
        assert abs(t - k * every) <= 1e-12 * max(k * every, every)


def test_run_stops_on_positivity_loss_within_explicit_bound(monkeypatch):
    def lose_positivity(state, h):
        raise flow.PositivityError("conformal cube lost positivity in 1 cells")

    monkeypatch.setattr(flow, "rosenbrock_step", lose_positivity)
    res = flow.run(Scenario(n_cells=64, t_end=0.004, snapshot_every=0.0))
    assert not res.completed
    assert res.failure.startswith("conformal cube lost positivity")
    assert len(res.records) == 1 and len(res.snapshots) == 1


def test_run_retries_positivity_loss_above_explicit_bound(monkeypatch):
    # an attempt longer than the cap loses positivity; the run shrinks the
    # step and carries on, because the first failure is above stable_dt
    real, cap = flow.rosenbrock_step, 2e-3  # stable_dt is 1.5e-3 here
    rejected = []

    def capped(state, h):
        if h > cap:
            rejected.append(h)
            raise flow.PositivityError("conformal cube lost positivity in 1 cells")
        return real(state, h)

    monkeypatch.setattr(flow, "rosenbrock_step", capped)
    res = flow.run(Scenario(n_cells=64, t_end=0.004, snapshot_every=0.0))
    assert res.completed and rejected
    assert max(rec.dt_used for rec in res.records) <= cap
    assert res.final_state.t == pytest.approx(0.004)


def test_advance_through_two_stops_reaches_the_first_as_run_does():
    # one pass through [t1, t2] takes the steps a run to t_end = t1 takes
    t1, t2 = 0.004, 0.01
    cfg = Scenario(n_cells=64, t_end=t1, snapshot_every=0.0)
    result = flow.run(cfg)
    passed = flow.advance(flow.initial_state(cfg), [t1, t2], cfg.safety, cfg.renorm_every)
    steps = []
    for state, h, stopped in passed:
        steps.append(h)
        if stopped:
            break
    assert state.t == result.final_state.t
    assert state.v.tobytes() == result.final_state.v.tobytes()
    assert steps == [rec.dt_used for rec in result.records[1:]]
    # the pass goes on to t2 from there
    *_, (last, _h, stopped) = passed
    assert stopped and last.t == pytest.approx(t2, rel=1e-12)


def test_advance_stops_on_every_stop():
    stops = [0.001, 0.0025, 0.004]
    state = flow.initial_state(Scenario(n_cells=64))
    yielded = list(flow.advance(state, stops, 0.4, 5))
    on_stops = [s.t for s, _h, stopped in yielded if stopped]
    assert len(on_stops) == len(stops)
    for t, stop in zip(on_stops, stops):
        assert abs(t - stop) <= 1e-12 * stop
    assert yielded[-1][2] and yielded[-1][0].t == on_stops[-1]
    # between stops the states advance in time, and every fifth is renormalized
    times = [s.t for s, _h, _stopped in yielded]
    assert np.all(np.diff(times) > 0.0)
    assert all(s.volume == pytest.approx(s.volume_target, rel=1e-14)
               for s, _h, _stopped in yielded[4::5])


def _stops_of_run(monkeypatch, cfg):
    """The stops run passes to advance, and the run's result."""
    real, seen = flow.advance, []

    def recording(state, stops, safety, renorm_every):
        seen.extend(stops)
        return real(state, seen, safety, renorm_every)

    monkeypatch.setattr(flow, "advance", recording)
    return seen, flow.run(cfg)


def test_run_without_snapshot_interval_stops_only_at_t_end(monkeypatch):
    stops, result = _stops_of_run(monkeypatch, Scenario(n_cells=64, t_end=0.01,
                                                        snapshot_every=0.0))
    assert stops == [0.01]
    assert [t for t, _v in result.snapshots] == [0.0, result.final_state.t]


# 400 * 0.005 is 2.0 exactly, so t_end alone stops there; 9 * 0.0013 falls
# 2e-18 short of 0.0117, within the relative 1e-12 that counts as reaching
# t_end, so it is no stop of its own and the run ends on t_end itself
@pytest.mark.parametrize("t_end, every, multiples, snapshots",
                         [(2.0, 0.005, 399, 401), (0.0117, 0.0013, 8, 10)])
def test_run_takes_one_snapshot_where_a_multiple_meets_t_end(monkeypatch, t_end, every,
                                                             multiples, snapshots):
    stops, result = _stops_of_run(monkeypatch, Scenario(n_cells=64, t_end=t_end,
                                                        snapshot_every=every))
    assert stops == [k * every for k in range(1, multiples + 1)] + [t_end]
    times = [t for t, _v in result.snapshots]
    assert len(times) == len(set(times)) == snapshots
    assert times[-1] == result.final_state.t == t_end


def test_run_rejects_sphere_model():
    with pytest.raises(ValueError):
        flow.run(Scenario(model_type="sphere", n_cells=64, t_end=0.001))


def test_scenario_builds_its_model():
    # the one builder of the configured model, a RadialGrid for either type:
    # the sphere on its polar grid, or the eguchi-hanson reduction, which
    # alone has a flow state
    sphere = Scenario(model_type="sphere", sphere_n=5, n_cells=64)
    for model, expected in ((sphere.model(), geo.build_sphere_model(5, 64)),
                            (Scenario().model(), geo.build_grid(256))):
        assert isinstance(model, geo.RadialGrid)
        for name in ("faces", "cell_centers", "weights"):
            assert np.array_equal(getattr(model, name), getattr(expected, name))
        for mine, theirs in zip(model.quotient_form, expected.quotient_form):
            assert np.array_equal(mine, theirs)
    assert sphere.model().quotient_form[3] == 2.0 * 5 / 3
    with pytest.raises(ValueError, match="eguchi-hanson"):
        flow.initial_state(sphere)


def test_initial_state_from_file_keeps_table_volume(tmp_path, grid64):
    xs = np.linspace(0.0, 1.0, 40)
    vs = 1.2 + 0.1 * xs
    path = tmp_path / "profile.csv"
    np.savetxt(path, np.column_stack([xs, vs]), delimiter=",")
    s = flow.initial_state(Scenario(n_cells=64, init_type="file", init_path=str(path)))
    direct = flow.FlowState(grid64, np.interp(grid64.cell_centers, xs, vs))
    assert math.isclose(s.volume, direct.volume, rel_tol=1e-12)
    assert s.volume_target == s.volume
    assert np.allclose(s.v, direct.v, rtol=1e-12)


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        Scenario(init_type="random")
    with pytest.raises(ValueError):
        Scenario(init_type="file")
    with pytest.raises(ValueError):
        Scenario(init_value=-2.0)
    ok = Scenario()
    assert ok.init_type == "constant" and ok.init_value is None


def test_flow_config_validation():
    with pytest.raises(ValueError):
        Scenario(t_end=0.0)
    with pytest.raises(ValueError):
        Scenario(t_end=0.01, safety=1.0)
    with pytest.raises(ValueError):
        Scenario(t_end=0.01, renorm_every=-1)
    with pytest.raises(ValueError):
        Scenario(t_end=0.01, snapshot_every=-0.1)
    # a run takes at most MAX_STOPS snapshot stops, so a positive snapshot
    # interval below t_end / MAX_STOPS is refused, naming both values; these
    # are constructed only, never run
    for every in (1e-17, 1e-300, 2e-15, 0.5e-3 / MAX_STOPS):
        with pytest.raises(ConfigError, match=rf"^time.snapshot_every {every:g} is below "
                                              r"time.t_end 0.001 / 10000: "):
            Scenario(t_end=1e-3, snapshot_every=every)
    for every in (0.0, 1e-3 / MAX_STOPS, 1e-3):
        assert Scenario(t_end=1e-3, snapshot_every=every).snapshot_every == every
    # distinct values that would share a series column or a moment key
    with pytest.raises(ConfigError, match="diagnostics.cutoffs"):
        Scenario(cutoffs=[0.1, 0.1000001])
    with pytest.raises(ConfigError, match="diagnostics.f_p_exponents"):
        Scenario(f_p_exponents=[2, 2.0000001, 3])
    assert Scenario(cutoffs=[0.1, 0.100001]).cutoffs == (0.1, 0.100001)
