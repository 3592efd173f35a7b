"""Checks for the moment, threshold, concentration and fitting helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singular_yamabe import diagnostics as diag
from singular_yamabe import flow
from singular_yamabe import geometry as geo
from singular_yamabe.scenario import Scenario

GRID_G512 = geo.build_grid(512, "geometric", 0.97)
D0_G512 = geo.distance_from_singular_point(GRID_G512.cell_centers)


def _record(t, f2):
    return flow.TimeSeriesRecord(t=t, sigma_tilde=0.0, volume=2.0, f2=f2,
                                 f3=0.0, v_at_x1=0.0, mass_fractions={},
                                 dt_used=0.0)


def _bubble_state(eps, c, volume_target=None):
    v = c * eps / (eps**2 + D0_G512**2)
    return flow.FlowState(GRID_G512, v, volume_target=volume_target)


# deviation moments ---------------------------------------------------------


def test_moments_of_constant_start():
    # with v = 2^(1/4) the curvature is x and its mean 2/3, so the moments
    # are beta-type integrals with rational values
    s = flow.initial_state(Scenario(n_cells=512))
    assert abs(diag.f_p(s, 2.0) - 1.0 / 9.0) < 1e-5
    assert abs(diag.f_p(s, 3.0) - 46.0 / 1215.0) < 1e-6
    assert abs(diag.f_p(s, 4.0) - 2.0 / 135.0) < 1e-6


def test_moments_vanish_at_constant_curvature(constant_curvature_state):
    assert diag.f_p(constant_curvature_state, 2.0) < 1e-20
    assert diag.f_p(constant_curvature_state, 3.0) < 1e-28


def test_moments_of_a_tiny_amplitude_are_finite():
    # curvature about 1e120 and dvol about 1e-243: |deviation|^3 overflows,
    # the weighted third moment (about 1e117) does not
    s = flow.initial_state(Scenario(init_value=1e-60))
    record = flow._make_record(s, 0.0, ())
    dev = np.abs(s.scalar - s.sigma_tilde)
    for p, value in ((2.0, record.f2), (3.0, record.f3), (2.0, diag.f_p(s, 2.0)),
                     (3.0, diag.f_p(s, 3.0))):
        assert 0.0 < value < math.inf
        with np.errstate(over="ignore"):
            unweighted = float(np.dot(dev**p, s.dvol))
        if math.isfinite(unweighted):
            assert math.isclose(value, unweighted, rel_tol=1e-13)


def test_moment_order_validation():
    s = flow.initial_state(Scenario(n_cells=32))
    with pytest.raises(ValueError):
        diag.f_p(s, 0.5)


def test_decay_rate_fit_recovers_exact_exponential():
    recs = [_record(0.001 * k, 5.0 * math.exp(-3.0 * 0.001 * k)) for k in range(20)]
    assert abs(diag.decay_rate_fit(recs) - 3.0) < 1e-6


def test_decay_rate_fit_flat_series_is_zero():
    recs = [_record(0.001 * k, 0.25) for k in range(12)]
    assert abs(diag.decay_rate_fit(recs)) < 1e-10


def test_decay_rate_fit_edge_cases():
    with pytest.raises(ValueError):
        diag.decay_rate_fit([_record(0.0, 1.0)] * 5)
    recs = [_record(0.001 * k, 1.0) for k in range(12)]
    recs[-1] = _record(0.011, 0.0)
    assert diag.decay_rate_fit(recs) == math.inf


def test_decay_rate_fit_refuses_a_window_at_one_time():
    # a line through points at one time has no slope: polyfit once divided
    # by zero on it, or fitted a rate to round-off
    with pytest.raises(ValueError, match=r"the last 3 records all lie at t=0\.5: no rate"):
        diag.decay_rate_fit([_record(0.5, math.exp(-k)) for k in range(6)])


@pytest.mark.parametrize("j", [-600, 600])
def test_decay_rate_fit_is_exact_under_a_power_of_two_in_time(j):
    # criterion 4's series with every t times 2^j: the rate is divided by
    # 2^j to the bit, where t^2 past the double range once overflowed
    recs = [_record(0.01 * k, 7.0 * math.exp(-0.03 * k)) for k in range(24)]
    scaled = [_record(math.ldexp(r.t, j), r.f2) for r in recs]
    assert diag.decay_rate_fit(scaled) == math.ldexp(diag.decay_rate_fit(recs), -j)


def test_decay_rate_fit_under_noise():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        recs = [_record(0.05 * k,
                        5.0 * math.exp(-0.15 * k) * (1.0 + 0.01 * rng.standard_normal()))
                for k in range(40)]
        worst = max(worst, abs(diag.decay_rate_fit(recs) - 3.0) / 3.0)
    assert worst < 0.02


# unit bridge and threshold tests -------------------------------------------


def test_physical_sigma_of_default_start():
    assert math.isclose(diag.physical_sigma(2.0 / 3.0, 2.0), 16.0 * math.pi,
                        rel_tol=1e-14)
    # the reduced local level 1/sqrt(3) maps onto the orbifold threshold
    assert math.isclose(diag.physical_sigma(1.0 / math.sqrt(3.0), 2.0),
                        geo.Y_LOCAL, rel_tol=1e-13)


def test_positive_scalar_norm_of_default_start():
    s = flow.initial_state(Scenario(n_cells=512))
    assert math.isclose(diag.positive_scalar_l2_norm(s),
                        12.0 * math.sqrt(2.0) * math.pi, rel_tol=1e-5)


def test_small_energy_test_comparisons():
    assert diag.small_energy_test(12.0 * math.sqrt(2.0) * math.pi) is False
    assert diag.small_energy_test(0.5 * geo.Y_LOCAL) is True
    # strict: a tie does not pass
    assert diag.small_energy_test(geo.Y_LOCAL) is False
    with pytest.raises(ValueError):
        diag.small_energy_test(-1.0)


def test_low_average_test_comparisons():
    # 256 pi^2 against 384 pi^2
    assert diag.low_average_test(16.0 * math.pi) is True
    assert diag.low_average_test(100.0 * math.pi) is False
    combined = (geo.Y_LOCAL**2 + geo.Y_LOCAL**2) ** 0.5
    assert diag.low_average_test(combined) is True
    with pytest.raises(ValueError):
        diag.low_average_test(-1.0)


def test_max_bubble_count_arithmetic():
    y = geo.Y_LOCAL
    assert diag.max_bubble_count(y) == 1
    assert diag.max_bubble_count(0.9 * y) == 0
    # ratio 2^(2/n) squares to exactly two bubbles worth of volume
    assert diag.max_bubble_count(y * 2.0 ** 0.5) == 2
    assert diag.max_bubble_count(0.0) == 0
    with pytest.raises(ValueError):
        diag.max_bubble_count(-1.0)


@given(lo=st.floats(0.0, 200.0), hi=st.floats(0.0, 200.0))
@settings(max_examples=60, deadline=None)
def test_max_bubble_count_monotone(lo, hi):
    lo, hi = sorted((lo, hi))
    assert diag.max_bubble_count(lo) <= diag.max_bubble_count(hi)


# concentration -------------------------------------------------------------


def test_concentration_threshold_fraction():
    val = diag.concentration_threshold_fraction(2.0 * geo.Y_LOCAL, 2.0)
    assert math.isclose(val, 0.125, rel_tol=1e-13)
    assert diag.concentration_threshold_fraction(0.0, 2.0) == math.inf


def test_detect_concentration_fires_on_bubble():
    s = flow.renormalize(_bubble_state(0.02, 2.0, volume_target=2.0))
    flag, hist = diag.detect_concentration(s, 1.05 * geo.Y_LOCAL)
    assert flag
    assert len(hist) == 3
    assert [entry["cutoff"] for entry in hist] == [0.1, 0.05, 0.025]
    assert all(entry["fraction"] > 0.9 for entry in hist)
    assert all(entry["t"] == s.t for entry in hist)


def test_detect_concentration_quiet_on_constant():
    s = flow.initial_state(Scenario(n_cells=512, grading="geometric"))
    flag, hist = diag.detect_concentration(s, 16.0 * math.pi)
    assert not flag
    assert len(hist) == 3


# boundary identity and the sup ceiling -------------------------------------


def test_green_identity_residual_smooth():
    assert diag.green_identity_residual(
        flow.initial_state(Scenario(n_cells=512))) < 1e-3
    assert diag.green_identity_residual(
        flow.initial_state(Scenario(n_cells=256))) < 2e-3


def test_green_identity_residual_is_finite_on_rough_data():
    rng = np.random.default_rng(11)
    grid = geo.build_grid(64, "uniform")
    s = flow.FlowState(grid, 0.5 + rng.random(64))
    assert math.isfinite(diag.green_identity_residual(s))


def test_sup_bound_clears_constant_start():
    s = flow.initial_state(Scenario(n_cells=512))
    rep = diag.sup_bound_check(s, diag.scalar_l2_bound(s))
    assert rep["C"] > float(np.max(s.grid.cell_centers * s.v))
    assert rep["max_violation"] == 0.0
    assert rep["monotonicity_violation"] == 0.0
    with pytest.raises(ValueError):
        diag.sup_bound_check(s, -1.0)


# bubble profile fit --------------------------------------------------------


@given(eps=st.floats(1e-3, 1.0), c=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_bubble_fit_is_exact_on_model_profiles(eps, c):
    fit = diag.bubble_fit(_bubble_state(eps, c), 1.0)
    assert abs(fit["scale_eps_lambda"] - eps) / eps < 1e-10
    assert abs(fit["c_fit"] - c) / c < 1e-10
    assert fit["residual"] < 1e-12
    assert fit["window"][1] - fit["window"][0] >= 8


def test_bubble_fit_window_too_small():
    grid = geo.build_grid(64, "uniform")
    d0 = geo.distance_from_singular_point(grid.cell_centers)
    v = 1e-3 / (1e-6 + d0**2)
    with pytest.raises(diag.BubbleFitError):
        diag.bubble_fit(flow.FlowState(grid, v), 1.0)


def test_bubble_fit_rejects_growing_profile():
    v = 1.0 + D0_G512**2
    with pytest.raises(diag.BubbleFitError):
        diag.bubble_fit(flow.FlowState(GRID_G512, v), 1.0)


def test_bubble_fit_under_noise():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        v = 2.0 * 0.05 / (0.05**2 + D0_G512**2)
        v = v * (1.0 + 0.01 * rng.standard_normal(512))
        fit = diag.bubble_fit(flow.FlowState(GRID_G512, v), 1.0)
        worst = max(worst,
                    abs(fit["scale_eps_lambda"] - 0.05) / 0.05,
                    abs(fit["c_fit"] - 2.0) / 2.0)
    assert worst < 0.025


def test_rigidity_profile_constant():
    # sqrt(4 n (n - 1) / sigma) in dimension 4
    assert diag.rigidity_profile_constant(48.0) == 1.0
    assert math.isclose(diag.rigidity_profile_constant(12.0), 2.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        diag.rigidity_profile_constant(0.0)


# report assembly -----------------------------------------------------------


def test_dichotomy_report_of_short_run():
    cfg = Scenario(n_cells=128, t_end=0.004, snapshot_every=0.0)
    res = flow.run(cfg)
    rep = diag.build_dichotomy_report(flow.initial_state(cfg), res.final_state,
                                      res.records, cfg)
    d = rep["dichotomy"]
    assert d["small_energy_ok"] is False
    assert d["low_average_ok"] is True
    assert d["max_bubble_count"] == 1
    assert d["concentration_detected"] is False
    assert len(d["concentration_cutoff_history"]) == 3
    assert d["thresholds"] == {"Y": geo.Y_LOCAL, "Y_local": geo.Y_LOCAL, "n": 4}
    # the stored scalars reproduce the stored booleans
    assert diag.small_energy_test(d["s0_plus_norm"]) == d["small_energy_ok"]
    assert diag.low_average_test(d["sigma0"]) == d["low_average_ok"]
    assert diag.max_bubble_count(d["sigma_inf"]) == d["max_bubble_count"]
    assert d["sigma0"] == pytest.approx(16.0 * math.pi, rel=1e-4)
    assert d["sigma_inf"] < d["sigma0"]
    # five records are too few for a rate: the report carries the reason
    assert rep["decay_rate_fit"] == {
        "rate": None, "error": f"need at least 6 records to fit a rate, got {len(res.records)}"}
    assert set(rep["deviation_moments_final"]) == {"2", "3"}
    assert rep["bubble_fit"] is None


def test_dichotomy_report_fits_a_concentrated_state():
    cfg = Scenario(n_cells=512, grading="geometric")
    final = flow.renormalize(_bubble_state(0.02, 2.0, volume_target=2.0))
    records = [_record(0.001 * k, math.exp(-k)) for k in range(8)]
    rep = diag.build_dichotomy_report(flow.initial_state(cfg), final, records, cfg)
    assert rep["dichotomy"]["concentration_detected"] is True
    fit = rep["bubble_fit"]
    # renormalizing rescales the amplitude, never the scale
    assert fit["scale_eps_lambda"] == pytest.approx(0.02, rel=1e-10)
    assert fit["residual"] < 1e-12
    sigma_inf = rep["dichotomy"]["sigma_inf"]
    assert sigma_inf == diag.physical_sigma(final.sigma_tilde, final.volume)
    # at core scale 1 the metric's curvature mean is 24 sigma_tilde
    assert fit["c_over_rigidity_constant"] == (
        fit["c_fit"] / diag.rigidity_profile_constant(24.0 * final.sigma_tilde))


def test_flow_bubble_carries_the_rigidity_amplitude_at_every_core_scale():
    # the flow does not read the core scale; the report's fit scales with it
    # and the amplitude ratio does not, even where a^2 over- or underflows
    cfg = Scenario(n_cells=512, grading="geometric", t_end=1000.0, snapshot_every=0.0)
    res = flow.run(cfg)
    assert res.completed
    initial = flow.initial_state(cfg)
    fits = {}
    for a in (1e-200, 0.5, 1.0, 2.0, 1e200):
        rep = diag.build_dichotomy_report(initial, res.final_state, res.records,
                                          Scenario(n_cells=512, grading="geometric", a=a))
        assert rep["dichotomy"]["concentration_detected"] is True
        fits[a] = rep["bubble_fit"]
        assert abs(fits[a]["c_over_rigidity_constant"] - 1.0) < 2e-3, (a, fits[a])
    for a, fit in fits.items():
        for key in ("scale_eps_lambda", "c_fit"):
            assert fit[key] == pytest.approx(a * fits[1.0][key], rel=1e-14)


def test_dichotomy_report_records_a_failed_fit():
    # a core narrower than one cell of the uniform 64-cell grid concentrates
    # but leaves a single cell above half the maximum
    cfg = Scenario(n_cells=64)
    grid = cfg.model()
    d0 = geo.distance_from_singular_point(grid.cell_centers)
    final = flow.renormalize(flow.FlowState(grid, 1e-2 / (1e-4 + d0**2), volume_target=2.0))
    records = [_record(0.001 * k, math.exp(-k)) for k in range(8)]
    rep = diag.build_dichotomy_report(flow.initial_state(cfg), final, records, cfg)
    assert rep["dichotomy"]["concentration_detected"] is True
    assert rep["bubble_fit"] == {"error": "fit window has 1 cells, need at least 8"}


def test_alternate_flag_variants_are_marked_inconsistent():
    out = diag.alternate_flag_variants()
    assert out["sigma0_variant"] == pytest.approx(math.pi**4 / 12.0)
    assert out["sigma0_squared_variant"] == pytest.approx(math.pi**10)
    assert out["low_average_ok_variant"] is False
    assert out["consistent_with_derived_units"] is False


def test_green_fourth_moment_matches_quadrature():
    from scipy.integrate import quad

    value, _ = quad(lambda x: geo.green_kernel(x) ** 4 * x, 0.0, 1.0,
                    limit=300, points=[0.9, 0.99, 0.999])
    assert diag.GREEN_FOURTH_MOMENT == pytest.approx(value, rel=1e-12)
    # the package's own rule integrates the log^4 end at x = 1 (8.8e-11)
    x, _, weights = geo.tanh_sinh_rule()
    value = geo.inner(weights * x, geo.green_kernel(x) ** 4)
    assert diag.GREEN_FOURTH_MOMENT == pytest.approx(value, rel=1e-9)
