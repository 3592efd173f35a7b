"""Checks for the moment, threshold, concentration and fitting helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singular_yamabe import diagnostics as diag
from singular_yamabe import flow
from singular_yamabe import geometry as geo
from singular_yamabe import variational as var
from singular_yamabe.scenario import Scenario

GRID_G512 = geo.build_grid(512, "geometric", 0.97)
D0_G512 = geo.distance_from_singular_point(GRID_G512.cell_centers, 1.0)
EH = geo.EguchiHansonModel(a=1.0)


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
                        var.orbifold_thresholds().Y_local, rel_tol=1e-13)


def test_positive_scalar_norm_of_default_start():
    s = flow.initial_state(Scenario(n_cells=512))
    assert math.isclose(diag.positive_scalar_l2_norm(s),
                        12.0 * math.sqrt(2.0) * math.pi, rel_tol=1e-5)


def test_small_energy_test_comparisons():
    y_local = var.orbifold_thresholds().Y_local
    assert diag.small_energy_test(12.0 * math.sqrt(2.0) * math.pi, y_local) is False
    assert diag.small_energy_test(0.5 * y_local, y_local) is True
    # strict: a tie does not pass
    assert diag.small_energy_test(y_local, y_local) is False
    with pytest.raises(ValueError):
        diag.small_energy_test(-1.0, y_local)


def test_low_average_test_comparisons():
    th = var.orbifold_thresholds()
    # 256 pi^2 against 384 pi^2
    assert diag.low_average_test(16.0 * math.pi, th.Y, th.Y_local, 4) is True
    assert diag.low_average_test(100.0 * math.pi, th.Y, th.Y_local, 4) is False
    combined = (th.Y**2 + th.Y_local**2) ** 0.5
    assert diag.low_average_test(combined, th.Y, th.Y_local, 4) is True


def test_max_bubble_count_arithmetic():
    y = var.orbifold_thresholds().Y_local
    assert diag.max_bubble_count(y, y, 4) == 1
    assert diag.max_bubble_count(0.9 * y, y, 4) == 0
    # ratio 2^(2/n) squares to exactly two bubbles worth of volume
    assert diag.max_bubble_count(y * 2.0 ** 0.5, y, 4) == 2
    assert diag.max_bubble_count(0.0, y, 4) == 0
    with pytest.raises(ValueError):
        diag.max_bubble_count(1.0, 0.0, 4)


@given(lo=st.floats(0.0, 200.0), hi=st.floats(0.0, 200.0))
@settings(max_examples=60, deadline=None)
def test_max_bubble_count_monotone(lo, hi):
    y = var.orbifold_thresholds().Y_local
    lo, hi = sorted((lo, hi))
    assert diag.max_bubble_count(lo, y, 4) <= diag.max_bubble_count(hi, y, 4)


# concentration -------------------------------------------------------------


def test_concentration_threshold_fraction():
    th = var.orbifold_thresholds()
    val = diag.concentration_threshold_fraction(2.0 * th.Y_local, th, 2.0)
    assert math.isclose(val, 0.125, rel_tol=1e-13)
    assert diag.concentration_threshold_fraction(0.0, th, 2.0) == math.inf


def test_detect_concentration_fires_on_bubble():
    th = var.orbifold_thresholds()
    s = flow.renormalize(_bubble_state(0.02, 2.0, volume_target=2.0))
    flag, hist = diag.detect_concentration(s, 1.05 * th.Y_local, th)
    assert flag
    assert len(hist) == 3
    cutoffs = [c for _, c, _ in hist]
    assert cutoffs == [0.1, 0.05, 0.025]
    assert all(f > 0.9 for _, _, f in hist)


def test_detect_concentration_quiet_on_constant():
    th = var.orbifold_thresholds()
    s = flow.initial_state(Scenario(n_cells=512, grading="geometric"))
    flag, hist = diag.detect_concentration(s, 16.0 * math.pi, th)
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
    assert rep.C > float(np.max(s.grid.cell_centers * s.v))
    assert rep.max_violation == 0.0
    assert rep.monotonicity_violation == 0.0
    with pytest.raises(ValueError):
        diag.sup_bound_check(s, -1.0)


# bubble profile fit --------------------------------------------------------


@given(eps=st.floats(1e-3, 1.0), c=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_bubble_fit_is_exact_on_model_profiles(eps, c):
    fit = diag.bubble_fit(_bubble_state(eps, c), EH)
    assert abs(fit.scale_eps_lambda - eps) / eps < 1e-10
    assert abs(fit.c_fit - c) / c < 1e-10
    assert fit.residual < 1e-12
    assert fit.window[1] - fit.window[0] >= 8


def test_bubble_fit_window_too_small():
    grid = geo.build_grid(64, "uniform")
    d0 = geo.distance_from_singular_point(grid.cell_centers, 1.0)
    v = 1e-3 / (1e-6 + d0**2)
    with pytest.raises(diag.BubbleFitError):
        diag.bubble_fit(flow.FlowState(grid, v), EH)


def test_bubble_fit_rejects_growing_profile():
    v = 1.0 + D0_G512**2
    with pytest.raises(diag.BubbleFitError):
        diag.bubble_fit(flow.FlowState(GRID_G512, v), EH)


def test_bubble_fit_under_noise():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        v = 2.0 * 0.05 / (0.05**2 + D0_G512**2)
        v = v * (1.0 + 0.01 * rng.standard_normal(512))
        fit = diag.bubble_fit(flow.FlowState(GRID_G512, v), EH)
        worst = max(worst,
                    abs(fit.scale_eps_lambda - 0.05) / 0.05,
                    abs(fit.c_fit - 2.0) / 2.0)
    assert worst < 0.025


def test_rigidity_profile_constant():
    assert diag.rigidity_profile_constant(12.0) == 1.0
    assert math.isclose(diag.rigidity_profile_constant(3.0), 2.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        diag.rigidity_profile_constant(0.0)


# report assembly -----------------------------------------------------------


def test_dichotomy_report_of_short_run():
    cfg = Scenario(n_cells=128, t_end=0.004, snapshot_every=0.0)
    res = flow.run(cfg)
    th = var.orbifold_thresholds()
    rep = diag.build_dichotomy_report(flow.initial_state(cfg), res.final_state, th)
    assert rep.small_energy_ok is False
    assert rep.low_average_ok is True
    assert rep.max_bubble_count == 1
    assert rep.concentration_detected is False
    assert len(rep.concentration_cutoff_history) == 3
    # the stored scalars reproduce the stored booleans
    assert diag.small_energy_test(rep.s0_plus_norm, th.Y_local) == rep.small_energy_ok
    assert diag.low_average_test(rep.sigma0_phys, th.Y, th.Y_local, th.n) == rep.low_average_ok
    assert diag.max_bubble_count(rep.sigma_inf_phys, th.Y_local, th.n) == rep.max_bubble_count
    assert rep.sigma0_phys == pytest.approx(16.0 * math.pi, rel=1e-4)
    assert rep.sigma_inf_phys < rep.sigma0_phys


def test_alternate_flag_variants_are_marked_inconsistent():
    out = diag.alternate_flag_variants(var.orbifold_thresholds())
    assert out["sigma0_variant"] == pytest.approx(math.pi**4 / 12.0)
    assert out["sigma0_squared_variant"] == pytest.approx(math.pi**10)
    assert out["low_average_ok_variant"] is False
    assert out["consistent_with_derived_units"] is False
