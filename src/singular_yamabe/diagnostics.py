"""Concentration and convergence diagnostics for reduced flow states.

The functions here answer the qualitative questions about a run: is the
curvature settling toward its average, is volume piling up near the
singular end, does the concentrating profile look like a rescaled
spherical bubble, and how do the standard energy thresholds classify the
initial data.  Everything is a pure function of states, records, or plain
numbers; nothing mutates its inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .flow import FlowState, TimeSeriesRecord, boundary_value, mass_fraction, moment
from .geometry import Y_LOCAL, distance_from_singular_point, green_kernel, inner
from .scenario import Scenario, value_name


class BubbleFitError(RuntimeError):
    """The profile does not expose a usable bubble core."""


# ---------------------------------------------------------------------------
# curvature deviation moments
# ---------------------------------------------------------------------------


def f_p(state: FlowState, p: float) -> float:
    """p-th moment of the scalar curvature deviation from its mean.

    Integrates |deviation|^p against the conformal volume element, so a
    state with spatially constant curvature returns exactly zero and the
    value scales like the p-th power of the deviation amplitude.
    """
    if p < 1.0:
        raise ValueError(f"moment order must be >= 1, got {p}")
    with np.errstate(over="ignore"):  # a moment past the double range is inf
        return moment(state.scalar - state.sigma_tilde, state.dvol, p)


def decay_rate_fit(records: list[TimeSeriesRecord]) -> float:
    """Exponential decay rate of the second deviation moment.

    Fits a line to log F2 over the trailing half of the records and
    returns the negated slope; six records leave three points in that
    window, the fewest that still leave a residual.  A window touching
    F2 = 0 means the decay has bottomed out at machine level, reported as
    +inf.
    """
    if len(records) < 6:
        raise ValueError(f"need at least 6 records to fit a rate, got {len(records)}")
    tail = records[len(records) // 2 :]
    t = np.array([r.t for r in tail])
    f2 = np.array([r.f2 for r in tail])
    if np.any(f2 <= 0.0):
        return math.inf
    # fitted against t / 2^k in [0.5, 1): polyfit scales its columns by their
    # norms, so the power of two passes through exactly, and times whose
    # squares overflow (past about 1e154) fit like any others
    k = math.frexp(t.max())[1]
    slope = np.polyfit(np.ldexp(t, -k), np.log(f2), 1)[0]
    return math.ldexp(-slope, -k)


# ---------------------------------------------------------------------------
# unit conversions between reduced and geometric normalizations
# ---------------------------------------------------------------------------

# The reduced variables measure curvature against the interval volume
# int v^4 x dx while the threshold constants live on the four dimensional
# space with its pi^2-weighted measure.  The bridge for the curvature
# average is sigma_phys = 12 pi sigma_reduced sqrt(2 V) and for the
# quadratic curvature integral a factor (12 pi)^2 * 2 on the squared norm.


def physical_sigma(sigma_tilde: float, volume: float) -> float:
    """Convert a reduced curvature average to the geometric normalization."""
    return 12.0 * math.pi * sigma_tilde * math.sqrt(2.0 * volume)


def positive_scalar_l2_norm(state: FlowState) -> float:
    """L2 norm of the positive part of scalar curvature, geometric units.

    For the default constant start this evaluates to 12 sqrt(2) pi, which
    sits above the local threshold 8 sqrt(3) pi, so the small-energy test
    fails on this geometry by a genuine margin rather than a tie.
    """
    reduced_sq = moment(np.maximum(state.scalar, 0.0), state.dvol, 2.0)
    return 12.0 * math.sqrt(2.0) * math.pi * math.sqrt(reduced_sq)


def scalar_l2_bound(state: FlowState) -> float:
    """Reduced quadratic curvature integral, the quantity the sup bound needs."""
    return moment(state.scalar, state.dvol, 2.0)


# ---------------------------------------------------------------------------
# threshold tests
# ---------------------------------------------------------------------------

# The tests below compare against Y_LOCAL in dimension n = 4, where the global
# threshold Y equals the local one and every n/2 power is a square; the
# combined threshold Y^(n/2) + Y_local^(n/2) is then:
_COMBINED_THRESHOLD = Y_LOCAL**2.0 + Y_LOCAL**2.0


def small_energy_test(s0_plus_norm: float) -> bool:
    """Strict comparison of the initial positive-curvature mass with the local threshold."""
    if s0_plus_norm < 0.0:
        raise ValueError("norms must be nonnegative")
    return bool(s0_plus_norm < Y_LOCAL)


def low_average_test(sigma0: float) -> bool:
    """Non-strict comparison of sigma0^(n/2) against the combined threshold."""
    if sigma0 < 0.0:
        raise ValueError("inputs must be nonnegative")
    return bool(sigma0**2.0 <= _COMBINED_THRESHOLD)


def max_bubble_count(sigma_inf: float) -> int:
    """Largest number of quantized concentration points the energy allows.

    Each concentration point costs volume at least (Y_local / sigma_inf)
    to the power n/2, so the count is the floor of the inverse ratio.  A
    tiny relative nudge absorbs cases like ratio 2^(2/n) whose power is an
    exact integer that floating point may represent from below.
    """
    if sigma_inf < 0.0:
        raise ValueError("the limiting average must be nonnegative")
    value = (sigma_inf / Y_LOCAL) ** 2.0
    return int(math.floor(value * (1.0 + 1e-12) + 1e-12))


# ---------------------------------------------------------------------------
# concentration detection
# ---------------------------------------------------------------------------


def concentration_threshold_fraction(sigma_inf_phys: float, volume_target: float) -> float:
    """Volume fraction a single concentration point must at least carry."""
    if sigma_inf_phys <= 0.0:
        return math.inf
    return (Y_LOCAL / sigma_inf_phys) ** 2.0 / volume_target


def detect_concentration(state: FlowState, sigma_inf_phys: float):
    """Decide whether volume has concentrated near the singular end.

    The fraction inside each of the cutoffs x = 0.1, 0.05 and 0.025 must
    clear the quantization threshold.  Demanding persistence under
    refinement separates genuine point-mass formation from a profile that
    merely leans toward small x.  Returns the flag and the evidence as
    {"t", "cutoff", "fraction"} entries.
    """
    frac_needed = concentration_threshold_fraction(sigma_inf_phys, state.volume_target)
    history = []
    flagged = True
    for cutoff in (0.1, 0.05, 0.025):
        frac = mass_fraction(state, cutoff)
        history.append({"t": state.t, "cutoff": cutoff, "fraction": frac})
        if frac <= frac_needed:
            flagged = False
    return flagged, history


# ---------------------------------------------------------------------------
# boundary identity and the sup bound
# ---------------------------------------------------------------------------


def green_identity_residual(state: FlowState) -> float:
    """Mismatch in the kernel representation of the boundary value.

    Smooth states satisfy 2 v(1) = sum G(x) scal v^3 x dx up to first
    order in the mesh; random data still returns a finite number, so this
    doubles as a smoke test for state plumbing.
    """
    kernel = green_kernel(state.grid.cell_centers)
    integral = inner(kernel * state.scalar, state.v**3 * state.grid.weights)
    lhs = 2.0 * boundary_value(state)
    return abs(lhs - integral) / max(1.0, abs(lhs))


# int G(x)^4 x dx over (0, 1), the kernel's fourth moment.  The integrand ends
# in an integrable log^4 singularity, which geometry.tanh_sinh_rule integrates:
# tests/test_diagnostics.py::test_green_fourth_moment_matches_quadrature
# holds this value to the rule's sum within 1e-9 relative.
GREEN_FOURTH_MOMENT = 57.69873135644655


def sup_bound_check(state: FlowState, lam: float) -> dict:
    """Check the kernel-derived ceiling x v(x) <= C and the slope it rests on.

    C combines the fourth moment of the kernel with the quadratic
    curvature integral lam carried by the initial data.  The worst
    face-wise decrease of x v, which must stay nonnegative for data that
    started with nonnegative curvature, is the monotonicity violation.
    """
    if lam < 0.0:
        raise ValueError("the curvature integral bound must be nonnegative")
    ceiling = (GREEN_FOURTH_MOMENT ** 0.25 * math.sqrt(lam)
               * state.volume_target**0.25 / 2.0)
    xv_cells = state.grid.cell_centers * state.v
    over = np.maximum(xv_cells - ceiling, 0.0)
    xv_faces = np.concatenate([[0.0], xv_cells, [boundary_value(state)]])
    drops = np.maximum(-np.diff(xv_faces), 0.0)
    return {"C": float(ceiling), "max_violation": float(over.max()),
            "monotonicity_violation": float(drops.max())}


# ---------------------------------------------------------------------------
# bubble profile fitting
# ---------------------------------------------------------------------------


def bubble_fit(state: FlowState, a: float) -> dict:
    """Fit a rescaled spherical profile to the concentrating core.

    In four dimensions the reciprocal of the bubble profile is affine in
    the squared distance from the concentration point, so the fit is a
    plain linear least-squares problem on the cells where v exceeds half
    its maximum.  The distance is the background one from the singular
    point.  The fit runs at core scale 1, and the scale and amplitude it
    returns are a times its own, with the relative rms residual and the
    [first, past-last] cell window.
    """
    window = np.nonzero(state.v >= 0.5 * state.v.max())[0]
    if len(window) < 8:
        raise BubbleFitError(
            f"fit window has {len(window)} cells, need at least 8")
    dsq = distance_from_singular_point(state.grid.cell_centers[window]) ** 2
    recip = 1.0 / state.v[window]
    design = np.column_stack([dsq, np.ones_like(dsq)])
    (slope, intercept), *_ = np.linalg.lstsq(design, recip, rcond=None)
    if slope <= 0.0 or intercept <= 0.0:
        raise BubbleFitError(
            f"fitted coefficients slope={slope:g} intercept={intercept:g} "
            "do not describe a bubble")
    scale = math.sqrt(intercept / slope)
    c_fit = 1.0 / (slope * scale)
    fitted = 1.0 / (slope * dsq + intercept)
    residual = float(np.sqrt(np.mean(((fitted - state.v[window]) / state.v[window]) ** 2)))
    return {"scale_eps_lambda": float(a * scale), "c_fit": float(a * c_fit),
            "residual": residual, "window": [int(window[0]), int(window[-1]) + 1]}


def rigidity_profile_constant(sigma: float) -> float:
    """Amplitude sqrt(4 n (n - 1) / sigma) = sqrt(48 / sigma), n = 4, of the
    bubble alpha eps / (eps^2 + d^2) solving -6 Laplace u = sigma u^3 on the
    flat R^4/Z_2 the background is near its singular point.  The metric's
    curvature mean sigma is 24 sigma_tilde / a^2 at core scale a: a constant
    v = c has reduced curvature 2 x / c^2, the metric 48 x / (a^2 c^2)."""
    if sigma <= 0.0:
        raise ValueError("needs a positive limiting average")
    return math.sqrt(48.0 / sigma)


# ---------------------------------------------------------------------------
# the dichotomy report
# ---------------------------------------------------------------------------


def build_dichotomy_report(initial_state: FlowState, final_state: FlowState,
                           records: list[TimeSeriesRecord], scenario: Scenario) -> dict:
    """Classify a run against the energy thresholds and concentration rule.

    Returns the report as plain JSON data: the threshold flags and the
    concentration evidence, the decay rate of the series ``records``, the
    final deviation moments (``None`` for one past the double range), the
    kernel identity and sup bound checks, and a bubble fit when
    concentration is detected (``None`` otherwise).  A fit or a rate that
    cannot be made is reported as an ``error`` entry.
    """
    s0_plus = positive_scalar_l2_norm(initial_state)
    sigma0 = physical_sigma(initial_state.sigma_tilde, initial_state.volume)
    sigma_inf = physical_sigma(final_state.sigma_tilde, final_state.volume)
    flagged, history = detect_concentration(final_state, sigma_inf)

    try:
        rate = decay_rate_fit(records)
        decay = {"rate": None if math.isinf(rate) else rate,
                 "window_records": len(records) - len(records) // 2}
    except ValueError as err:
        decay = {"rate": None, "error": str(err)}

    bubble = None
    if flagged:
        try:
            bubble = bubble_fit(final_state, scenario.a)
            sigma = 24.0 * final_state.sigma_tilde  # the metric's, at core scale 1
            bubble["c_over_rigidity_constant"] = (
                bubble["c_fit"] / (scenario.a * rigidity_profile_constant(sigma))
                if sigma > 0.0 else None)
        except BubbleFitError as err:
            bubble = {"error": str(err)}

    moments = {value_name(p): f_p(final_state, p) for p in scenario.f_p_exponents}
    return {
        "dichotomy": {
            "small_energy_ok": small_energy_test(s0_plus),
            "low_average_ok": low_average_test(sigma0),
            "max_bubble_count": max_bubble_count(sigma_inf),
            "concentration_detected": flagged,
            "concentration_cutoff_history": history,
            "s0_plus_norm": s0_plus,
            "sigma0": sigma0,
            "sigma_inf": sigma_inf,
            "thresholds": {"Y": Y_LOCAL, "Y_local": Y_LOCAL, "n": 4},
        },
        "alternate_flags": alternate_flag_variants(),
        "decay_rate_fit": decay,
        "deviation_moments_final": {k: m if math.isfinite(m) else None
                                    for k, m in moments.items()},
        "green_identity_residual": green_identity_residual(final_state),
        "sup_bound": sup_bound_check(final_state, scalar_l2_bound(initial_state)),
        "bubble_fit": bubble,
    }


def alternate_flag_variants() -> dict:
    """Re-run the average test with the fixed constants pi^4/12 and pi^10.

    These two numbers circulate as quoted values for the initial averages
    on this geometry but they do not fit the unit chain every other
    quantity in this module satisfies, so reports carry both evaluations
    side by side with an explicit consistency marker instead of silently
    choosing one.  In dimension 4 the squared variant is the one compared.
    """
    sigma0_sq_variant = math.pi**10
    return {
        "sigma0_variant": math.pi**4 / 12.0,
        "sigma0_squared_variant": sigma0_sq_variant,
        "low_average_ok_variant": bool(sigma0_sq_variant <= _COMBINED_THRESHOLD),
        "consistent_with_derived_units": False,
    }
