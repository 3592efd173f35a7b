"""Grid construction, closed-form geometry, and the discrete curvature map."""

import dataclasses
import functools
import importlib.util
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import betainc
from scipy.special import gamma

from singular_yamabe import geometry as geo


# ---------------------------------------------------------------------------
# radial grids
# ---------------------------------------------------------------------------


@given(n=st.integers(8, 700), grading=st.sampled_from(["uniform", "geometric"]))
@settings(max_examples=40, deadline=None)
def test_grid_basic_invariants(n, grading):
    g = geo.build_grid(n, grading=grading)
    assert g.faces[0] == 0.0
    assert g.faces[-1] == 1.0
    assert np.all(np.diff(g.faces) > 0)
    assert np.all((g.cell_centers > g.faces[:-1]) & (g.cell_centers < g.faces[1:]))
    # the weights are exact cell masses of x dx, so both sums are closed forms
    assert math.isclose(float(np.sum(g.weights)), 0.5, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(float(np.dot(g.cell_centers, g.weights)), 1.0 / 3.0,
                        rel_tol=1e-14)


def test_geometric_grading_shrinks_cells_toward_origin():
    g = geo.build_grid(128, grading="geometric", ratio=0.97)
    widths = g.cell_widths
    assert np.all(np.diff(widths) > 0)  # widths grow with x
    ratios = widths[:-1] / widths[1:]
    assert np.allclose(ratios, 0.97, atol=1e-12)


@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_cell_widths_are_built_once_and_read_only(grading):
    g = geo.build_grid(64, grading, 0.9)
    widths = g.cell_widths
    assert g.cell_widths is widths
    assert np.array_equal(widths, np.diff(g.faces))
    assert not widths.flags.writeable
    with pytest.raises(ValueError):
        widths[0] = 1.0


_EACH_MODEL = pytest.mark.parametrize("build", [lambda: geo.build_grid(64, "uniform"),
                                                lambda: geo.build_grid(64, "geometric", 0.9),
                                                lambda: geo.build_sphere_model(4, 64)],
                                      ids=["uniform", "geometric", "sphere"])


@_EACH_MODEL
def test_model_arrays_are_read_only(build):
    # a model is the record its builder made: no array of it can be written,
    # neither in a field nor in an attribute it builds on first use
    model = build()
    names = [field.name for field in dataclasses.fields(geo.RadialGrid)]
    names += [name for name, value in vars(geo.RadialGrid).items()
              if isinstance(value, functools.cached_property)]
    arrays = []
    for name in names:
        value = getattr(model, name)
        held = [item for item in (value if isinstance(value, tuple) else (value,))
                if isinstance(item, np.ndarray)]
        assert held, name
        arrays += held
    assert len(arrays) >= 8
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@_EACH_MODEL
def test_quotient_bands_are_the_quotient_forms_matrix(build):
    # ROS2's system and the descent's preconditioner read one layout of the
    # quotient form, built once per model
    model = build()
    assert model.quotient_bands.tobytes() == geo.form_bands(*model.quotient_form[:2]).tobytes()


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        geo.build_grid(4)
    with pytest.raises(ValueError):
        geo.build_grid(64, grading="chebyshev")
    with pytest.raises(ValueError):
        geo.build_grid(64, grading="geometric", ratio=0.0)


def test_grid_refuses_cells_below_the_width_floor():
    # the benchmark's grid and the finest one above the floor still build
    for n in (512, 768):
        smallest = float(np.min(geo.build_grid(n, "geometric", 0.97).cell_widths))
        assert smallest >= geo.MIN_CELL_WIDTH
    with pytest.raises(ValueError, match="degenerate"):
        geo.build_grid(1024, "geometric", 0.97)


# ---------------------------------------------------------------------------
# compactified coordinate and closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_coordinate_closed_form(a):
    # x = a^2 / sqrt(a^4 + r^4): 1 at the bolt, falling like (a / r)^2
    r = a * np.concatenate(([0.0], np.logspace(-4.0, 40.0, 89)))
    x = geo.x_of_r(r, a)
    np.testing.assert_allclose(x, a**2 / np.sqrt(a**4 + r**4), rtol=1e-15, atol=0.0)
    assert geo.x_of_r(0.0, a) == 1.0
    assert math.isclose(geo.x_of_r(a, a), math.sqrt(0.5), rel_tol=1e-15)
    with pytest.raises(ValueError):
        geo.x_of_r(-1.0, a)


def test_scalar_curvature_closed_form():
    # 48 / sqrt(a^4 + r^4), exact at the bolt
    assert geo.eh_scalar_curvature(0.0, 1.0) == 48.0
    assert geo.eh_scalar_curvature(0.0, 2.0) == 12.0
    r = np.array([0.3, 1.0, 4.0])
    expected = 48.0 / np.sqrt(1.0 + r**4)
    assert np.allclose(geo.eh_scalar_curvature(r, 1.0), expected, rtol=1e-14)


def test_tanh_sinh_rule_integrates_endpoint_singularities():
    x, c, w = geo.tanh_sinh_rule()
    assert np.all((x > 0.0) & (x < 1.0))
    assert np.all(c > 0.0)
    assert math.isclose(float(np.dot(w, np.log(x))), -1.0, rel_tol=1e-15)
    assert math.isclose(float(np.dot(w, x**-0.5)), 2.0, rel_tol=1e-15)
    # through the complements, to the floor that nodes inside (0, 1) allow:
    # no double below 1 is closer to it than 2^-53, and (1 - x)^(-1/2) has
    # mass 2 sqrt(e) within e of 1, which the rule misses at its smallest e
    assert abs(float(np.dot(w, c**-0.5)) - 2.0) <= 2.0 * math.sqrt(float(np.min(c)))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_volume_quadrature_matches_closed_form(a):
    # eh_volume is in units of the core scale; at scale a the volume is a^4
    # times it, and the same radial density integrates to that at scale a
    exact = math.pi**2 * a**4 / 4.0
    assert math.isclose(a**4 * geo.eh_volume(), exact, rel_tol=1e-15)
    assert math.isclose(geo.eh_volume_quadrature(), math.pi**2 / 4.0, rel_tol=1e-10)

    def dens(r):
        return math.pi**2 * geo.x_of_r(r, a) ** 4 * r**3

    assert math.isclose(geo.improper_radial_integral(dens, a), exact, rel_tol=1e-10)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_scalar_energy_is_scale_free(a):
    assert math.isclose(geo.eh_scalar_l2_energy(a), 288.0 * math.pi**2,
                        rel_tol=1e-10)


def test_distance_to_infinity_beta_oracle():
    oracle = (math.sqrt(math.pi) / 4.0) * gamma(0.25) / gamma(0.75)
    assert math.isclose(geo.eh_distance_to_infinity(), oracle, rel_tol=1e-15)


def test_distance_from_singular_point_matches_incomplete_beta():
    # the line element dx / (2 sqrt(x) sqrt(1 - x^2)) integrates to
    # B(1/4, 1/2) I_{x^2}(1/4, 1/2) / 4, here through scipy as the reference
    centers = geo.build_grid(512, "geometric").cell_centers
    x = np.concatenate(([1e-10, 0.5, 0.99, 1.0 - 1e-8, 1.0], centers))
    d = geo.distance_from_singular_point(x)
    reference = 0.25 * beta_fn(0.25, 0.5) * betainc(0.25, 0.5, x * x)
    np.testing.assert_allclose(d, reference, rtol=1e-13, atol=0.0)
    assert np.all(np.diff(d[5:]) > 0.0)
    assert geo.distance_from_singular_point(1.0) == d[4]
    # for x <= 1e-20 the distance is sqrt(x) (1 + O(x^2)), sqrt(x) to
    # round-off; the reference is of no use there, as x^2 underflows
    tiny = np.array([0.0, 1e-300, 1e-160, 1e-20])
    np.testing.assert_allclose(geo.distance_from_singular_point(tiny), np.sqrt(tiny),
                               rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        geo.distance_from_singular_point(1.0 + 1e-15)


def test_distance_on_a_fine_grid_is_blocked_and_exact():
    # the rule's terms for all nodes at once took 240 MB on 16384 centres;
    # in blocks the call stays small, and each node's distance is the one
    # it gets on its own
    x = geo.build_grid(16384).cell_centers
    tracemalloc.start()
    try:
        d = geo.distance_from_singular_point(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert np.array_equal(d, [geo.distance_from_singular_point(xi) for xi in x])


def test_lapack_names_the_directory_that_lacks_the_extension(tmp_path, monkeypatch):
    (tmp_path / "linalg").mkdir()
    spec = importlib.util.spec_from_loader("scipy", loader=None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    geo.lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=str(tmp_path / "linalg")):
            geo.lapack()
    finally:
        geo.lapack.cache_clear()


# ---------------------------------------------------------------------------
# discrete curvature operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grading", ["uniform", "geometric"])
def test_curvature_form_is_the_flux_divergence(grading):
    g = geo.build_grid(64, grading, 0.9)
    x = g.cell_centers
    rng = np.random.default_rng(3)
    v = 1.0 + rng.random(64)
    # fluxes (1 - x^2) d(x v)/dx: v_0 at the first face, c_i diff(x v)
    # inside, none at the last
    conductance = (1.0 - g.faces[1:-1] ** 2) / np.diff(x)
    flux = np.concatenate(([v[0]], conductance * np.diff(x * v), [0.0]))
    expected = -np.diff(flux) / (g.cell_widths * v**3)
    scalar = geo.scalar_from_v(v, g)
    assert np.allclose(scalar, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))
    with pytest.raises(ValueError, match="does not match grid"):
        geo.scalar_from_v(v[:-1], g)


def _flux_divergence_form(g):
    """The form A of the flux divergence A(x v), built from the faces: the
    conductances (1 - f^2) / diff(x) inside, and the flux v_0 at the first
    face as the diagonal e_0 / x_0."""
    x = g.cell_centers
    diagonal = np.zeros(g.n_cells)
    diagonal[0] = 1.0 / x[0]
    return (1.0 - g.faces[1:-1] ** 2) / np.diff(x), diagonal


@pytest.mark.parametrize("n, grading", [(64, "uniform"), (4096, "uniform"),
                                        (512, "geometric")])
def test_quotient_form_is_the_flow_energy(n, grading):
    # expanding 12 pi^2 (x v)^T A (x v) over v leaves the conductances
    # 12 pi^2 c x_- x_+ and, on each node, 24 pi^2 x w = 8 pi^2 diff(faces^3);
    # as (A x)_j = 2 w_j, even 12 pi^2 x A(x v) = Q v for every v, the
    # identity that lets the flow read Q
    g = geo.build_grid(n, grading)
    c, mass, vol, p = g.quotient_form
    x, form = g.cell_centers, _flux_divergence_form(g)
    assert p == 4.0
    assert math.isclose(float(np.sum(vol)), geo.eh_volume(), rel_tol=1e-15)
    np.testing.assert_allclose(geo.apply_form(*form, x), 2.0 * g.weights, rtol=1e-12,
                               atol=1e-15)
    rng = np.random.default_rng(n)
    for v in (np.ones(n), 0.1 + rng.random(n), np.exp(4.0 * rng.standard_normal(n))):
        qv, divergence = geo.apply_form(c, mass, v), geo.apply_form(*form, x * v)
        energy = 12.0 * math.pi**2 * geo.inner(x * v, divergence)
        assert math.isclose(geo.inner(v, qv), energy, rel_tol=1e-13)
        # each entry cancels terms as large as (|Q| v)_j, which bounds its error
        size = mass * v
        size[:-1] += c * (v[:-1] + v[1:])
        size[1:] += c * (v[:-1] + v[1:])
        assert np.all(np.abs(qv - 12.0 * np.pi**2 * x * divergence) <= 1e-14 * size)
    with pytest.raises(ValueError, match="read-only"):
        c[0] = 0.0


@pytest.mark.parametrize("n", [3, 4, 6])
def test_sphere_quotient_conductances_are_the_polar_laplacians(n):
    # over p + 2 = 4 (n - 1) / (n - 2) the sphere's quotient conductances are
    # the polar Laplacian's, omega_{n-1} sin^{n-1}(theta_f) / dtheta
    model = geo.build_sphere_model(n, 256)
    c, _, _, p = model.quotient_form
    laplacian = (geo.sphere_volume(n - 1) * np.sin(model.faces[1:-1]) ** (n - 1)
                 / np.diff(model.cell_centers))
    assert math.isclose(p + 2.0, 4.0 * (n - 1) / (n - 2), rel_tol=1e-15)
    np.testing.assert_allclose(c / (p + 2.0), laplacian, rtol=1e-15, atol=0.0)


def test_face_fluxes_boundary_conditions():
    g = geo.build_grid(64)
    x, dx = g.cell_centers, g.cell_widths
    v = 1.0 + 0.3 * x
    # dx v^3 S is the flux into a cell minus the flux out of it
    divergence = geo.scalar_from_v(v, g) * dx * v**3
    c, _ = _flux_divergence_form(g)
    interior = c * np.diff(x * v)
    # the first face carries v_0 and the last none, so the sum telescopes to v_0
    assert math.isclose(float(np.sum(divergence)), v[0], rel_tol=1e-12)
    assert math.isclose(divergence[0], v[0] - interior[0], rel_tol=1e-12)
    assert math.isclose(divergence[-1], interior[-1], rel_tol=1e-12)


def test_scalar_from_v_constant_profile_converges_in_weighted_l2():
    # S(const c) = 2x / c^2; second order in the volume-weighted norm
    errs = []
    for n in (128, 256):
        g = geo.build_grid(n)
        v = np.full(n, math.sqrt(2.0))
        scal = geo.scalar_from_v(v, g)
        w = v**4 * g.weights
        errs.append(float(np.sqrt(np.dot((scal - g.cell_centers) ** 2, w))))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] < 1e-5


def test_scalar_from_v_rejects_nonpositive_profiles():
    g = geo.build_grid(32)
    bad = np.ones(32)
    bad[10] = 0.0
    with pytest.raises(ValueError):
        geo.scalar_from_v(bad, g)


# ---------------------------------------------------------------------------
# green kernel
# ---------------------------------------------------------------------------


def test_green_kernel_values_and_series_joint():
    x = np.array([1e-13, 0.5])
    vals = geo.green_kernel(x)
    assert math.isclose(vals[0], 2.0, rel_tol=1e-12)
    assert math.isclose(vals[1], 2.0 * math.log(3.0), rel_tol=1e-14)
    # series and log branches agree where they meet
    lo = geo.green_kernel(np.array([9.9e-5]))[0]
    hi = geo.green_kernel(np.array([1.01e-4]))[0]
    assert abs(hi - lo) < 1e-8


def test_green_kernel_monotone_and_second_moment():
    x = np.linspace(1e-6, 0.999, 400)
    vals = geo.green_kernel(x)
    assert np.all(np.diff(vals) > 0)
    moment = quad(lambda t: geo.green_kernel(np.array([t]))[0] * t * t, 0, 1,
                  limit=200)[0]
    assert math.isclose(moment, 1.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        geo.green_kernel(np.array([1.0]))


# ---------------------------------------------------------------------------
# polar sphere models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, tol", [(3, 1e-13), (4, 2e-8), (5, 1e-13)])
def test_sphere_model_weights_integrate_to_volume(n, tol):
    model = geo.build_sphere_model(n, 128)
    # for odd n the polar weight is a cosine polynomial and the midpoint
    # sum is exact to round-off; sin^3 picks up an O(h^4) endpoint term
    assert math.isclose(float(np.sum(model.weights)), geo.sphere_volume(n),
                        rel_tol=tol)
    assert np.all((model.cell_centers > 0) & (model.cell_centers < math.pi))


def test_sphere_volume_closed_forms():
    assert math.isclose(geo.sphere_volume(3), 2.0 * math.pi**2, rel_tol=1e-15)
    assert math.isclose(geo.sphere_volume(4), 8.0 * math.pi**2 / 3.0,
                        rel_tol=1e-15)
    with pytest.raises(ValueError):
        geo.build_sphere_model(2, 64)


def test_sphere_constants():
    assert math.isclose(geo.yamabe_sphere_constant(4), 8.0 * math.sqrt(6.0) * math.pi,
                        rel_tol=1e-14)
    assert math.isclose(geo.yamabe_sphere_constant(3),
                        6.0 * (2.0 * math.pi**2) ** (2.0 / 3.0), rel_tol=1e-14)
    with pytest.raises(ValueError):
        geo.yamabe_sphere_constant(2)


def test_threshold_values():
    assert math.isclose(geo.Y_LOCAL, 8.0 * math.sqrt(3.0) * math.pi, rel_tol=1e-14)
    # halving the sphere constant in the n/2 power: order 2 divides by sqrt(2)
    assert math.isclose(geo.Y_LOCAL, geo.yamabe_sphere_constant(4) / math.sqrt(2.0),
                        rel_tol=1e-14)
