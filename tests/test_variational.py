import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from singular_yamabe import flow
from singular_yamabe import geometry as geo
from singular_yamabe import variational as var
from singular_yamabe.scenario import Scenario


def dense_lambda1(face_coeff, metric):
    """Dense-solver oracle for the pencil's first nonzero eigenvalue."""
    n = metric.size
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx] += face_coeff
    a[idx + 1, idx + 1] += face_coeff
    a[idx, idx + 1] -= face_coeff
    a[idx + 1, idx] -= face_coeff
    vals = linalg.eigh(a, np.diag(metric), eigvals_only=True)
    return float(vals[1])


def reference_minimize_ratio(face_coeff, curv_mass, vol_mass, p, v0):
    """Reference oracle for the quotient descent: the loop that rescales the
    iterate, its form product and its weights onto the p-sphere on every
    trial, with fresh arrays and BLAS dots, and keeps its curvature pairs in a
    list.  The direction is the L-BFGS two-loop recursion over the last
    ``_MEMORY`` pairs with s.y > 0, started from the preconditioner H's
    inverse.  H is factored at the start and again, with the pairs dropped,
    after a line search that stalls on an older factor or with pairs.
    Returns the result and the number of trial steps the line search
    rejected."""
    from scipy.linalg import lapack

    bands = geo.form_bands(face_coeff, curv_mass)

    def project(u):
        """u on the unit p-sphere, with |u|^(p-2) and the form product A u."""
        uu = u * u
        w = uu ** (0.5 * p - 1.0)
        scale = float(np.dot(vol_mass, w * uu)) ** (-1.0 / p)
        au = geo.apply_form(face_coeff, curv_mass, u)
        return u * scale, w * scale ** (p - 2.0), au * scale

    def factor(q, mass):
        """The LDL^T factor of H = A + q (p - 1) diag(mass)."""
        d, e, info = lapack.dpttrf(bands[1] + (q * (p - 1.0)) * mass, bands[0, 1:])
        assert info == 0
        return d, e

    def two_loop(g, pairs, d, e):
        """H_k g for the inverse Hessian H_k the pairs update from H^(-1)."""
        r, alphas = g.copy(), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(np.dot(s, r)))
            r = r - alphas[-1] * y
        r = lapack.dpttrs(d, e, r)[0]
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            r = r + (a - rho * float(np.dot(y, r))) * s
        return r

    v, w, av = project(np.asarray(v0, dtype=float))
    q = float(np.dot(v, av))  # denominator is 1 on the sphere
    history = [q]
    grad_norm = math.inf
    rejected = 0
    pairs, last = [], None
    d, e = factor(q, vol_mass * w)
    fresh = True
    for it in range(var._MAX_ITERS):
        # half the gradient of N(v) / (sum m |v|^p)^(2/p) at a p-normalized iterate
        mass = vol_mass * w
        half_grad = av - q * mass * v
        grad_norm = 2.0 * math.sqrt(float(np.dot(half_grad, half_grad)))
        if grad_norm <= var._GRAD_TOL * max(1.0, abs(q)):
            return var.QuotientResult(q, v, it, grad_norm, True, history), rejected
        if last is not None:
            s, y = v - last[0], half_grad - last[1]
            sy = float(np.dot(s, y))
            if sy > 0.0:
                pairs = [*pairs, (s, y, 1.0 / sy)][-var._MEMORY:]
        last = v, half_grad
        while True:
            direction = two_loop(half_grad, pairs, d, e)
            moved, step = False, var._INITIAL_STEP
            while step >= 1e-12:
                trial, w_t, av_t = project(v - step * direction)
                qt = float(np.dot(trial, av_t))
                if qt <= q - 1e-12 * max(1.0, abs(q)):
                    v, w, av, q = trial, w_t, av_t, qt
                    history.append(q)
                    moved = True
                    break
                rejected += 1
                step *= 0.5
            if moved or fresh:
                break
            # a stall on an older factor: drop the pairs, refactor here, search again
            d, e = factor(q, mass)
            pairs, fresh = [], True
        if not moved:
            # no decrease possible along this direction at any step length
            return var.QuotientResult(q, v, it, grad_norm, False, history), rejected
        fresh = False
    return var.QuotientResult(q, v, var._MAX_ITERS, grad_norm, False, history), rejected


def test_constant_profile_quotient_eh():
    grid = geo.build_grid(256, "uniform")
    q = var.yamabe_quotient_eh(np.full(256, 2.0**0.25), grid)
    assert math.isclose(q, 16.0 * math.pi, rel_tol=1e-12)


def test_constant_profile_quotient_sphere():
    for n in (3, 4):
        model = geo.build_sphere_model(n, 256)
        q = var.yamabe_quotient_sphere(np.ones(256), model)
        assert math.isclose(q, geo.yamabe_sphere_constant(n), rel_tol=1e-9)


@pytest.mark.parametrize("n_cells", [64, 256, 4096])
def test_quotient_is_the_descent_start(monkeypatch, n_cells):
    # one evaluation serves both: the quotient of a start equals the first
    # value of the descent from it, bit for bit
    monkeypatch.setattr(var, "_MAX_ITERS", 0)
    sphere = geo.build_sphere_model(4, n_cells)
    grid = geo.build_grid(n_cells, "uniform")
    for model, quotient in ((sphere, var.yamabe_quotient_sphere),
                            (grid, var.yamabe_quotient_eh)):
        for init in (np.ones(n_cells), 1.0 + 0.05 * np.cos(2.0 * model.cell_centers + 0.7)):
            res = var.minimize_quotient(model, init=init)
            assert res.history == [quotient(init, model)]


def test_quotient_scale_invariance_power_of_two():
    grid = geo.build_grid(128, "uniform")
    v = 1.0 + 0.5 * grid.cell_centers
    assert var.yamabe_quotient_eh(2.0 * v, grid) == var.yamabe_quotient_eh(v, grid)


@given(c=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_quotient_scale_invariance(c):
    grid = geo.build_grid(96, "geometric", 0.97)
    v = 1.0 + grid.cell_centers**2
    assert math.isclose(var.yamabe_quotient_eh(c * v, grid),
                        var.yamabe_quotient_eh(v, grid), rel_tol=1e-13)


def test_bubble_family_dips_toward_local_threshold():
    # centered profiles concentrating at the puncture approach the local
    # threshold from above as the scale shrinks
    grid = geo.build_grid(512, "geometric", 0.97)
    d0 = geo.distance_from_singular_point(grid.cell_centers)

    def q(eps):
        return var.yamabe_quotient_eh(eps / (eps**2 + d0**2), grid)

    assert geo.Y_LOCAL < q(0.05) < q(0.2)


def test_minimize_sphere_reaches_constant():
    model = geo.build_sphere_model(4, 128)
    rng = np.random.default_rng(3)
    init = 1.0 + 0.3 * np.sin(2.0 * model.cell_centers) + 0.1 * rng.random(128)
    res = var.minimize_quotient(model, init=init)
    y = geo.yamabe_sphere_constant(4)
    assert abs(res.value - y) / y < 1e-3
    assert res.value <= res.history[0]
    assert all(b <= a + 1e-12 for a, b in zip(res.history, res.history[1:]))


@pytest.mark.parametrize("n_cells", [256, 4096])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_minimize_sphere_iterations_do_not_grow_with_resolution(n_cells, k):
    model = geo.build_sphere_model(4, n_cells)
    res = var.minimize_quotient(model, init=1.0 + 0.05 * np.cos(k * model.cell_centers + 0.7))
    assert res.converged
    assert res.iterations < 50
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))
    y = geo.yamabe_sphere_constant(4)
    assert abs(res.value - y) / y < 1e-6


@pytest.mark.parametrize("initial_step", [1.0, 4.0])
@pytest.mark.parametrize("model_name", ["eguchi-hanson", "sphere"])
def test_minimize_follows_the_reference_iteration(monkeypatch, model_name, initial_step):
    # the same method as the reference loop, iterate by iterate, to round-off;
    # a first step of 4 overshoots, so the line search backtracks and its
    # shrink factor is pinned too
    monkeypatch.setattr(var, "_INITIAL_STEP", initial_step)
    if model_name == "sphere":
        model = geo.build_sphere_model(4, 4096)
        init = 1.0 + 0.05 * np.cos(2.0 * model.cell_centers + 0.7)
    else:
        # the descent concentrates on the puncture, and on finer grids the
        # two loops' round-off grows past 1e-12 within about 30 iterations
        model = geo.build_grid(256, "uniform")
        init = 1.0 + 0.05 * np.cos(2.0 * np.pi * model.cell_centers + 0.7)
    res = var.minimize_quotient(model, init=init)
    ref, rejected = reference_minimize_ratio(*model.quotient_form, init)
    if initial_step == 4.0:
        assert rejected >= 1
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert res.converged
    assert len(res.history) == len(ref.history)
    for got, want in zip([res.value, *res.history], [ref.value, *ref.history]):
        assert math.isclose(got, want, rel_tol=1e-12)
    assert np.max(np.abs(res.minimizer - ref.minimizer)) <= 1e-10 * np.max(ref.minimizer)


def test_minimize_stall_is_not_convergence(monkeypatch):
    # with the gradient test out of reach the descent can only end by a
    # stalled line search, which must not be reported as convergence
    monkeypatch.setattr(var, "_GRAD_TOL", 0.0)
    model = geo.build_sphere_model(4, 256)
    res = var.minimize_quotient(model, init=1.0 + 0.05 * np.cos(model.cell_centers + 0.7))
    assert not res.converged
    assert res.iterations < var._MAX_ITERS // 10


def test_minimize_eh_uniform_grids_converge_in_few_iterations():
    # the quasi-Newton direction follows the concentration at the puncture:
    # 25, 38 and 56 iterations here, where steepest descent on the same
    # preconditioner took 1275 and 2379 and ran out its cap at 4096 cells
    for n_cells in (256, 1024, 4096):
        res = var.minimize_quotient(geo.build_grid(n_cells, "uniform"), init=np.ones(n_cells))
        assert res.converged
        assert res.iterations < 150


@pytest.mark.parametrize("ending", ["converged", "cap", "stalled"])
def test_minimize_iterations_count_accepted_steps(monkeypatch, ending):
    if ending == "stalled":
        monkeypatch.setattr(var, "_GRAD_TOL", 0.0)
    if ending == "cap":
        monkeypatch.setattr(var, "_MAX_ITERS", 10)
        model = geo.build_grid(256, "uniform")
    else:
        model = geo.build_sphere_model(4, 256)
    res = var.minimize_quotient(model, init=1.0 + 0.05 * np.cos(model.cell_centers + 0.7))
    assert res.converged == (ending == "converged")
    assert res.iterations == len(res.history) - 1
    assert (res.iterations == var._MAX_ITERS) == (ending == "cap")


def test_minimize_refactors_after_a_stall(monkeypatch):
    # the stall test's setting: a line search that stalls on the start's
    # factor refactors H and searches again, and the descent ends only when
    # it stalls on a fresh factor
    monkeypatch.setattr(var, "_GRAD_TOL", 0.0)
    routines, calls = geo.lapack(), []

    def logged(name):
        def call(*args, **kwargs):
            calls.append(name)
            return getattr(routines, name)(*args, **kwargs)
        return call

    monkeypatch.setattr(var, "lapack", lambda: SimpleNamespace(
        dpttrf=logged("dpttrf"), dpttrs=logged("dpttrs")))
    model = geo.build_sphere_model(4, 256)
    init = 1.0 + 0.05 * np.cos(model.cell_centers + 0.7)
    res = var.minimize_quotient(model, init=init)
    assert not res.converged
    assert calls.count("dpttrf") >= 2
    # one solve per accepted step and one per stall; every stall but the
    # last asked for a factorization, and the last came right after one
    assert calls.count("dpttrs") == res.iterations + calls.count("dpttrf")
    assert calls[-2:] == ["dpttrf", "dpttrs"]
    ref, _ = reference_minimize_ratio(*model.quotient_form, init)
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert math.isclose(res.value, ref.value, rel_tol=1e-12)


def test_minimize_skips_pairs_without_positive_curvature():
    # a rough start on the 4-sphere: three of its curvature pairs have
    # s.y <= 0, the direction is built without them, and the descent still
    # converges, in 382 iterations, to a value a relative 1.2e-6 below the
    # sphere constant; keeping those pairs would take 349 and end elsewhere,
    # which the reference loop, skipping them too, tells apart
    model = geo.build_sphere_model(4, 256)
    init = np.exp(0.7 * np.random.default_rng(9).standard_normal(256))
    res = var.minimize_quotient(model, init=init)
    assert res.converged
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))
    y = geo.yamabe_sphere_constant(4)
    assert abs(res.value - y) / y <= 1e-5
    ref, _ = reference_minimize_ratio(*model.quotient_form, init)
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    assert math.isclose(res.value, ref.value, rel_tol=1e-12)


def test_minimize_sphere_constant_init_is_immediate():
    model = geo.build_sphere_model(4, 128)
    res = var.minimize_quotient(model, init=np.ones(128))
    assert res.iterations == 0
    assert res.converged
    assert abs(res.value - geo.yamabe_sphere_constant(4)) < 1e-6


def test_minimize_eh_sinks_below_constant_level():
    grid = geo.build_grid(512, "geometric", 0.97)
    res = var.minimize_quotient(grid, init=np.ones(512))
    assert res.value < 16.0 * math.pi
    assert res.converged
    start = flow.FlowState(grid, np.ones(512))
    end = flow.FlowState(grid, res.minimizer)
    # the descent piles volume onto the puncture end of the grid
    assert flow.mass_fraction(end, 0.1) > 2.0 * flow.mass_fraction(start, 0.1)
    assert flow.mass_fraction(end, 0.1) > 0.5
    # and never undercuts the local threshold
    assert res.value > geo.Y_LOCAL


def test_ladder_floors_extrapolate_to_the_local_threshold():
    # the global invariant equals the local threshold, checked from below: on
    # the geometric ladder of fixed width spread (ratio exp(-L / (n - 1)),
    # L = 511 ln(1 / 0.97), so 512 cells have ratio 0.97) the converged
    # descent's floors lie above Y_LOCAL, their gaps fall by about 4 a rung,
    # second order in the largest cell, and the Richardson limit in h_max^2
    # lands on it; measured 3.70e-3, 9.26e-4 and 2.37e-4, a limit 6e-6 above
    spread = 511 * math.log(1.0 / 0.97)
    floors, widths = [], []
    for n_cells in (512, 1024, 2048):
        grid = geo.build_grid(n_cells, "geometric", math.exp(-spread / (n_cells - 1)))
        res = var.minimize_quotient(grid, init=np.ones(n_cells))
        assert res.converged
        floors.append(res.value)
        widths.append(float(np.max(np.diff(grid.faces))))
    gaps = [f - geo.Y_LOCAL for f in floors]
    assert all(gap > 0.0 for gap in gaps)
    assert all(3.5 <= a / b <= 4.5 for a, b in zip(gaps, gaps[1:]))
    refinement = (widths[1] / widths[2]) ** 2
    limit = floors[2] + (floors[2] - floors[1]) / (refinement - 1.0)
    assert abs(limit - geo.Y_LOCAL) < 5e-5
    # bubbles eps / (eps^2 + d^2) at the puncture on the finest rung stay
    # above the threshold and approach it as they shrink: measured 7.20e-2,
    # 6.86e-3 and 9.70e-4 above at eps = 0.1, 0.03 and 0.01
    d0 = geo.distance_from_singular_point(grid.cell_centers)
    bubbles = [var.yamabe_quotient_eh(eps / (eps**2 + d0**2), grid) - geo.Y_LOCAL
               for eps in (0.1, 0.03, 0.01)]
    assert bubbles[0] > bubbles[1] > bubbles[2] > 0.0


def test_minimize_validation():
    grid = geo.build_grid(64, "uniform")
    with pytest.raises(ValueError):
        var.minimize_quotient(grid, init=np.ones(10))
    with pytest.raises(ValueError):
        var.minimize_quotient(grid, init=-np.ones(64))


@pytest.mark.parametrize("value", [1e100, 1e-100, 1e-80])
def test_minimize_refuses_a_start_the_arithmetic_cannot_carry(value):
    # 1e100 and 1e-100 overflow the quotient; 1e-80 leaves the sum m |v|^p
    # subnormal, from which the descent would stop short of the minimum
    for model in (geo.build_sphere_model(4, 64), geo.build_grid(64)):
        with pytest.raises(ValueError, match="rescale init"):
            var.minimize_quotient(model, init=np.full(64, value))


@pytest.mark.parametrize("n", [3, 4])
def test_sphere_first_eigenvalue(n):
    model = geo.build_sphere_model(n, 256)
    res = var.sphere_first_eigenvalue(model)
    assert abs(res.lambda1 - n) / n < 1e-2
    assert res.residual < 1e-8
    assert abs(float(np.dot(model.weights, res.eigenfunction))) < 1e-10


def test_sphere_first_eigenvalue_fine_grid():
    res = var.sphere_first_eigenvalue(geo.build_sphere_model(4, 4096))
    assert abs(res.lambda1 - 4.0) < 1e-6
    assert res.residual < 1e-8


def test_sphere_first_eigenvalue_refuses_a_large_residual(monkeypatch):
    # a solve ends near its residual's round-off scale, and is refused past
    # _ROUNDOFF_FACTOR of those scales; at 0 every solve is past it
    monkeypatch.setattr(var, "_ROUNDOFF_FACTOR", 0.0)
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        var.sphere_first_eigenvalue(geo.build_sphere_model(10, 4096))


def test_first_eigenvalue_matches_dense_oracle():
    state = flow.initial_state(Scenario(n_cells=128))
    fc, metric = var.reduced_pencil(state)
    res = var.first_eigenvalue(state)
    assert abs(res.lambda1 - dense_lambda1(fc, metric)) < 1e-10
    assert res.residual < 1e-8


def _scipy_lambda1_pencil(face_coeff, metric):
    """The pencil solve composed from scipy.linalg's wrapper, the reference
    for the raw LAPACK calls: eigh_tridiagonal by index, then the Rayleigh
    quotient of the B-normalized vector."""
    root = np.sqrt(metric)
    bands = geo.form_bands(face_coeff, 0.0)
    _, vecs = linalg.eigh_tridiagonal(bands[1] / metric, bands[0, 1:] / (root[:-1] * root[1:]),
                                      select="i", select_range=(1, 1))
    y = vecs[:, 0] / root
    ay = geo.apply_form(face_coeff, 0.0, y)
    lam = geo.inner(y, ay)
    my = metric * y
    r = ay - lam * my
    return lam, math.sqrt(geo.inner(r, r)) / (lam * math.sqrt(geo.inner(my, my))), y


@pytest.mark.parametrize("model", ["sphere", "eguchi-hanson"])
def test_lambda1_pencil_matches_the_scipy_wrappers(model):
    if model == "sphere":
        # the polar Laplacian's conductances omega_3 sin^3(theta_f) / dtheta
        sphere = geo.build_sphere_model(4, 4096)
        fc = (geo.sphere_volume(3) * np.sin(sphere.faces[1:-1]) ** 3
              / np.diff(sphere.cell_centers))
        metric = sphere.weights
    else:
        fc, metric = var.reduced_pencil(flow.initial_state(Scenario(n_cells=4096)))
    res = var._lambda1_pencil(fc, metric)
    lam, residual, y = _scipy_lambda1_pencil(fc, metric)
    assert res.lambda1 == lam
    assert res.residual == residual
    assert np.array_equal(res.eigenfunction, y)
    if model == "sphere":  # the model's own pencil, read from its quotient form
        assert math.isclose(var.sphere_first_eigenvalue(sphere).lambda1, lam, rel_tol=1e-14)


def test_reduced_pencil_conductances():
    # (1/6) x^2 (1 - x^2) v^2 at each interior face over the node gap
    state = flow.initial_state(Scenario(n_cells=512, grading="geometric", init_value=1.3))
    fc, metric = var.reduced_pencil(state)
    xf = state.grid.faces[1:-1]
    v_face = 0.5 * (state.v[:-1] + state.v[1:])
    expected = xf**2 * (1.0 - xf**2) * v_face**2 / (6.0 * np.diff(state.grid.cell_centers))
    np.testing.assert_allclose(fc, expected, rtol=1e-14, atol=0.0)
    assert metric is state.dvol


def test_first_eigenvalue_scaling_law():
    base = flow.initial_state(Scenario(n_cells=128))
    lam = var.first_eigenvalue(base).lambda1
    doubled = flow.FlowState(base.grid, 2.0 * base.v)
    assert math.isclose(var.first_eigenvalue(doubled).lambda1, lam / 4.0,
                        rel_tol=1e-12)


def test_first_eigenvalue_regression():
    res = var.first_eigenvalue(flow.initial_state(Scenario(n_cells=256)))
    assert math.isclose(res.lambda1, 0.3890777, rel_tol=1e-5)


def test_eigen_criteria_levels():
    assert var.eigen_criteria(4.0, 9.0, 4) == {
        "uniqueness": True, "no_concentration": True}
    # lambda pinned on sigma/(n-1) fails both tests
    assert var.eigen_criteria(4.0, 12.0, 4) == {
        "uniqueness": False, "no_concentration": False}
    assert var.eigen_criteria(2.9, 9.0, 4) == {
        "uniqueness": True, "no_concentration": False}
    with pytest.raises(ValueError):
        var.eigen_criteria(1.0, 1.0, 2)
