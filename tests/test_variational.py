import math

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


def test_sphere_constants():
    assert math.isclose(var.yamabe_sphere_constant(4), 8.0 * math.sqrt(6.0) * math.pi,
                        rel_tol=1e-14)
    assert math.isclose(var.yamabe_sphere_constant(3),
                        6.0 * (2.0 * math.pi**2) ** (2.0 / 3.0), rel_tol=1e-14)
    with pytest.raises(ValueError):
        var.yamabe_sphere_constant(2)


def test_threshold_values():
    th = var.orbifold_thresholds()
    assert math.isclose(th.Y_local, 8.0 * math.sqrt(3.0) * math.pi, rel_tol=1e-14)
    assert th.Y == th.Y_local
    # halving the sphere constant in the n/2 power: order 2 divides by sqrt(2)
    assert math.isclose(th.Y_local, var.yamabe_sphere_constant(4) / math.sqrt(2.0),
                        rel_tol=1e-14)


def test_threshold_validation():
    with pytest.raises(ValueError):
        var.Thresholds(Y=1.0, Y_local=1.0, n=2)
    with pytest.raises(ValueError):
        var.Thresholds(Y=1.0, Y_local=0.0, n=4)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_constant_profile_quotient_eh(a):
    grid = geo.build_grid(256, "uniform")
    q = var.yamabe_quotient_eh(np.full(256, 2.0**0.25), grid, a)
    assert math.isclose(q, 16.0 * math.pi, rel_tol=1e-12)


def test_constant_profile_quotient_sphere():
    for n in (3, 4):
        model = geo.build_sphere_model(n, 256)
        q = var.yamabe_quotient_sphere(np.ones(256), model)
        assert math.isclose(q, var.yamabe_sphere_constant(n), rel_tol=1e-9)


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
    d0 = geo.distance_from_singular_point(grid.cell_centers, 1.0)
    th = var.orbifold_thresholds()

    def q(eps):
        return var.yamabe_quotient_eh(eps / (eps**2 + d0**2), grid)

    assert th.Y_local < q(0.05) < q(0.2)


def test_minimize_sphere_reaches_constant():
    model = geo.build_sphere_model(4, 128)
    rng = np.random.default_rng(3)
    init = 1.0 + 0.3 * np.sin(2.0 * model.thetas) + 0.1 * rng.random(128)
    res = var.minimize_quotient(model, init=init)
    y = var.yamabe_sphere_constant(4)
    assert abs(res.value - y) / y < 1e-3
    assert res.value <= res.history[0]
    assert all(b <= a + 1e-12 for a, b in zip(res.history, res.history[1:]))


@pytest.mark.parametrize("n_cells", [256, 4096])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_minimize_sphere_iterations_do_not_grow_with_resolution(n_cells, k):
    model = geo.build_sphere_model(4, n_cells)
    res = var.minimize_quotient(model, init=1.0 + 0.05 * np.cos(k * model.thetas + 0.7))
    assert res.converged
    assert res.iterations < 50
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))
    y = var.yamabe_sphere_constant(4)
    assert abs(res.value - y) / y < 1e-6


def test_minimize_stall_is_not_convergence(monkeypatch):
    # with the gradient test out of reach the descent can only end by a
    # stalled line search, which must not be reported as convergence
    monkeypatch.setattr(var, "_GRAD_TOL", 0.0)
    model = geo.build_sphere_model(4, 256)
    res = var.minimize_quotient(model, init=1.0 + 0.05 * np.cos(model.thetas + 0.7))
    assert not res.converged
    assert res.iterations < var._MAX_ITERS // 10


def test_minimize_sphere_constant_init_is_immediate():
    model = geo.build_sphere_model(4, 128)
    res = var.minimize_quotient(model, init=np.ones(128))
    assert res.iterations == 0
    assert res.converged
    assert abs(res.value - var.yamabe_sphere_constant(4)) < 1e-6


def test_minimize_eh_sinks_below_constant_level():
    grid = geo.build_grid(512, "geometric", 0.97)
    res = var.minimize_quotient(geo.EguchiHansonModel(a=1.0), grid=grid, init=np.ones(512))
    assert res.value < 16.0 * math.pi
    assert not res.converged
    start = flow.FlowState(grid, np.ones(512))
    end = flow.FlowState(grid, res.minimizer)
    # the descent piles volume onto the puncture end of the grid
    assert flow.mass_fraction(end, 0.1) > 2.0 * flow.mass_fraction(start, 0.1)
    assert flow.mass_fraction(end, 0.1) > 0.5
    # and never undercuts the local threshold
    assert res.value > var.orbifold_thresholds().Y_local


def test_minimize_validation():
    grid = geo.build_grid(64, "uniform")
    model = geo.EguchiHansonModel(a=1.0)
    with pytest.raises(ValueError):
        var.minimize_quotient(model, init=np.ones(64))
    with pytest.raises(ValueError):
        var.minimize_quotient(model, grid=grid, init=np.ones(10))
    with pytest.raises(ValueError):
        var.minimize_quotient(model, grid=grid, init=-np.ones(64))
    with pytest.raises(TypeError):
        var.minimize_quotient(object(), init=np.ones(64))


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


def test_first_eigenvalue_matches_dense_oracle():
    state = flow.initial_state(Scenario(n_cells=128))
    fc, metric = var.reduced_pencil(state)
    res = var.first_eigenvalue(state)
    assert abs(res.lambda1 - dense_lambda1(fc, metric)) < 1e-10
    assert res.residual < 1e-8


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
