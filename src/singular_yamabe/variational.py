"""Variational quotients, threshold constants, and spectral gap estimates.

Two geometries share one algebraic core.  A quotient is a tridiagonal
quadratic form (face conductances plus a diagonal mass) over a p-norm
denominator; an eigenvalue problem is the same form paired with a diagonal
metric.  The Eguchi-Hanson forms are assembled on the squared-radius grid
induced by the compactified coordinate, the sphere forms on a polar grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import lapack

from .flow import FlowState
from .geometry import RadialGrid, SphereModel, r_of_x, sphere_volume

__all__ = [
    "Thresholds",
    "QuotientResult",
    "EigenResult",
    "yamabe_sphere_constant",
    "orbifold_thresholds",
    "yamabe_quotient_eh",
    "yamabe_quotient_sphere",
    "minimize_quotient",
    "first_eigenvalue",
    "sphere_first_eigenvalue",
    "eigen_criteria",
    "reduced_pencil",
]


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def yamabe_sphere_constant(n: int) -> float:
    """Yamabe constant of the round n-sphere, n(n-1) Vol(S^n)^(2/n)."""
    if n < 3:
        raise ValueError(f"dimension must be at least 3, got {n}")
    return n * (n - 1) * sphere_volume(n) ** (2.0 / n)


@dataclass(frozen=True)
class Thresholds:
    """Global and local conformal invariants steering the dichotomy tests."""

    Y: float
    Y_local: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"dimension must be at least 3, got {self.n}")
        if not self.Y_local > 0.0:
            raise ValueError("local threshold must be positive")


def orbifold_thresholds() -> Thresholds:
    """Thresholds at the Z/2 orbifold point of the four-dimensional space.

    The local threshold divides the sphere constant by order^(2/n) = 2^(1/2);
    for the geometry simulated here the global invariant coincides with it.
    """
    y = yamabe_sphere_constant(4) / 2 ** (2.0 / 4)
    return Thresholds(Y=y, Y_local=y, n=4)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def _apply_form(face_coeff: np.ndarray, diag: np.ndarray | float, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product of the tridiagonal form c, d against v."""
    out = diag * v
    flux = face_coeff * (v[:-1] - v[1:])
    out[:-1] += flux
    out[1:] -= flux
    return out


def _form_energy(face_coeff: np.ndarray, diag: np.ndarray | float, v: np.ndarray) -> float:
    dv = v[:-1] - v[1:]
    return float(np.dot(face_coeff, dv * dv) + np.sum(diag * v * v))


def _eh_quotient_forms(grid: RadialGrid, a: float):
    """Conductances, curvature mass, and volume mass of the full quotient.

    The gradient part lives on the squared-radius grid induced by the nodes
    (differences of v over neighboring nodes, conductance from the area
    element at the interface); the zeroth-order and volume parts use the
    exact per-cell integrals of the compactified measure.
    """
    x = grid.cell_centers
    xf = grid.faces[1:-1]
    s_nodes = (r_of_x(x, a)) ** 2
    gaps = s_nodes[:-1] - s_nodes[1:]  # s decreases as x grows
    face_coeff = 12.0 * np.pi**2 * a**4 * np.sqrt(1.0 - xf * xf) / gaps
    f3 = grid.faces**3
    curv_mass = 8.0 * np.pi**2 * a**2 * np.diff(f3)
    vol_mass = np.pi**2 * (a**4 / 2.0) * grid.weights
    return face_coeff, curv_mass, vol_mass


def _sphere_quotient_forms(model: SphereModel):
    theta_f = model.faces[1:-1]
    gaps = np.diff(model.thetas)
    band = sphere_volume(model.n - 1)
    cn = 4.0 * (model.n - 1) / (model.n - 2)
    face_coeff = cn * band * np.sin(theta_f) ** (model.n - 1) / gaps
    curv_mass = model.n * (model.n - 1) * model.weights
    return face_coeff, curv_mass, model.weights


def yamabe_quotient_eh(v, grid: RadialGrid, a: float = 1.0) -> float:
    """Conformal quotient of a radial test profile on the compactified space.

    The constant profile gives 16 pi for every core scale; profiles that
    pile up near the puncture push the value below it.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n_cells,):
        raise ValueError("profile shape does not match grid")
    fc, cm, vm = _eh_quotient_forms(grid, a)
    num = _form_energy(fc, cm, v)
    den = float(np.dot(vm, v**4)) ** 0.5
    return num / den


def yamabe_quotient_sphere(phi, model: SphereModel) -> float:
    """Conformal quotient of a polar test profile on the round n-sphere."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (model.n_cells,):
        raise ValueError("profile shape does not match the polar grid")
    fc, cm, vm = _sphere_quotient_forms(model)
    p = 2.0 * model.n / (model.n - 2)
    num = _form_energy(fc, cm, phi)
    den = float(np.dot(vm, np.abs(phi) ** p)) ** (2.0 / p)
    return num / den


# ---------------------------------------------------------------------------
# quotient minimization
# ---------------------------------------------------------------------------


_MAX_ITERS = 5000
_GRAD_TOL = 1e-6
_INITIAL_STEP = 1.0


@dataclass(frozen=True)
class QuotientResult:
    value: float
    minimizer: np.ndarray = field(repr=False)
    iterations: int
    gradient_norm: float
    converged: bool
    history: list = field(repr=False, default_factory=list)


def _minimize_ratio(face_coeff, curv_mass, vol_mass, p, v0):
    """Preconditioned projected gradient descent on the p-normalized
    quadratic quotient.

    The iterate stays on the unit p-sphere of the volume mass.  The raw
    gradient is preconditioned by the tridiagonal Hessian majorant
    H = A + q (p - 1) diag(m |v|^(p - 2)) (a Sobolev gradient), so smooth and
    grid-scale modes take the same step and the iteration count does not
    grow with the resolution; a backtracking line search halving from the
    initial step guarantees the value sequence is nonincreasing.  A line
    search that finds no decrease ends the descent unconverged.
    """
    a_diag = np.zeros(face_coeff.size + 1)
    a_diag[:-1] += face_coeff
    a_diag[1:] += face_coeff
    a_diag += curv_mass
    a_off = -face_coeff

    def project(u):
        """u on the unit p-sphere, with |u|^(p-2) and the form product A u."""
        uu = u * u
        w = uu ** (0.5 * p - 1.0)
        scale = float(np.dot(vol_mass, w * uu)) ** (-1.0 / p)
        au = _apply_form(face_coeff, curv_mass, u)
        return u * scale, w * scale ** (p - 2.0), au * scale

    v, w, av = project(np.asarray(v0, dtype=float))
    q = float(np.dot(v, av))  # denominator is 1 on the sphere
    step = _INITIAL_STEP
    history = [q]
    grad_norm = math.inf
    for it in range(_MAX_ITERS):
        # half the gradient of N(v) / (sum m |v|^p)^(2/p) at a p-normalized iterate
        mass = vol_mass * w
        half_grad = av - q * mass * v
        grad_norm = 2.0 * math.sqrt(float(np.dot(half_grad, half_grad)))
        if grad_norm <= _GRAD_TOL * max(1.0, abs(q)):
            return QuotientResult(q, v, it, grad_norm, True, history)
        # H is strictly diagonally dominant with a positive diagonal, so the
        # SPD tridiagonal solve cannot break down
        direction = lapack.dptsv(a_diag + (q * (p - 1.0)) * mass, a_off, half_grad)[2]
        moved = False
        while step >= 1e-12:
            trial, w_t, av_t = project(v - step * direction)
            qt = float(np.dot(trial, av_t))
            if qt <= q - 1e-12 * max(1.0, abs(q)):
                v, w, av, q = trial, w_t, av_t, qt
                history.append(q)
                step = min(step * 1.3, _INITIAL_STEP)
                moved = True
                break
            step *= 0.5
        if not moved:
            # no decrease possible along this direction at any step length
            return QuotientResult(q, v, it, grad_norm, False, history)
    return QuotientResult(q, v, _MAX_ITERS, grad_norm, False, history)


def minimize_quotient(model, grid: RadialGrid | None = None, *, init) -> QuotientResult:
    """Descend the conformal quotient for a sphere or Eguchi-Hanson model.

    On the sphere the constant is the minimizer and the descent converges to
    the sphere constant.  On the Eguchi-Hanson space the infimum is not
    attained: the descent pushes mass toward the puncture and the value
    sinks below the constant-profile level.  On fine or graded grids it
    stops at the iteration cap with converged = False and the partial
    minimizer; on coarse uniform grids the discrete quotient can go below
    the continuum local threshold and the descent converge there.
    """
    from .geometry import EguchiHansonModel

    if isinstance(model, SphereModel):
        fc, cm, vm = _sphere_quotient_forms(model)
        p = 2.0 * model.n / (model.n - 2)
        size = model.n_cells
    elif isinstance(model, EguchiHansonModel):
        if grid is None:
            raise ValueError("the Eguchi-Hanson quotient needs a radial grid")
        fc, cm, vm = _eh_quotient_forms(grid, model.a)
        p = 4.0
        size = grid.n_cells
    else:
        raise TypeError(f"unsupported model {type(model).__name__}")
    v0 = np.asarray(init, dtype=float)
    if v0.shape != (size,):
        raise ValueError("initial profile does not match the model resolution")
    if np.any(v0 <= 0.0):
        raise ValueError("initial profile must be positive")
    return _minimize_ratio(fc, cm, vm, p, v0)


# ---------------------------------------------------------------------------
# first nonzero eigenvalue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    eigenfunction: np.ndarray = field(repr=False)
    residual: float


def reduced_pencil(state: FlowState) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness conductances and metric diagonal of the reduced spectral
    problem at the given state.

    The quadratic form is (1/6) int x^2 (1-x^2) v^2 phi'^2 dx against the
    metric int phi^2 v^4 x dx, in the same units as the curvature mean, so
    gap criteria compare directly with sigma_tilde.
    """
    grid = state.grid
    xf = grid.faces[1:-1]
    v_face = 0.5 * (state.v[:-1] + state.v[1:])
    gaps = np.diff(grid.cell_centers)
    face_coeff = xf * xf * (1.0 - xf * xf) * v_face**2 / (6.0 * gaps)
    return face_coeff, state.dvol


def _lambda1_pencil(face_coeff: np.ndarray, metric: np.ndarray) -> EigenResult:
    """Smallest nonzero eigenvalue of the Neumann pencil A phi = lambda B phi.

    The second eigenpair of the symmetrized tridiagonal B^(-1/2) A B^(-1/2)
    comes from LAPACK bisection and inverse iteration; one inverse-iteration
    step shifted to that eigenvalue refines the vector, which is deflated
    against the constant nullspace and B-normalized, and lambda is its
    Rayleigh quotient.  A failed LAPACK solve raises LinAlgError.
    """
    n = metric.size
    root = np.sqrt(metric)
    diag = np.zeros(n)
    diag[:-1] += face_coeff
    diag[1:] += face_coeff
    _, vecs = linalg.eigh_tridiagonal(diag / metric, -face_coeff / (root[:-1] * root[1:]),
                                      select="i", select_range=(1, 1))
    x = vecs[:, 0] / root
    lam = float(np.dot(x, _apply_form(face_coeff, 0.0, x)) / np.dot(metric, x * x))
    bands = np.zeros((3, n))
    bands[0, 1:] = -face_coeff
    bands[1] = diag - lam * metric
    bands[2, :-1] = -face_coeff
    y = linalg.solve_banded((1, 1), bands, metric * x)
    y -= np.dot(metric, y) / np.sum(metric)
    y /= math.sqrt(float(np.dot(metric, y * y)))
    ay = _apply_form(face_coeff, 0.0, y)
    lam = float(np.dot(y, ay))
    my = metric * y
    res = float(np.linalg.norm(ay - lam * my) / np.linalg.norm(my))
    return EigenResult(lambda1=lam, eigenfunction=y, residual=res)


def first_eigenvalue(state: FlowState) -> EigenResult:
    """First nonzero eigenvalue of the reduced problem at a flow state."""
    fc, metric = reduced_pencil(state)
    return _lambda1_pencil(fc, metric)


def sphere_first_eigenvalue(model: SphereModel) -> EigenResult:
    """First nonzero Laplace eigenvalue of the round n-sphere (exactly n)."""
    theta_f = model.faces[1:-1]
    gaps = np.diff(model.thetas)
    band = sphere_volume(model.n - 1)
    face_coeff = band * np.sin(theta_f) ** (model.n - 1) / gaps
    return _lambda1_pencil(face_coeff, model.weights)


def eigen_criteria(lambda1: float, sigma_inf: float, n: int) -> dict:
    """Spectral gap tests against the limit curvature mean.

    uniqueness holds when lambda1 stays more than 1e-8 away from
    sigma_inf / (n - 1); no_concentration when it sits more than 1e-8
    above that level.
    """
    if n < 3:
        raise ValueError(f"dimension must be at least 3, got {n}")
    gap_level = sigma_inf / (n - 1)
    return {
        "uniqueness": bool(abs(lambda1 - gap_level) > 1e-8),
        "no_concentration": bool(lambda1 > gap_level + 1e-8),
    }
