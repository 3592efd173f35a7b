"""Variational quotients, threshold constants, and spectral gap estimates.

Two geometries share one algebraic core.  A quotient is a tridiagonal
quadratic form (face conductances plus a diagonal mass) over a p-norm
denominator; an eigenvalue problem is the same form paired with a diagonal
metric.  The Eguchi-Hanson forms are assembled on the squared-radius grid
induced by the compactified coordinate, the sphere forms on a polar grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, special

from .flow import FlowState
from .geometry import RadialGrid, SphereModel, r_of_x, sphere_volume

__all__ = [
    "Thresholds",
    "QuotientResult",
    "EigenResult",
    "yamabe_sphere_constant",
    "sphere_thresholds",
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


def sphere_thresholds(n: int = 4) -> Thresholds:
    y = yamabe_sphere_constant(n)
    return Thresholds(Y=y, Y_local=y, n=n)


def orbifold_thresholds(group_order: int = 2, n: int = 4) -> Thresholds:
    """Thresholds at an isolated quotient singularity of the given order.

    The local threshold divides the sphere constant by order^(2/n); for the
    geometry simulated here the global invariant coincides with it.
    """
    if group_order < 1:
        raise ValueError(f"group order must be at least 1, got {group_order}")
    y = yamabe_sphere_constant(n) / group_order ** (2.0 / n)
    return Thresholds(Y=y, Y_local=y, n=n)


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def _apply_form(face_coeff: np.ndarray, diag: np.ndarray | float, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product of the tridiagonal form c, d against v."""
    out = diag * v
    dv = v[:-1] - v[1:]
    out[:-1] += face_coeff * dv
    out[1:] -= face_coeff * dv
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
    """Projected gradient descent on the p-normalized quadratic quotient.

    The iterate stays on the unit p-sphere of the volume mass.  The raw
    gradient is scaled by the diagonal of the local second-order model
    before stepping, which removes the grid-scale stiffness of the face
    couplings; a backtracking line search halving from the initial step
    guarantees the value sequence is nonincreasing.
    """

    def normalize(v):
        return v / np.dot(vol_mass, np.abs(v) ** p) ** (1.0 / p)

    def value(v):
        return _form_energy(face_coeff, curv_mass, v)  # denominator is 1 on the sphere

    diag = np.zeros(len(np.asarray(v0)))
    diag[:-1] += face_coeff
    diag[1:] += face_coeff
    diag += curv_mass
    v = normalize(np.asarray(v0, dtype=float))
    q = value(v)
    step = _INITIAL_STEP
    history = [q]
    grad_norm = np.inf
    for it in range(_MAX_ITERS):
        av = _apply_form(face_coeff, curv_mass, v)
        # gradient of N(v) / (sum m |v|^p)^(2/p) at a p-normalized iterate
        grad = 2.0 * av - 2.0 * q * vol_mass * np.abs(v) ** (p - 2.0) * v
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= _GRAD_TOL * max(1.0, abs(q)):
            return QuotientResult(q, v, it, grad_norm, True, history)
        scaled = grad / (2.0 * diag + 2.0 * q * (p - 1.0) * vol_mass * np.abs(v) ** (p - 2.0))
        moved = False
        while step >= 1e-12:
            trial = normalize(v - step * scaled)
            qt = value(trial)
            if qt <= q - 1e-12 * max(1.0, abs(q)):
                v, q = trial, qt
                history.append(q)
                step = min(step * 1.3, _INITIAL_STEP)
                moved = True
                break
            step *= 0.5
        if not moved:
            # no decrease possible along this direction at any step length
            return QuotientResult(q, v, it, grad_norm, grad_norm <= 1e-3, history)
    return QuotientResult(q, v, _MAX_ITERS, grad_norm, False, history)


def minimize_quotient(model, grid: RadialGrid | None = None, init=None) -> QuotientResult:
    """Descend the conformal quotient for a sphere or Eguchi-Hanson model.

    On the sphere the constant is the minimizer and the descent converges to
    the sphere constant.  On the Eguchi-Hanson space the infimum is not
    attained: the descent pushes mass toward the puncture, the value sinks
    below the constant-profile level, and the result reports converged =
    False with the partial minimizer.
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
    v0 = np.ones(size) if init is None else np.asarray(init, dtype=float)
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


def _lambda1_pencil(face_coeff: np.ndarray, metric: np.ndarray,
                    tol: float, max_iters: int) -> EigenResult:
    """Smallest nonzero eigenvalue of the Neumann pencil by shifted inverse
    iteration with deflation of the constant nullspace."""
    n = metric.size
    total = float(np.sum(metric))

    def deflate(y):
        return y - np.dot(metric, y) / total

    # Shift by a small fraction of a Rayleigh-quotient overestimate of the
    # target eigenvalue.  A shift at the scale of the face conductances
    # would push the contraction ratio toward 1 and the iteration would
    # stall far from tolerance; this one keeps the ratio near the bare
    # eigenvalue gap while A + tau B stays comfortably positive definite.
    ramp = deflate(np.linspace(-1.0, 1.0, n))
    lam_est = (float(np.dot(ramp, _apply_form(face_coeff, 0.0, ramp)))
               / float(np.dot(metric, ramp * ramp)))
    tau = max(1e-3 * lam_est, 1e-12)
    upper = np.zeros((2, n))
    upper[1] = tau * metric
    upper[1, :-1] += face_coeff
    upper[1, 1:] += face_coeff
    upper[0, 1:] = -face_coeff
    chol = linalg.cholesky_banded(upper)

    x = deflate(np.linspace(-1.0, 1.0, n))
    x /= np.sqrt(np.dot(metric, x * x))
    lam = float(np.dot(x, _apply_form(face_coeff, 0.0, x)))
    for _ in range(max_iters):
        y = linalg.cho_solve_banded((chol, False), metric * x)
        y = deflate(y)
        y /= np.sqrt(np.dot(metric, y * y))
        ay = _apply_form(face_coeff, 0.0, y)
        lam = float(np.dot(y, ay))
        res = float(np.linalg.norm(ay - lam * metric * y)
                    / np.linalg.norm(metric * y))
        x = y
        if res <= tol * max(1.0, abs(lam)):
            return EigenResult(lambda1=lam, eigenfunction=x, residual=res)
    return EigenResult(lambda1=lam, eigenfunction=x, residual=res)


def first_eigenvalue(state: FlowState, tol: float = 1e-10,
                     max_iters: int = 500) -> EigenResult:
    """First nonzero eigenvalue of the reduced problem at a flow state."""
    fc, metric = reduced_pencil(state)
    return _lambda1_pencil(fc, metric, tol, max_iters)


def sphere_first_eigenvalue(model: SphereModel, tol: float = 1e-10,
                            max_iters: int = 500) -> EigenResult:
    """First nonzero Laplace eigenvalue of the round n-sphere (exactly n)."""
    theta_f = model.faces[1:-1]
    gaps = np.diff(model.thetas)
    band = sphere_volume(model.n - 1)
    face_coeff = band * np.sin(theta_f) ** (model.n - 1) / gaps
    return _lambda1_pencil(face_coeff, model.weights, tol, max_iters)


def eigen_criteria(lambda1: float, sigma_inf: float, n: int,
                   tol: float = 1e-8) -> dict:
    """Spectral gap tests against the limit curvature mean.

    uniqueness holds when lambda1 stays away from sigma_inf / (n - 1);
    no_concentration when it sits strictly above that level.
    """
    if n < 3:
        raise ValueError(f"dimension must be at least 3, got {n}")
    gap_level = sigma_inf / (n - 1)
    return {
        "uniqueness": bool(abs(lambda1 - gap_level) > tol),
        "no_concentration": bool(lambda1 > gap_level + tol),
    }
