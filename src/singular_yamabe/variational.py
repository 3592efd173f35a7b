"""Variational quotients and spectral gap estimates.

Both models, each a :class:`~singular_yamabe.geometry.RadialGrid`, share one
algebraic core, the tridiagonal form layer of :mod:`singular_yamabe.geometry`.
A quotient is a form (face conductances plus a diagonal mass) over a p-norm
denominator; an eigenvalue problem is a form paired with a diagonal metric.
Each model carries its quotient form as ``quotient_form``.  The quotient,
the descent and the eigen residuals apply forms with
:func:`~singular_yamabe.geometry.apply_form`; the descent's preconditioner
and the eigen solves read their matrices from
:func:`~singular_yamabe.geometry.form_bands`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .geometry import RadialGrid, apply_form, form_bands, inner, lapack

if TYPE_CHECKING:  # annotations only: the solves never build a flow state
    from .flow import FlowState


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def _evaluate(forms, x):
    """The quotient of x, its normalization s = (sum m |x|^p)^(-1/p), A x
    and m |x|^(p - 2); forms is a model's ``quotient_form``."""
    face_coeff, curv_mass, vol_mass, p = forms
    ax = apply_form(face_coeff, curv_mass, x)
    uu = x * x
    # np.power, not **, whose fast paths for some exponents round differently
    mwx = np.power(uu, 0.5 * p - 1.0) * vol_mass
    scale = inner(mwx, uu) ** (-1.0 / p)
    return inner(x, ax) * scale * scale, scale, ax, mwx


def _quotient(v, model: RadialGrid) -> float:
    forms = model.quotient_form
    v = np.asarray(v, dtype=float)
    if v.shape != forms[2].shape:
        raise ValueError("profile shape does not match the model resolution")
    return _evaluate(forms, v)[0]


def yamabe_quotient_eh(v, grid: RadialGrid) -> float:
    """Conformal quotient of a radial test profile on the compactified space.

    The constant profile gives 16 pi for every core scale; profiles that
    pile up near the puncture push the value below it.
    """
    return _quotient(v, grid)


def yamabe_quotient_sphere(phi, model: RadialGrid) -> float:
    """Conformal quotient of a polar test profile on the round n-sphere."""
    return _quotient(phi, model)


# ---------------------------------------------------------------------------
# quotient minimization
# ---------------------------------------------------------------------------


_MAX_ITERS = 5000
_GRAD_TOL = 1e-6
_INITIAL_STEP = 1.0
_MEMORY = 5  # curvature pairs the quasi-Newton direction keeps


@dataclass(frozen=True)
class QuotientResult:
    value: float
    minimizer: np.ndarray = field(repr=False)
    iterations: int
    gradient_norm: float
    converged: bool
    history: list = field(repr=False, default_factory=list)


def minimize_quotient(model: RadialGrid, *, init) -> QuotientResult:
    """Descend the conformal quotient of a model: the round sphere or the
    Eguchi-Hanson reduction.

    On the round sphere the constant is the minimizer, and from a smooth
    start the descent converges to the sphere constant.  The polar model's
    discrete minimum need not be the constant (ROADMAP item 17): from the
    rough start exp(0.7 g), g standard normal from seed 9, on 256 cells the
    descent ends on a profile with max/min 3.91, a relative 1.16e-6 below
    the sphere constant.  On the Eguchi-Hanson space the continuum infimum
    is not attained: the descent pushes mass toward the puncture, the value
    sinks below the constant-profile level, and the descent converges to the
    grid's discrete minimum.  On geometric grids that minimum lies above the
    continuum local threshold and approaches it under refinement; on uniform
    grids it lies below it.  Where it stops depends on the start's
    rounding, though the quotient is scale-invariant: on 512 geometric
    cells at ratio 0.97, the constant starts 0.5, 1 and 2 converge in 284
    iterations to 43.534889423442124, and 4^(1/4) in 166 to a value 3.2e-6
    higher (ROADMAP item 15).  A descent that reaches the iteration cap, or
    whose line search stalls on a fresh factor, returns converged = False
    and the partial minimizer.  A start the arithmetic cannot carry raises
    ValueError.

    The method is preconditioned limited-memory BFGS on the p-normalized
    quadratic quotient of the model's ``quotient_form`` (Nocedal 1980;
    Nocedal & Wright, Numerical Optimization, section 7.2).  The iterate
    stays on the unit p-sphere of the volume mass.  The direction is the
    two-loop recursion over the last ``_MEMORY`` curvature pairs (s, y): the
    steps between p-normalized iterates and the changes in their gradients;
    a pair with s.y <= 0 is skipped.  Its initial inverse Hessian is the
    tridiagonal Hessian majorant H = A + q (p - 1) diag(m |v|^(p - 2)) (a
    Sobolev gradient), factored (``dpttrf``) at the start and applied by one
    back-substitution (``dpttrs``) per step, so smooth and grid-scale modes
    take the same step, and from smooth starts the iteration count does not
    grow with the resolution (5 to 7 on the sphere).  From rough starts it
    does: the start above takes 382 iterations on 256 cells and 1804 on 1024
    (ROADMAP items 15 and 17).  A backtracking line search halving from the
    initial step guarantees the value sequence is nonincreasing.  A stalled line search
    drops the pairs, refactors H at the iterate and searches again; a stall
    on a fresh factor with no pairs ends it unconverged.

    The normalization is carried as a scalar: the loop keeps an unnormalized
    u with its form product A u and weight m |u|^(p - 2), and the point on
    the sphere is v = s u with s = (sum m |u|^p)^(-1/p).  Gradient and
    direction are those at v divided by s, so the trial s (u - t d) is the
    trial at v, and the quotient, being scale-invariant, needs no rescaled
    copy of u, A u or the weight.
    """
    forms = model.quotient_form
    u = np.array(init, dtype=float)
    if u.shape != forms[2].shape:
        raise ValueError("initial profile does not match the model resolution")
    if np.any(u <= 0.0):
        raise ValueError("initial profile must be positive")
    routines = lapack()
    face_coeff, curv_mass, vol_mass, p = forms
    bands = form_bands(face_coeff, curv_mass)
    # a start of order 1e100 or 1e-100 overflows the quotient, and one of order
    # 1e-80 leaves its p-norm sum subnormal: refuse them, not descend from garbage
    with np.errstate(all="ignore"):
        try:
            q, s, au, mw = _evaluate(forms, u)
        except (OverflowError, ZeroDivisionError):  # Python float arithmetic
            q = math.nan
        if not 0.0 < q < math.inf:
            raise ValueError(f"the start's quotient is {q!r}, not finite and positive; rescale init")
        total = inner(mw, u * u)
    if total < np.finfo(float).tiny:
        raise ValueError(f"the start's sum m |v|^p is {total!r}, a subnormal double; rescale init")
    history = [q]
    grad_norm = math.inf
    factor = None  # H's LDL^T factor; None when H is to be factored at the iterate
    pairs = deque(maxlen=_MEMORY)  # (s, y, 1 / s.y), oldest first
    last = None  # the point and gradient the last accepted step started from, if any
    while len(history) <= _MAX_ITERS:
        # half the gradient of N(v) / (sum m |v|^p)^(2/p) at v = s u, over s:
        # A u - q s^(p - 2) m |u|^(p - 2) u
        weight = s ** (p - 2.0)
        grad = (mw * u) * (-q * weight) + au
        grad_norm = 2.0 * s * math.sqrt(inner(grad, grad))
        if grad_norm <= _GRAD_TOL * max(1.0, abs(q)):
            return QuotientResult(q, s * u, len(history) - 1, grad_norm, True, history)
        v, g = u * s, grad * s  # the point on the p-sphere and its gradient
        if last is not None:
            # the pair of the accepted step, between points on the p-sphere
            step_s, step_y = v - last[0], g - last[1]
            sy = inner(step_s, step_y)
            if sy > 0.0:
                pairs.append((step_s, step_y, 1.0 / sy))
        if fresh := factor is None:
            # H is SPD and strictly diagonally dominant: dpttrf cannot break down
            h_diag = mw * (q * (p - 1.0) * weight) + bands[1]
            factor = routines.dpttrf(h_diag, bands[0, 1:], overwrite_d=1)[:2]
            pairs.clear()
        # the two-loop recursion: newest pair to oldest, H^(-1), oldest to newest
        direction, alphas = grad, []
        for step_s, step_y, rho in reversed(pairs):
            alphas.append(rho * inner(step_s, direction))
            direction = direction - step_y * alphas[-1]
        direction = routines.dpttrs(*factor, direction)[0]
        for (step_s, step_y, rho), alpha in zip(pairs, reversed(alphas)):
            direction = direction + step_s * (alpha - rho * inner(step_y, direction))
        step, last = _INITIAL_STEP, None
        while step >= 1e-12:
            trial = u - step * direction
            qt, st, a_trial, mw_trial = _evaluate(forms, trial)
            if qt <= q - 1e-12 * max(1.0, abs(q)):
                u, au, mw, q, s = trial, a_trial, mw_trial, qt, st
                history.append(q)
                last = v, g
                break
            step *= 0.5
        else:  # no decrease along this direction at any step length
            if fresh:
                return QuotientResult(q, s * u, len(history) - 1, grad_norm, False, history)
            factor = None
    return QuotientResult(q, s * u, _MAX_ITERS, grad_norm, False, history)


# ---------------------------------------------------------------------------
# first nonzero eigenvalue
# ---------------------------------------------------------------------------


_ROUNDOFF_FACTOR = 1e3  # K: a residual past K round-off scales is no eigenpair


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
    gap criteria compare directly with sigma_tilde.  Face f carries
    qc / (12 pi^2 x_- x_+) = (1 - f^2) / dx times (f v_f)^2 / 6.
    """
    grid = state.grid
    x = grid.cell_centers
    c = grid.quotient_form[0] / (12.0 * np.pi**2 * x[:-1] * x[1:])
    v_face = 0.5 * (state.v[:-1] + state.v[1:])
    return c * (grid.faces[1:-1] * v_face) ** 2 / 6.0, state.dvol


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed (LAPACK info={info})")


def _lambda1_pencil(face_coeff: np.ndarray, metric: np.ndarray) -> EigenResult:
    """Smallest nonzero eigenvalue of the Neumann pencil A phi = lambda B phi.

    The second eigenvector z of the symmetrized tridiagonal
    T = B^(-1/2) A B^(-1/2) comes from LAPACK bisection (``dstebz``) and
    inverse iteration (``dstein``); since |z| = 1, y = B^(-1/2) z is
    B-normalized, and lambda is its Rayleigh quotient y^T A y.  The solve
    runs on A' = A / 2^kc and B' = B / 2^km, whose largest entries lie near
    1, so every pencil of normal doubles solves at one size; km is even, and
    lambda = 2^(kc - km) lambda' and the B-normalized vector scale back
    exactly.  The residual |A y - lambda B y| / (lambda |B y|) is relative.
    A backward-stable solve leaves it near its round-off scale
    eps | |A| |y| + lambda B |y| | / (lambda |B y|), which grows with |T|.
    Inputs, or a symmetrized matrix, that are not finite raise ValueError; a
    failed LAPACK call, an eigenvalue that is not finite and positive, or a
    residual above ``_ROUNDOFF_FACTOR`` round-off scales raises LinAlgError.
    """
    routines = lapack()
    kc, km = (int(np.frexp(np.max(array))[1]) for array in (face_coeff, metric))
    km += km % 2
    face_coeff, metric = np.ldexp(face_coeff, -kc), np.ldexp(metric, -km)
    root = np.sqrt(metric)
    bands = form_bands(face_coeff, 0.0)
    with np.errstate(all="ignore"):  # what a zero or subnormal metric makes is refused below
        d, e = bands[1] / metric, bands[0, 1:] / (root[:-1] * root[1:])
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("array must not contain infs or NaNs")
    # the second eigenvalue by index (range 2, il = iu = 2, tol 0), block-ordered
    m, w, iblock, isplit, info = routines.dstebz(d, e, 2, 0.0, 1.0, 2, 2, 0.0, "B")
    _check_info("dstebz", info)
    vecs, info = routines.dstein(d, e, w[:m], iblock, isplit)
    _check_info("dstein", info)
    y = vecs[:, 0] / root
    ay = apply_form(face_coeff, 0.0, y)
    lam = inner(y, ay)
    if not 0.0 < lam < math.inf:
        raise np.linalg.LinAlgError(f"the eigenvalue {lam!r} is not finite and positive")
    my = metric * y
    r = ay - lam * my
    # the residual's round-off scale is eps ||A| |y| + lambda B |y||, where
    # (|A| |y|)_i sums c (|y_i| + |y_j|) over the faces at node i
    size = np.abs(y)
    flux = face_coeff * (size[:-1] + size[1:])
    size *= lam * metric
    size[:-1] += flux
    size[1:] += flux
    norm = lam * math.sqrt(inner(my, my))
    res = math.sqrt(inner(r, r)) / norm
    roundoff = math.ulp(1.0) * math.sqrt(inner(size, size)) / norm
    if not res <= _ROUNDOFF_FACTOR * roundoff < math.inf:
        raise np.linalg.LinAlgError(f"the relative residual {res!r} is above {_ROUNDOFF_FACTOR:g} "
                                    f"times its round-off scale {roundoff!r}")
    return EigenResult(lambda1=math.ldexp(lam, kc - km), eigenfunction=np.ldexp(y, -km // 2),
                       residual=res)


def first_eigenvalue(state: FlowState) -> EigenResult:
    """First nonzero eigenvalue of the reduced problem at a flow state."""
    fc, metric = reduced_pencil(state)
    return _lambda1_pencil(fc, metric)


def sphere_first_eigenvalue(model: RadialGrid) -> EigenResult:
    """First nonzero Laplace eigenvalue of the round n-sphere (exactly n), on
    the polar Laplacian: the quotient form's conductances over p + 2."""
    return _lambda1_pencil(model.quotient_form[0] / (model.quotient_form[3] + 2.0), model.weights)


def eigen_criteria(lambda1: float, sigma_inf: float, n: int) -> dict:
    """Spectral gap tests against the limit curvature mean.

    uniqueness holds when lambda1 stays more than 1e-8 away from
    sigma_inf / (n - 1); no_concentration when it sits more than 1e-8
    above that level.

    The fixed margins are finer than lambda1's discretization error on the
    polar sphere model, so they misread its degenerate cases: at 16384 cells
    S^4 gives lambda1 = 3.9999999877442884 and S^6 5.999999981616435, where
    the round spheres have lambda1 = n exactly, and both read uniqueness
    true.  The fix is a sphere model that keeps the degeneracy exactly
    (ROADMAP item 17), not a wider margin.
    """
    if n < 3:
        raise ValueError(f"dimension must be at least 3, got {n}")
    gap_level = sigma_inf / (n - 1)
    return {
        "uniqueness": bool(abs(lambda1 - gap_level) > 1e-8),
        "no_concentration": bool(lambda1 > gap_level + 1e-8),
    }
