"""Background geometry of the conformally compactified Eguchi-Hanson space.

Conventions
-----------
* ``a`` is the core scale of the metric; ``r`` is the radial coordinate in
  which the volume element is exactly ``pi^2 r^3 dr`` (bolt at r = 0, ALE end
  as r -> infinity).
* ``x = a^2 / sqrt(a^4 + r^4)`` maps the end to a punctured interval: x = 1 at
  the bolt, x -> 0 at the compactified singular point.  All radial profiles in
  the flow are sampled on cell-centered grids in x.
* The compactified background metric has conformal factor x against the
  Eguchi-Hanson metric; its scalar curvature is ``48 x / a^2`` and its total
  volume ``pi^2 a^4 / 4``.

Cell grids carry exact masses of the measure x dx and centroid nodes, so that
the trapezoid-free quadrature ``sum(f(centers) * weights)`` integrates 1 and x
against x dx to machine precision.

The round n-sphere, the cross-check of the thresholds, is the same model type,
:class:`RadialGrid`, on a grid in the polar angle: :func:`build_sphere_model`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np


# Smallest cell width build_grid accepts, about 4500 ulps of the unit
# interval.  The curvature operator scales like 1 / dx^2, so narrower cells
# give it entries some 1e24 times those of a unit cell and leave the grid
# degenerate in floating point.
MIN_CELL_WIDTH = 1e-12


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """A model: a cell-centered grid and the forms the solves read on it.

    :func:`build_grid` builds the Eguchi-Hanson reduction, on (0, 1] in the x
    coordinate, and :func:`build_sphere_model` the round n-sphere, on
    [0, pi] in the polar angle theta; they are the only constructors.  Every
    array is read-only, and models compare and hash by identity.

    Attributes
    ----------
    faces : ndarray, shape (n_cells + 1,)
        Cell interfaces, strictly increasing.
    cell_centers : ndarray, shape (n_cells,)
        One node inside each cell, strictly increasing.
    weights : ndarray, shape (n_cells,)
        Cell masses of the model's measure.
    quotient_form : (ndarray, ndarray, ndarray, float)
        Conductances, curvature mass, volume mass and exponent p of the
        conformal quotient form(c, curvature mass) / |v|_p^2.
    """

    faces: np.ndarray
    cell_centers: np.ndarray
    weights: np.ndarray
    quotient_form: tuple[np.ndarray, np.ndarray, np.ndarray, float]

    @property
    def n_cells(self) -> int:
        return self.cell_centers.size

    @cached_property
    def cell_widths(self) -> np.ndarray:
        """np.diff(faces), built on first use, then read-only."""
        return _read_only(np.diff(self.faces))[0]

    @cached_property
    def curvature_divisor(self) -> np.ndarray:
        """12 pi^2 x dx, the cell masses :func:`scalar_from_v` divides by; read-only."""
        return _read_only(12.0 * np.pi**2 * self.cell_centers * self.cell_widths)[0]

    @cached_property
    def quotient_bands(self) -> np.ndarray:
        """:func:`form_bands` of the quotient form, which ROS2 and the descent read; read-only."""
        return _read_only(form_bands(*self.quotient_form[:2]))[0]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def build_grid(n_cells: int, grading: str = "uniform", ratio: float = 0.97) -> RadialGrid:
    """Build the Eguchi-Hanson model on a grid in x with exact x dx cell
    masses and centroid nodes.

    Geometric grading shrinks cells toward x = 0 by the given width ratio,
    which is where the flow concentrates; uniform grading is the default.
    Grids whose smallest cell is narrower than MIN_CELL_WIDTH are refused
    as degenerate in floating point.  The faces span [0, 1], and the weights
    (f_+^2 - f_-^2) / 2 sum to 1/2.

    The quotient form Q, at core scale 1, is the flow's energy
    12 pi^2 (x v)^T A (x v), where the flux divergence A(x v) has the flux
    c_i (x_i v_i - x_{i-1} v_{i-1}), c_i = (1 - f_i^2) / (x_i - x_{i-1}), on
    interior face i, v_0 on the first and none on the last.  Face i carries
    12 pi^2 c_i x_(i-1) x_i and node j 12 pi^2 x_j (A x)_j = 24 pi^2 x_j w_j
    = 8 pi^2 (f_+^3 - f_-^3), so Q v = 12 pi^2 x A(x v).  The volume mass is
    pi^2 / 2 x dx and p = 4; core scale a scales Q by a^2, the mass by a^4.
    """
    if n_cells < 8:
        raise ValueError(f"need at least 8 cells, got {n_cells}")
    if grading == "uniform":
        faces = np.linspace(0.0, 1.0, n_cells + 1)
    elif grading == "geometric":
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"geometric ratio must be in (0, 1), got {ratio}")
        # widths grow away from the origin: width[k+1] = width[k] / ratio
        widths = ratio ** np.arange(n_cells - 1, -1, -1, dtype=float)
        faces = np.concatenate(([0.0], np.cumsum(widths)))
        faces /= faces[-1]
        faces[-1] = 1.0
    else:
        raise ValueError(f"unknown grading {grading!r}")
    smallest = float(np.min(np.diff(faces)))
    if not smallest >= MIN_CELL_WIDTH:
        raise ValueError(f"smallest cell width {smallest:.3g} is below {MIN_CELL_WIDTH:g};"
                         " the grid is degenerate in floating point")
    lo, hi = faces[:-1], faces[1:]
    # centroid of x dx over [lo, hi]; the (lo^2+lo*hi+hi^2)/(lo+hi) form is
    # safe in the first cell where lo = 0
    x = (2.0 / 3.0) * (lo * lo + lo * hi + hi * hi) / (lo + hi)
    weights = 0.5 * (hi * hi - lo * lo)
    c = (1.0 - faces[1:-1] ** 2) / np.diff(x)
    quotient = _read_only(12.0 * np.pi**2 * c * x[:-1] * x[1:],
                          8.0 * np.pi**2 * np.diff(faces**3), 0.5 * np.pi**2 * weights)
    _read_only(faces, x, weights)
    return RadialGrid(faces, x, weights, (*quotient, 4.0))


def build_sphere_model(n: int = 4, n_cells: int = 256) -> RadialGrid:
    """Build the round n-sphere on a uniform grid in the polar angle theta.

    The nodes are the cell midpoints, and the weights the latitude band
    volumes omega_{n-1} sin^{n-1}(theta) dtheta by the midpoint rule,
    summing to about Vol(S^n).  The quotient form is the polar Laplacian's
    conductances omega_{n-1} sin^{n-1}(theta_f) / dtheta times p + 2, the
    band volumes times n (n - 1), the band volumes, and p = 2n / (n - 2).
    """
    if n < 3:
        raise ValueError(f"sphere dimension must be at least 3, got {n}")
    if n_cells < 8:
        raise ValueError(f"need at least 8 cells, got {n_cells}")
    faces = np.linspace(0.0, np.pi, n_cells + 1)
    centers = 0.5 * (faces[:-1] + faces[1:])
    band = sphere_volume(n - 1) * np.sin(centers) ** (n - 1) * np.diff(faces)
    c = sphere_volume(n - 1) * np.sin(faces[1:-1]) ** (n - 1) / np.diff(centers)
    quotient = _read_only(4.0 * (n - 1) / (n - 2) * c, n * (n - 1) * band)
    _read_only(faces, centers, band)
    return RadialGrid(faces, centers, band, (*quotient, band, 2.0 * n / (n - 2)))


def sphere_volume(n: int) -> float:
    """Total measure of the round unit n-sphere."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def yamabe_sphere_constant(n: int) -> float:
    """Yamabe constant of the round n-sphere, n(n-1) Vol(S^n)^(2/n)."""
    if n < 3:
        raise ValueError(f"dimension must be at least 3, got {n}")
    return n * (n - 1) * sphere_volume(n) ** (2.0 / n)


# The local threshold at the Z/2 orbifold point of the four-dimensional space:
# the sphere constant divided by order^(2/n) = 2^(1/2), that is 8 sqrt(3) pi.
# For the geometry simulated here the global invariant Y coincides with it;
# tests/test_variational.py::test_ladder_floors_extrapolate_to_the_local_threshold
# checks that from below, on the descent's floors over a geometric ladder.
Y_LOCAL = yamabe_sphere_constant(4) / 2 ** (2.0 / 4)


# ---------------------------------------------------------------------------
# coordinate maps and closed forms
# ---------------------------------------------------------------------------


def x_of_r(r, a: float = 1.0):
    """Compactified coordinate x in (0, 1] for radius r >= 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    t = (r / a) ** 2
    out = 1.0 / np.sqrt(1.0 + t * t)
    return out if out.ndim else float(out)


def eh_scalar_curvature(r, a: float = 1.0):
    """Scalar curvature of the compactified background at radius r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    out = 48.0 / np.sqrt(a**4 + r**4)
    return out if out.ndim else float(out)


def eh_volume() -> float:
    """Total volume of the compactified space at core scale 1, pi^2 / 4."""
    return np.pi**2 / 4.0


def tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, complements 1 - x and weights of the tanh-sinh rule on (0, 1).

    The double-exponential map x = 1 / (1 + exp(-pi sinh t)) (Takahasi and
    Mori 1974) at step 1/64 on |t| <= 4, with 1 - x computed directly.  The
    nodes reach down to 6e-38; those that round to 1 are dropped.
    """
    t = np.arange(-256, 257) / 64.0
    u = np.pi * np.sinh(t)
    x, c = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))
    inside = x < 1.0
    return x[inside], c[inside], (np.pi / 64.0) * (np.cosh(t) * x * c)[inside]


def improper_radial_integral(f, a: float = 1.0) -> float:
    """Integrate the vectorized f over (0, infinity) by :func:`tanh_sinh_rule`
    through r = a x / (1 - x), with nodes from 6e-38 a to 5e15 a; on this
    module's radial densities the relative error is within 1e-15."""
    x, c, weights = tanh_sinh_rule()
    return inner(weights * (a / (c * c)), f(a * x / c))


def eh_volume_quadrature() -> float:
    """Volume recomputed by radial quadrature, as a cross-check on eh_volume."""

    def dens(r):
        return np.pi**2 * x_of_r(r) ** 4 * r**3

    return improper_radial_integral(dens)


def eh_distance_to_infinity() -> float:
    """Distance from the bolt to the singular point in the compactified metric,
    at core scale 1."""
    return distance_from_singular_point(1.0)


def eh_scalar_l2_energy(a: float = 1.0) -> float:
    """Squared L2 norm of the compactified scalar curvature (scale invariant)."""

    def dens(r):
        x = x_of_r(r, a)
        return eh_scalar_curvature(r, a) ** 2 * np.pi**2 * x**4 * r**3

    return improper_radial_integral(dens, a)


# ---------------------------------------------------------------------------
# tridiagonal forms and the curvature operator
# ---------------------------------------------------------------------------


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product sum a_i b_i, summed in one thread.

    ``np.dot`` hands vectors of more than 10^4 entries to the BLAS, which
    splits the sum over its threads and so rounds differently at each thread
    count; this sum gives the same bits at any.
    """
    return float(np.einsum("i,i->", a, b))


def apply_form(c: np.ndarray, d: np.ndarray | float, u: np.ndarray) -> np.ndarray:
    """Product A u of the form (c, d): (A u)_i = d_i u_i + sum_j c_ij (u_i - u_j).

    A form on n nodes has one conductance per face between consecutive nodes
    and a diagonal d, an array or a scalar.  The curvature operator, the
    quotient energies and the spectral pencils are all forms.
    """
    out = d * u
    flux = c * (u[:-1] - u[1:])
    out[:-1] += flux
    out[1:] -= flux
    return out


def form_bands(c: np.ndarray, d: np.ndarray | float) -> np.ndarray:
    """The matrix of the form (c, d) as (1, 1) bands, a new writable array.

    Row 0 holds the superdiagonal, row 1 the diagonal and row 2 the
    subdiagonal.  The general tridiagonal routine ``dgttrf`` reads row 2
    without its last column, row 1, and row 0 from column 1 on; the
    symmetric ones, ``dpttrf``, ``dstebz`` and ``dstein``, read row 1 and
    row 0 from column 1 on.
    """
    bands = np.zeros((3, c.size + 1))
    bands[0, 1:] = -c
    bands[1, :-1] += c
    bands[1, 1:] += c
    bands[1] += d
    bands[2, :-1] = -c
    return bands


@cache
def lapack():
    """The LAPACK routines of scipy's compiled extension ``scipy.linalg._flapack``.

    Loaded once per process, straight from scipy's install directory and
    without running scipy's package code: importing :mod:`scipy.linalg`
    first builds scipy's array-API layer, which imports ``numpy.f2py``,
    ``numpy.testing``, ``numpy.ma`` and ``numpy.random``, none of which the
    solves use.  The interpreter files the extension in ``sys.modules``
    under its own name, so a later import of :mod:`scipy.linalg` reuses it.
    Raises ImportError when the extension is missing.
    """
    scipy = importlib.util.find_spec("scipy")  # locates scipy without importing it
    if scipy is None:
        raise ImportError("scipy is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scalar_from_v(v: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Reduced scalar curvature of the conformal profile v on the grid.

    Discretizes -(d/dx)[(1 - x^2) d(xv)/dx] / v^3 in conservation form, as
    Q v / (M v^3) = A(x v) / (dx v^3), with quotient form Q = 12 pi^2 x A x
    and M = 12 pi^2 x dx: the fluxes (1 - x^2) d(x v)/dx at the faces,
    differenced over the cell width and divided by v^3 at the cell node.  The
    product x v extends by zero to x = 0, closing the first face with the flux
    v_0; the factor (1 - x^2) vanishes at x = 1, closing the last.  Constant
    profiles c map to 2 x / c^2 up to the centroid truncation error.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n_cells,):
        raise ValueError("profile shape does not match grid")
    if not (v.min() > 0.0 and v.max() < math.inf):  # a NaN fails the first test
        raise ValueError("profile must be positive and finite")
    return apply_form(*grid.quotient_form[:2], v) / (grid.curvature_divisor * v**3)


def green_kernel(x):
    """Boundary representation kernel log((1+x)/(1-x)) / x on [0, 1).

    Against the measure x dx this kernel reproduces twice the boundary value
    of a profile from its curvature source; it tends to 2 at the puncture and
    diverges logarithmically at x = 1.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x >= 1.0):
        raise ValueError("kernel argument must lie in [0, 1)")
    out = np.empty_like(x)
    small = x < 1e-4
    xs = x[small]
    out[small] = 2.0 + (2.0 / 3.0) * xs**2 + 0.4 * xs**4
    xl = x[~small]
    out[~small] = (np.log1p(xl) - np.log1p(-xl)) / xl
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


# Nodes per block of the distance quadrature.  Each node takes one row of
# rule terms, 458 doubles; blocks of 256 rows keep a call's working arrays
# at a few MB on any grid, where one block of all rows took 240 MB on 16384.
_DISTANCE_BLOCK = 256


def distance_from_singular_point(x):
    """Background distance from the singular point to coordinate x, at core
    scale 1; at core scale a distances are a times as large.

    The line element dx / (2 sqrt(x) sqrt(1 - x^2)) becomes dt / (2 sqrt(sin t))
    under x = sin t, and t = asin(x) u carries it to (0, 1), where
    :func:`tanh_sinh_rule` integrates its u^(-1/2) end.  Writing sin(t u) as
    t u sinc(t u / pi) keeps x = 0 finite.  At x = 1 this is the
    bolt-to-infinity distance.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("x must lie in [0, 1]")
    u, _, weights = tanh_sinh_rule()
    t = np.arcsin(x)
    nodes = t.reshape(-1)
    sums = np.empty(nodes.size)
    for start in range(0, nodes.size, _DISTANCE_BLOCK):
        block = nodes[start:start + _DISTANCE_BLOCK]
        terms = 1.0 / np.sqrt(u * np.sinc(np.multiply.outer(block, u) / np.pi))
        sums[start:start + block.size] = np.einsum("ik,k->i", terms, weights)
    out = 0.5 * np.sqrt(t) * sums.reshape(t.shape)
    return out if out.ndim else float(out)
