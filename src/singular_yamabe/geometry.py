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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "RadialGrid",
    "EguchiHansonModel",
    "SphereModel",
    "build_grid",
    "build_sphere_model",
    "x_of_r",
    "r_of_x",
    "eh_scalar_curvature",
    "eh_volume",
    "eh_volume_quadrature",
    "eh_distance_to_infinity",
    "eh_scalar_l2_energy",
    "scalar_from_v",
    "face_fluxes",
    "green_kernel",
    "distance_from_singular_point",
    "sphere_volume",
    "improper_radial_integral",
]

_TAIL_RELTOL = 1e-10
# Smallest cell width build_grid accepts, about 4500 ulps of the unit
# interval.  The curvature operator scales like 1 / dx^2, so narrower cells
# give it entries some 1e24 times those of a unit cell and leave the grid
# degenerate in floating point.
MIN_CELL_WIDTH = 1e-12


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered grid on (0, 1] for radial profiles in the x coordinate.

    Attributes
    ----------
    n_cells : int
        Number of cells, at least 8.
    faces : ndarray, shape (n_cells + 1,)
        Cell interfaces, strictly increasing, faces[0] = 0 and faces[-1] = 1.
    cell_centers : ndarray, shape (n_cells,)
        Centroid of the measure x dx over each cell.  Strictly inside the
        cell, strictly increasing.
    weights : ndarray, shape (n_cells,)
        Exact cell masses of x dx, i.e. (f_+^2 - f_-^2)/2.  They sum to 1/2.
    grading : str
        "uniform" or "geometric".
    ratio : float or None
        Width ratio of consecutive cells for geometric grading (cells shrink
        toward x = 0); None for uniform grading.
    """

    n_cells: int
    faces: np.ndarray
    cell_centers: np.ndarray
    weights: np.ndarray
    grading: str
    ratio: float | None = None

    def __post_init__(self):
        if self.n_cells < 8:
            raise ValueError(f"need at least 8 cells, got {self.n_cells}")
        if self.faces.shape != (self.n_cells + 1,):
            raise ValueError("faces shape does not match n_cells")
        if self.faces[0] != 0.0 or self.faces[-1] != 1.0:
            raise ValueError("faces must span [0, 1]")
        if np.any(np.diff(self.faces) <= 0.0):
            raise ValueError("faces must be strictly increasing")

    @property
    def cell_widths(self) -> np.ndarray:
        return np.diff(self.faces)

    @cached_property
    def divergence_bands(self) -> np.ndarray:
        """The flux divergence D, D v = diff(face_fluxes(v)) / dx, as (1, 1) bands.

        Row 0 holds the superdiagonal, row 1 the diagonal and row 2 the
        subdiagonal, in the layout of :func:`scipy.linalg.solve_banded`.  The
        fluxes of :func:`face_fluxes` are linear in v: interior face i carries
        c_i (x_i v_i - x_{i-1} v_{i-1}) with c_i = (1 - f_i^2) / (x_i - x_{i-1}),
        the first face carries v_0.  Built on first use, then read-only.
        """
        x = self.cell_centers
        dx = self.cell_widths
        c = (1.0 - self.faces[1:-1] ** 2) / np.diff(x)
        bands = np.zeros((3, self.n_cells))
        bands[0, 1:] = c * x[1:] / dx[:-1]
        bands[2, :-1] = c * x[:-1] / dx[1:]
        bands[1, :-1] -= c * x[:-1] / dx[:-1]
        bands[1, 1:] -= c * x[1:] / dx[1:]
        bands[1, 0] -= 1.0 / dx[0]
        bands.setflags(write=False)
        return bands


def build_grid(n_cells: int, grading: str = "uniform", ratio: float = 0.97) -> RadialGrid:
    """Build a RadialGrid with exact x dx cell masses and centroid nodes.

    Geometric grading shrinks cells toward x = 0 by the given width ratio,
    which is where the flow concentrates; uniform grading is the default.
    Grids whose smallest cell is narrower than MIN_CELL_WIDTH are refused
    as degenerate in floating point.
    """
    if n_cells < 8:
        raise ValueError(f"need at least 8 cells, got {n_cells}")
    if grading == "uniform":
        faces = np.linspace(0.0, 1.0, n_cells + 1)
        ratio_out = None
    elif grading == "geometric":
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"geometric ratio must be in (0, 1), got {ratio}")
        # widths grow away from the origin: width[k+1] = width[k] / ratio
        widths = ratio ** np.arange(n_cells - 1, -1, -1, dtype=float)
        faces = np.concatenate(([0.0], np.cumsum(widths)))
        faces /= faces[-1]
        faces[-1] = 1.0
        ratio_out = ratio
    else:
        raise ValueError(f"unknown grading {grading!r}")
    smallest = float(np.min(np.diff(faces)))
    if not smallest >= MIN_CELL_WIDTH:
        raise ValueError(f"smallest cell width {smallest:.3g} is below {MIN_CELL_WIDTH:g};"
                         " the grid is degenerate in floating point")
    lo, hi = faces[:-1], faces[1:]
    # centroid of x dx over [lo, hi]; the (lo^2+lo*hi+hi^2)/(lo+hi) form is
    # safe in the first cell where lo = 0
    centers = (2.0 / 3.0) * (lo * lo + lo * hi + hi * hi) / (lo + hi)
    weights = 0.5 * (hi * hi - lo * lo)
    return RadialGrid(
        n_cells=n_cells,
        faces=faces,
        cell_centers=centers,
        weights=weights,
        grading=grading,
        ratio=ratio_out,
    )


@dataclass(frozen=True)
class EguchiHansonModel:
    """Eguchi-Hanson background with core scale a > 0."""

    a: float = 1.0

    def __post_init__(self):
        if not self.a > 0.0 or not np.isfinite(self.a):
            raise ValueError(f"core scale must be positive and finite, got {self.a}")


@dataclass(frozen=True)
class SphereModel:
    """Round n-sphere sampled by polar angle, for cross-checking thresholds.

    The polar grid covers [0, pi] with midpoint nodes; weights are the
    latitude band volumes omega_{n-1} sin^{n-1}(theta) dtheta evaluated by
    the midpoint rule, so they sum to Vol(S^n) up to quadrature error.
    """

    n: int
    n_cells: int
    thetas: np.ndarray = field(repr=False)
    faces: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def build_sphere_model(n: int = 4, n_cells: int = 256) -> SphereModel:
    if n < 3:
        raise ValueError(f"sphere dimension must be at least 3, got {n}")
    if n_cells < 8:
        raise ValueError(f"need at least 8 cells, got {n_cells}")
    faces = np.linspace(0.0, np.pi, n_cells + 1)
    thetas = 0.5 * (faces[:-1] + faces[1:])
    band = sphere_volume(n - 1) * np.sin(thetas) ** (n - 1) * np.diff(faces)
    return SphereModel(n=n, n_cells=n_cells, thetas=thetas, faces=faces, weights=band)


def sphere_volume(n: int) -> float:
    """Total measure of the round unit n-sphere."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


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

def r_of_x(x, a: float = 1.0):
    """Inverse of x_of_r on (0, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x > 1.0):
        raise ValueError("x must lie in (0, 1]")
    out = a * (1.0 - x * x) ** 0.25 / np.sqrt(x)
    return out if out.ndim else float(out)


def eh_scalar_curvature(r, a: float = 1.0):
    """Scalar curvature of the compactified background at radius r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    out = 48.0 / np.sqrt(a**4 + r**4)
    return out if out.ndim else float(out)


def eh_volume(a: float = 1.0) -> float:
    """Total volume of the compactified space, pi^2 a^4 / 4."""
    if a <= 0.0:
        raise ValueError("core scale must be positive")
    return np.pi**2 * a**4 / 4.0


def improper_radial_integral(f, a: float = 1.0) -> float:
    """Integrate f over (0, infinity), doubling the cutoff until converged.

    The cutoff starts at 8 a and doubles until the tail contribution changes
    the total by less than 1e-10 in relative terms.
    """
    from scipy.integrate import quad

    cutoff = 8.0 * a
    total, _ = quad(f, 0.0, cutoff, limit=200)
    for _ in range(200):
        tail, _ = quad(f, cutoff, 2.0 * cutoff, limit=200)
        total += tail
        cutoff *= 2.0
        if abs(tail) <= _TAIL_RELTOL * max(abs(total), 1e-300):
            return total
    raise RuntimeError("improper integral failed to converge under cutoff doubling")


def eh_volume_quadrature(a: float = 1.0) -> float:
    """Volume recomputed by radial quadrature, as a cross-check on eh_volume."""

    def dens(r):
        x = x_of_r(r, a)
        return np.pi**2 * x**4 * r**3

    return improper_radial_integral(dens, a)


def eh_distance_to_infinity(a: float = 1.0) -> float:
    """Distance from the bolt to the singular point in the compactified metric."""
    if a <= 0.0:
        raise ValueError("core scale must be positive")

    def line_element(r):
        return a**2 * r / (a**4 + r**4) ** 0.75

    return improper_radial_integral(line_element, a)


def eh_scalar_l2_energy(a: float = 1.0) -> float:
    """Squared L2 norm of the compactified scalar curvature (scale invariant)."""

    def dens(r):
        x = x_of_r(r, a)
        return eh_scalar_curvature(r, a) ** 2 * np.pi**2 * x**4 * r**3

    return improper_radial_integral(dens, a)


# ---------------------------------------------------------------------------
# discrete curvature operator
# ---------------------------------------------------------------------------


def face_fluxes(v: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Fluxes (1 - x^2) d(x v)/dx at all faces of the grid.

    The product x*v extends continuously by zero to x = 0, which closes the
    first face without a boundary condition; the factor (1 - x^2) vanishes at
    x = 1, closing the last.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n_cells,):
        raise ValueError("profile shape does not match grid")
    xv = grid.cell_centers * v
    flux = np.empty(grid.n_cells + 1)
    flux[0] = v[0]  # (1 - 0) * (x v - 0) / (x - 0) at the first node
    dxc = np.diff(grid.cell_centers)
    flux[1:-1] = (1.0 - grid.faces[1:-1] ** 2) * np.diff(xv) / dxc
    flux[-1] = 0.0
    return flux


def scalar_from_v(v: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Reduced scalar curvature of the conformal profile v on the grid.

    Discretizes -(d/dx)[(1 - x^2) d(xv)/dx] / v^3 in conservation form: the
    divergence of the face fluxes over the cell width, divided by v^3 at the
    cell node.  Constant profiles c map to 2 x / c^2 up to the centroid
    truncation error.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("profile must be positive and finite")
    flux = face_fluxes(v, grid)
    return -np.diff(flux) / (grid.cell_widths * v**3)


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


def distance_from_singular_point(x, a: float = 1.0):
    """Background distance from the singular point to coordinate x, exactly.

    The line element (a/2) dx / (sqrt(x) sqrt(1 - x^2)) integrates to an
    incomplete Beta function; at x = 1 this equals the bolt-to-infinity
    distance.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("x must lie in [0, 1]")
    from scipy.special import beta, betainc

    half_beta = 0.25 * beta(0.25, 0.5)
    out = a * half_beta * betainc(0.25, 0.5, x * x)
    return out if out.ndim else float(out)
