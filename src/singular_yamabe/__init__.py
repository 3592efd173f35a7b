"""Normalized conformal flow on the compactified Eguchi-Hanson orbifold.

The package simulates the reduced radial flow of the conformal factor,
estimates conformal quotients and spectral gaps variationally, and runs
concentration diagnostics that classify whether a trajectory heads toward
constant curvature or bubbles volume into the singular point.
"""

__version__ = "0.1.0"

from .geometry import (
    EguchiHansonModel,
    RadialGrid,
    SphereModel,
    build_grid,
    build_sphere_model,
    distance_from_singular_point,
    eh_distance_to_infinity,
    eh_scalar_curvature,
    eh_scalar_l2_energy,
    eh_volume,
    eh_volume_quadrature,
    green_kernel,
    scalar_from_v,
)
from .scenario import Scenario
from .flow import (
    FlowState,
    PositivityError,
    RunResult,
    TimeSeriesRecord,
    mass_fraction,
    run,
    stable_dt,
    step,
)
from .variational import (
    EigenResult,
    QuotientResult,
    Y_LOCAL,
    eigen_criteria,
    first_eigenvalue,
    minimize_quotient,
    yamabe_quotient_eh,
    yamabe_quotient_sphere,
    yamabe_sphere_constant,
)
from .diagnostics import (
    BubbleFitError,
    bubble_fit,
    build_dichotomy_report,
    decay_rate_fit,
    detect_concentration,
    f_p,
    green_identity_residual,
    low_average_test,
    max_bubble_count,
    physical_sigma,
    small_energy_test,
    sup_bound_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
