"""Normalized conformal flow on the compactified Eguchi-Hanson orbifold.

The package simulates the reduced radial flow of the conformal factor,
estimates conformal quotients and spectral gaps variationally, and runs
concentration diagnostics that classify whether a trajectory heads toward
constant curvature or bubbles volume into the singular point.
"""

__version__ = "0.1.0"
