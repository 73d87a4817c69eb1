"""Stochastic mean curvature flow of periodic graphs on the unit torus.

A spectral/finite-difference simulator for graph evolutions driven by a
single scalar Wiener process, plus the verification harness: geometric
identity checks, energy and area inequality monitors, martingale statistics,
truncation/stopping-time machinery, and shared-noise parameter sweeps.
"""

__version__ = "0.1.0"
