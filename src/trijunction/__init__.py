"""Stationary perturbations of the triple-junction surface Y x S^1 in R^2 x S^1.

Compute height triples over the three sheets of the junction that make the
perturbed surface stationary (minimal sheets, balanced conormals along the
spine) with prescribed small outer boundary data, via decoupled per-mode
spectral solves driven by a fixed-point iteration, plus independent
finite-difference verification oracles.
"""

from .fields import (AliasingWarning, BoundaryTriple, Grid2D, TripleField, boundary_proxy,
                     norm_proxy, periodic_proxy)
from .geometry import (CompatibilityViolation, CutoffProfile, embed_margin, embed_point,
                       frame_vectors, mesh_surface)
from .curvature import DegenerateMetric, F_eval, G_eval, mean_curvature
from .linear import DECOUPLE, RECOMPOSE, boundary_operator, solve_linear_system, solve_scalar
from .picard import (GuardViolation, NoConvergence, SolveFailure, SolveOptions, picard_step,
                     solve_nonlinear)
from .oracles import (ModeProblem, contraction_diagnostics, exact_family, fd_linear_solve,
                      fd_mean_curvature, junction_angle_check, schauder_probe,
                      structural_certificate)

__version__ = "0.1.0"

__all__ = [
    "AliasingWarning", "BoundaryTriple", "Grid2D", "TripleField", "boundary_proxy",
    "norm_proxy", "periodic_proxy",
    "CompatibilityViolation", "CutoffProfile", "embed_margin", "embed_point",
    "frame_vectors", "mesh_surface",
    "DegenerateMetric", "F_eval", "G_eval", "mean_curvature",
    "DECOUPLE", "RECOMPOSE", "boundary_operator", "solve_linear_system", "solve_scalar",
    "GuardViolation", "NoConvergence", "SolveFailure", "SolveOptions", "picard_step",
    "solve_nonlinear",
    "ModeProblem", "contraction_diagnostics", "exact_family", "fd_linear_solve",
    "fd_mean_curvature", "junction_angle_check", "schauder_probe", "structural_certificate",
]
