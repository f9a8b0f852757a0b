"""fpklab: finite-volume laboratory for Fokker-Planck dynamics on the torus.

The package simulates densities evolving by df/dt = Div((f/pi) grad(D log f
+ phi)) on [0,1)^n with periodic boundaries and verifies, numerically, the
structural facts the dynamics is supposed to obey: exact mass conservation,
free-energy dissipation, pointwise maximum-principle envelopes, the term-by-
term second-derivative identities of the free energy, and exponential decay
of the dissipation rate below explicit thresholds.
"""

from .coefficients import (
    CoefficientSet,
    ConstantsLedger,
    build_constants_ledger,
    compute_equilibrium,
    sample_coefficients,
)
from .expressions import CoefficientExpr, parse_expression
from .grid import Grid, ScalarField, build_grid, face_divergence, integrate
from .solver import SolverConfig, SolverState, compute_velocity, rhs, run, stable_dt, step

__all__ = [
    "CoefficientExpr",
    "CoefficientSet",
    "ConstantsLedger",
    "Grid",
    "ScalarField",
    "SolverConfig",
    "SolverState",
    "build_constants_ledger",
    "build_grid",
    "compute_equilibrium",
    "compute_velocity",
    "face_divergence",
    "integrate",
    "parse_expression",
    "rhs",
    "run",
    "sample_coefficients",
    "stable_dt",
    "step",
]

__version__ = "0.1.0"
