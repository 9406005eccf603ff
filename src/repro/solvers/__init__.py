"""Serial and baseline solvers: GP kernel, KLU, supernodal (PMKL/SLU-MT)."""

from .gp import GP_DEFAULT_PIVOT_TOL, GPResult, gp_factor
from .klu import KLU, KLUNumeric, KLUSymbolic
from .supernodal import SolverFailure, SupernodalLU, SupernodalNumeric, SupernodalSymbolic, slu_mt
from .triangular import lu_solve_factors

__all__ = [
    "gp_factor",
    "GPResult",
    "GP_DEFAULT_PIVOT_TOL",
    "KLU",
    "KLUSymbolic",
    "KLUNumeric",
    "SupernodalLU",
    "SupernodalSymbolic",
    "SupernodalNumeric",
    "SolverFailure",
    "slu_mt",
    "lu_solve_factors",
]
