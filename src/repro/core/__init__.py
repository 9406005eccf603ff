"""Basker core: hierarchical parallel sparse LU (the paper's contribution)."""

from .basker import Basker, BaskerNumeric
from .numeric import (
    NDNumericBlock,
    TaskBuilder,
    factor_nd_block,
    lower_offdiag_solve,
    upper_offdiag_solve,
)
from .parsolve import parallel_lower_solve, parallel_upper_solve
from .structure import BaskerSymbolic, FineBTFPlan, NDBlockPlan
from .symbolic import DEFAULT_ND_THRESHOLD, analyze

__all__ = [
    "Basker",
    "BaskerNumeric",
    "BaskerSymbolic",
    "FineBTFPlan",
    "NDBlockPlan",
    "analyze",
    "DEFAULT_ND_THRESHOLD",
    "NDNumericBlock",
    "TaskBuilder",
    "factor_nd_block",
    "lower_offdiag_solve",
    "upper_offdiag_solve",
    "parallel_lower_solve",
    "parallel_upper_solve",
]
