"""Sparse-matrix substrate: CSC storage, kernels, 2-D blocks, I/O."""

from .blocks import BlockMatrix
from .build import block_diag, diags, hstack, kron, random_like, vstack
from .csc import CSC
from .io import read_matrix_market, write_matrix_market
from .ops import (
    lower_solve,
    lower_solve_reference,
    matmat,
    upper_solve,
    upper_solve_reference,
)
from .schedule import (
    BlockedRefactorSchedule,
    RefactorSchedule,
    ScheduleCompileError,
    TriangularSchedule,
    compile_refactor_schedule,
    compile_triangular_schedule,
    permutation_gather,
    triangular_schedule,
)
from .serialize import load_csc, save_csc
from .stats import MatrixStats, degree_stats, matrix_stats, structural_symmetry
from .verify import factorization_residual, relative_error, solve_residual

__all__ = [
    "CSC",
    "BlockMatrix",
    "lower_solve",
    "upper_solve",
    "lower_solve_reference",
    "upper_solve_reference",
    "matmat",
    "TriangularSchedule",
    "RefactorSchedule",
    "BlockedRefactorSchedule",
    "ScheduleCompileError",
    "compile_triangular_schedule",
    "compile_refactor_schedule",
    "triangular_schedule",
    "permutation_gather",
    "read_matrix_market",
    "write_matrix_market",
    "factorization_residual",
    "solve_residual",
    "relative_error",
    "matrix_stats",
    "MatrixStats",
    "structural_symmetry",
    "degree_stats",
    "save_csc",
    "load_csc",
    "hstack",
    "vstack",
    "block_diag",
    "kron",
    "diags",
    "random_like",
]
