"""Workload generators: circuit, power-grid and mesh matrices + suite registry."""

from .circuit import (
    add_semi_dense_columns,
    btf_composite,
    cyclic_block,
    ladder_circuit,
    thick_ladder,
    zero_diagonal_pairs,
)
from .mesh import grid2d, grid3d
from .powergrid import meshed_area_grid, reduced_system
from .suite import (
    FIG5_MATRICES,
    MatrixSpec,
    TABLE1,
    TABLE2,
    get_matrix,
    get_spec,
    suite_names,
)

__all__ = [
    "ladder_circuit",
    "thick_ladder",
    "zero_diagonal_pairs",
    "btf_composite",
    "cyclic_block",
    "add_semi_dense_columns",
    "grid2d",
    "grid3d",
    "reduced_system",
    "meshed_area_grid",
    "MatrixSpec",
    "TABLE1",
    "TABLE2",
    "FIG5_MATRICES",
    "get_matrix",
    "get_spec",
    "suite_names",
]
