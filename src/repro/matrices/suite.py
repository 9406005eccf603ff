"""The synthetic test-suite registry (Table I and Table II analogs).

The paper's suite comes from the UF collection and Sandia's Xyce runs,
neither available offline; per DESIGN.md each entry here is a scaled
synthetic analog that preserves the *qualitative axes* the paper's
analysis runs on — BTF coverage (percent of rows in small independent
blocks), number of BTF blocks, and the fill-in density class
(|L+U|/|A| below or above 4.0).  Every entry records the paper's
reported numbers so the benches can print paper-vs-measured tables.

Names keep the originals with a ``*``/``+`` convention matching the
paper's Table I (``*`` Sandia/Xyce, ``+`` power grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..sparse.csc import CSC
from .circuit import (
    add_semi_dense_columns,
    btf_composite,
    ladder_circuit,
    thick_ladder,
    zero_diagonal_pairs,
)
from .mesh import grid2d, grid3d
from .powergrid import meshed_area_grid, reduced_system

__all__ = ["MatrixSpec", "TABLE1", "TABLE2", "FIG5_MATRICES", "get_matrix", "suite_names"]


@dataclass
class PaperStats:
    """Numbers reported in the paper's Table I for the original matrix."""

    n: float
    nnz: float
    fill_density: float      # |L+U| / |A| measured with KLU
    btf_pct: float           # percent of rows in small diagonal blocks
    btf_blocks: float
    klu_lu_nnz: float = 0.0
    pmkl_lu_nnz: float = 0.0
    basker_lu_nnz: float = 0.0


@dataclass
class MatrixSpec:
    name: str
    kind: str                     # 'circuit' | 'powergrid' | 'xyce' | 'mesh'
    paper: PaperStats
    build: Callable[[np.random.Generator], CSC]
    seed: int = 0
    high_fill: bool = False       # paper's fill-density > 4.0 group

    def generate(self) -> CSC:
        return self.build(np.random.default_rng(self.seed))


def _spec(name, kind, paper, build, seed=0, high_fill=False):
    return MatrixSpec(name=name, kind=kind, paper=paper, build=build, seed=seed, high_fill=high_fill)


# ----------------------------------------------------------------------
# Table I analogs (ordered by the paper's increasing KLU fill density).
# ----------------------------------------------------------------------

TABLE1: List[MatrixSpec] = [
    _spec(
        "RS_b39c30+", "powergrid",
        PaperStats(6.0e4, 1.1e6, 0.6, 100.0, 3e3, 6.9e5, 6.3e6, 6.9e5),
        lambda rng: reduced_system(130, block_size_mean=9.0, block_density=0.6,
                                   coupling=6.0, rng=rng),
        seed=39,
    ),
    _spec(
        "RS_b678c2+", "powergrid",
        PaperStats(3.6e4, 8.8e6, 0.7, 100.0, 271, 5.8e6, 5.9e7, 5.8e6),
        lambda rng: reduced_system(55, block_size_mean=24.0, block_density=0.35,
                                   coupling=12.0, max_block=90, rng=rng),
        seed=678,
    ),
    _spec(
        "Power0*+", "powergrid",
        PaperStats(9.8e4, 4.8e5, 1.3, 100.0, 7.7e3, 6.4e5, 9.1e5, 6.4e5),
        lambda rng: reduced_system(160, block_size_mean=7.0, block_density=0.25,
                                   coupling=1.5, rng=rng),
        seed=100,
    ),
    _spec(
        "Circuit5M", "circuit",
        PaperStats(5.6e6, 6.0e7, 1.3, 0.0, 1, 6.8e7, 3.1e8, 7.4e7),
        lambda rng: thick_ladder(400, 6, rng=rng),
        seed=5,
    ),
    _spec(
        "memplus", "circuit",
        PaperStats(1.2e4, 9.9e4, 1.4, 0.1, 23, 1.4e5, 1.3e5, 1.4e5),
        lambda rng: add_semi_dense_columns(
            btf_composite([2] * 10 + [3] * 6,
                          big_block=thick_ladder(185, 6, rng=rng),
                          coupling_per_block=1.0, rng=rng),
            n_cols=6, touch_frac=0.12, rng=rng),
        seed=12,
    ),
    _spec(
        "rajat21", "circuit",
        PaperStats(4.1e5, 1.9e6, 1.5, 2.0, 5.9e3, 2.8e6, 4.9e6, 2.8e6),
        lambda rng: add_semi_dense_columns(
            zero_diagonal_pairs(
                btf_composite([1] * 40 + [2] * 12,
                              big_block=thick_ladder(250, 6, rng=rng),
                              coupling_per_block=1.2, rng=rng),
                pairs=[(1540 + 2 * k, 1541 + 2 * k) for k in range(12)], rng=rng),
            n_cols=14, touch_frac=0.35, rng=rng),
        seed=21,
    ),
    _spec(
        "trans5", "circuit",
        PaperStats(1.2e5, 7.5e5, 1.6, 0.0, 1, 1.2e6, 1.3e6, 1.2e6),
        lambda rng: thick_ladder(300, 6, tap_frac=0.12, rng=rng),
        seed=55,
    ),
    _spec(
        "circuit_4", "circuit",
        PaperStats(8.0e4, 3.1e5, 1.6, 34.8, 2.8e4, 5.0e5, 5.8e5, 5.1e5),
        lambda rng: btf_composite(
            (1 + rng.poisson(2.0, size=110)).tolist(),
            big_block=thick_ladder(117, 6, rng=rng),
            coupling_per_block=1.0, rng=rng),
        seed=4,
    ),
    _spec(
        "Xyce0*", "xyce",
        PaperStats(6.8e5, 3.9e6, 1.8, 85.0, 5.8e5, 4.7e6, 3.8e7, 4.8e6),
        lambda rng: btf_composite(
            (1 + rng.poisson(1.5, size=400)).tolist(),
            big_block=thick_ladder(44, 6, rng=rng),
            coupling_per_block=0.8, rng=rng),
        seed=900,
    ),
    _spec(
        "Xyce4*", "xyce",
        PaperStats(6.2e6, 7.3e7, 2.0, 12.0, 7.5e5, 4.5e7, 5.0e7, 4.5e7),
        lambda rng: btf_composite(
            (1 + rng.poisson(1.0, size=120)).tolist(),
            big_block=thick_ladder(267, 6, tap_frac=0.12, rng=rng),
            coupling_per_block=1.0, rng=rng),
        seed=904,
    ),
    _spec(
        "Xyce1*", "xyce",
        PaperStats(4.3e5, 2.4e6, 2.4, 21.0, 9.9e4, 5.1e6, 5.6e6, 5.1e6),
        lambda rng: btf_composite(
            (1 + rng.poisson(1.5, size=180)).tolist(),
            big_block=thick_ladder(217, 6, tap_frac=0.15, rng=rng),
            coupling_per_block=1.0, rng=rng),
        seed=901,
    ),
    _spec(
        "asic_680ks", "circuit",
        PaperStats(6.8e5, 1.7e6, 2.6, 86.0, 5.8e5, 4.5e6, 2.9e7, 4.5e6),
        lambda rng: add_semi_dense_columns(
            btf_composite(
                (1 + rng.poisson(1.2, size=420)).tolist(),
                big_block=thick_ladder(42, 6, rng=rng),
                coupling_per_block=0.8, rng=rng),
            n_cols=10, touch_frac=0.25, rng=rng),
        seed=680,
    ),
    _spec(
        "bcircuit", "circuit",
        PaperStats(6.9e4, 3.8e5, 2.8, 0.0, 1, 1.1e6, 1.1e6, 1.1e6),
        lambda rng: thick_ladder(212, 8, tap_frac=0.2, rng=rng),
        seed=66,
    ),
    _spec(
        "scircuit", "circuit",
        PaperStats(1.7e5, 9.6e5, 2.8, 0.3, 48, 2.7e6, 2.7e6, 2.7e6),
        lambda rng: btf_composite(
            [1] * 30 + [2] * 8,
            big_block=thick_ladder(188, 8, tap_frac=0.2, rng=rng),
            coupling_per_block=1.0, rng=rng),
        seed=77,
    ),
    _spec(
        "hvdc2+", "powergrid",
        PaperStats(1.9e5, 1.3e6, 2.8, 100.0, 67, 3.8e6, 3.0e6, 3.8e6),
        lambda rng: meshed_area_grid(24, 60, ring_degree=4, chord_frac=0.2,
                                     coupling=2.0, rng=rng),
        seed=2,
    ),
    _spec(
        "Freescale1", "circuit",
        PaperStats(3.4e6, 1.7e7, 4.1, 0.0, 1, 7.1e7, 5.6e7, 6.8e7),
        lambda rng: grid2d(42, stencil=5, skew=0.4, rng=rng),
        seed=1,
        high_fill=True,
    ),
    _spec(
        "hcircuit", "circuit",
        PaperStats(1.1e5, 5.1e5, 6.9, 13.0, 1.4e3, 7.3e5, 6.7e5, 7.1e5),
        lambda rng: btf_composite(
            (1 + rng.poisson(1.0, size=60)).tolist(),
            big_block=grid2d(38, stencil=5, skew=0.3, rng=rng),
            coupling_per_block=0.8, rng=rng),
        seed=17,
        high_fill=True,
    ),
    _spec(
        "Xyce3*", "xyce",
        PaperStats(1.9e6, 9.5e6, 9.2, 20.0, 4.0e5, 7.6e7, 4.3e7, 7.7e7),
        lambda rng: btf_composite(
            (1 + rng.poisson(1.5, size=100)).tolist(),
            big_block=grid2d(40, stencil=9, skew=0.3, rng=rng),
            coupling_per_block=1.0, rng=rng),
        seed=903,
        high_fill=True,
    ),
    _spec(
        "memchip", "circuit",
        PaperStats(2.7e6, 1.3e7, 9.9, 0.0, 1, 1.3e8, 6.5e7, 9.4e7),
        lambda rng: grid2d(45, stencil=9, skew=0.4, rng=rng),
        seed=9,
        high_fill=True,
    ),
    _spec(
        "G2_Circuit", "circuit",
        PaperStats(1.5e5, 7.3e5, 27.7, 0.0, 1, 2.0e7, 1.3e7, 2.0e7),
        lambda rng: grid3d(12, stencil=7, skew=0.2, rng=rng),
        seed=2222,
        high_fill=True,
    ),
    _spec(
        "twotone", "circuit",
        PaperStats(1.2e5, 1.2e6, 39.9, 0.0, 5, 4.8e7, 2.7e7, 4.7e7),
        lambda rng: grid3d(10, stencil=27, skew=0.4, rng=rng),
        seed=2,
        high_fill=True,
    ),
    _spec(
        "onetone1", "circuit",
        PaperStats(3.6e4, 3.4e5, 40.8, 1.1, 203, 1.4e7, 4.3e6, 1.2e7),
        lambda rng: btf_composite(
            [1] * 30 + [2] * 10,
            big_block=grid3d(9, stencil=27, skew=0.4, rng=rng),
            coupling_per_block=0.8, rng=rng),
        seed=1111,
        high_fill=True,
    ),
]


# ----------------------------------------------------------------------
# Table II analogs: PMKL's ideal 2/3-D mesh problems.
# ----------------------------------------------------------------------

TABLE2: List[MatrixSpec] = [
    _spec("pwtk", "mesh", PaperStats(2.2e5, 1.2e7, 8.1, 0, 1, 9.7e7, 9.7e7, 0),
          lambda rng: grid2d(55, stencil=9, rng=rng), seed=31),
    _spec("ecology", "mesh", PaperStats(1.0e6, 5.0e6, 14.2, 0, 1, 7.1e7, 7.1e7, 0),
          lambda rng: grid2d(62, stencil=5, rng=rng), seed=32),
    _spec("apache2", "mesh", PaperStats(7.2e5, 4.8e6, 58.3, 0, 1, 2.8e8, 2.8e8, 0),
          lambda rng: grid3d(14, stencil=7, rng=rng), seed=33),
    _spec("bmwcra1", "mesh", PaperStats(1.5e5, 1.1e7, 12.7, 0, 1, 1.4e8, 1.4e8, 0),
          lambda rng: grid3d(11, stencil=27, rng=rng), seed=34),
    _spec("parabolic_fem", "mesh", PaperStats(5.3e5, 3.7e6, 14.1, 0, 1, 5.2e7, 5.2e7, 0),
          lambda rng: grid2d(58, stencil=5, rng=rng), seed=35),
    _spec("helm2d03", "mesh", PaperStats(3.9e5, 2.7e6, 13.7, 0, 1, 3.7e7, 3.7e7, 0),
          lambda rng: grid2d(52, stencil=9, rng=rng), seed=36),
]


# The six matrices of Figures 5 and 6, in the paper's order
# (fill density 1.3 -> 9.2).
FIG5_MATRICES = ["Power0*+", "rajat21", "asic_680ks", "hvdc2+", "Freescale1", "Xyce3*"]

_ALL: Dict[str, MatrixSpec] = {s.name: s for s in TABLE1 + TABLE2}


def suite_names(table: int = 1) -> List[str]:
    return [s.name for s in (TABLE1 if table == 1 else TABLE2)]


def get_matrix(name: str) -> CSC:
    """Generate a suite matrix by its Table I / Table II name."""
    if name not in _ALL:
        raise KeyError(f"unknown suite matrix {name!r}; known: {sorted(_ALL)}")
    return _ALL[name].generate()


def get_spec(name: str) -> MatrixSpec:
    if name not in _ALL:
        raise KeyError(f"unknown suite matrix {name!r}")
    return _ALL[name]
