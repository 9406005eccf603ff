"""2-D/3-D mesh matrices — the supernodal solver's ideal inputs.

Table II of the paper tests PMKL on six 2/3-D mesh problems (wind
tunnel, 5-point stencil ecology model, 3-D finite differences,
stiffness matrices, parabolic FEM, Helmholtz).  These generators
produce the same structural classes: regular grid graphs with 5/9-point
(2-D) or 7/27-point (3-D) stencils, mild unsymmetric value
perturbations, and diagonal dominance for factorability.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..sparse.csc import CSC

__all__ = ["grid2d", "grid3d"]


def grid2d(
    m: int,
    stencil: int = 5,
    skew: float = 0.1,
    rng: np.random.Generator | None = None,
) -> CSC:
    """``m x m`` grid operator with a 5- or 9-point stencil.

    Values are diagonally dominant with an ``skew``-sized random
    asymmetry (the matrices are structurally symmetric, numerically
    unsymmetric — like the paper's mesh suite run through an
    unsymmetric solver).
    """
    if stencil not in (5, 9):
        raise ValueError("2-D stencil must be 5 or 9")
    rng = rng or np.random.default_rng(0)
    n = m * m
    idx = lambda i, j: i * m + j
    offsets = [(1, 0), (0, 1)]
    if stencil == 9:
        offsets += [(1, 1), (1, -1)]
    rows, cols, vals = [], [], []
    deg = np.zeros(n)
    for i, j in itertools.product(range(m), range(m)):
        a = idx(i, j)
        for di, dj in offsets:
            bi, bj = i + di, j + dj
            if 0 <= bi < m and 0 <= bj < m:
                b = idx(bi, bj)
                w1 = -1.0 - skew * rng.random()
                w2 = -1.0 - skew * rng.random()
                rows += [a, b]
                cols += [b, a]
                vals += [w1, w2]
                deg[a] += abs(w1)
                deg[b] += abs(w2)
    rows += list(range(n))
    cols += list(range(n))
    vals += (deg + 1.0 + 0.1 * rng.random(n)).tolist()
    return CSC.from_coo(rows, cols, vals, (n, n))


def grid3d(
    m: int,
    stencil: int = 7,
    skew: float = 0.1,
    rng: np.random.Generator | None = None,
) -> CSC:
    """``m x m x m`` grid operator with a 7- or 27-point stencil."""
    if stencil not in (7, 27):
        raise ValueError("3-D stencil must be 7 or 27")
    rng = rng or np.random.default_rng(0)
    n = m**3
    idx = lambda i, j, k: (i * m + j) * m + k
    if stencil == 7:
        offsets = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        offsets = [
            o
            for o in itertools.product((-1, 0, 1), repeat=3)
            if o != (0, 0, 0) and (o > (0, 0, 0))
        ]
    rows, cols, vals = [], [], []
    deg = np.zeros(n)
    for i, j, k in itertools.product(range(m), repeat=3):
        a = idx(i, j, k)
        for di, dj, dk in offsets:
            bi, bj, bk = i + di, j + dj, k + dk
            if 0 <= bi < m and 0 <= bj < m and 0 <= bk < m:
                b = idx(bi, bj, bk)
                w1 = -1.0 - skew * rng.random()
                w2 = -1.0 - skew * rng.random()
                rows += [a, b]
                cols += [b, a]
                vals += [w1, w2]
                deg[a] += abs(w1)
                deg[b] += abs(w2)
    rows += list(range(n))
    cols += list(range(n))
    vals += (deg + 1.0 + 0.1 * rng.random(n)).tolist()
    return CSC.from_coo(rows, cols, vals, (n, n))
