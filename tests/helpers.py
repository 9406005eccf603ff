"""Shared test utilities: random matrix generators and SciPy bridges.

SciPy is used in the test suite only, as an independent oracle for the
from-scratch kernels in :mod:`repro`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse import CSC


def to_scipy(A: CSC) -> sp.csc_matrix:
    return sp.csc_matrix((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)


def from_scipy(S) -> CSC:
    S = sp.csc_matrix(S)
    S.sort_indices()
    return CSC(S.shape[0], S.shape[1], S.indptr.astype(np.int64), S.indices.astype(np.int64), S.data.astype(np.float64))


def random_sparse(
    n_rows: int,
    n_cols: int,
    density: float,
    rng: np.random.Generator,
    ensure_diag: bool = False,
    diag_boost: float = 0.0,
) -> CSC:
    """Uniform random sparse matrix; optionally with a (boosted) diagonal."""
    nnz = max(1, int(density * n_rows * n_cols))
    r = rng.integers(0, n_rows, size=nnz)
    c = rng.integers(0, n_cols, size=nnz)
    v = rng.standard_normal(nnz)
    if ensure_diag:
        d = min(n_rows, n_cols)
        r = np.concatenate([r, np.arange(d)])
        c = np.concatenate([c, np.arange(d)])
        dv = rng.standard_normal(d)
        dv += np.sign(dv + (dv == 0)) * diag_boost
        v = np.concatenate([v, dv])
    return CSC.from_coo(r, c, v, (n_rows, n_cols))


def random_spd_like(n: int, density: float, rng: np.random.Generator) -> CSC:
    """Diagonally dominant unsymmetric matrix — safely factorable."""
    A = random_sparse(n, n, density, rng)
    # Make strictly diagonally dominant.
    S = to_scipy(A)
    rowsum = np.abs(S).sum(axis=1).A1 if hasattr(np.abs(S).sum(axis=1), "A1") else np.asarray(np.abs(S).sum(axis=1)).ravel()
    d = rowsum + 1.0
    D = sp.diags(d)
    return from_scipy(S + D)


def dense_residual(A: CSC, L: CSC, U: CSC, row_perm=None, col_perm=None) -> float:
    """Dense-arithmetic check of ||PAQ - LU|| / ||A|| via NumPy."""
    Ad = A.to_dense()
    if row_perm is not None:
        Ad = Ad[np.asarray(row_perm)]
    if col_perm is not None:
        Ad = Ad[:, np.asarray(col_perm)]
    R = Ad - L.to_dense() @ U.to_dense()
    denom = max(np.linalg.norm(A.to_dense()), 1e-300)
    return float(np.linalg.norm(R) / denom)


def btf_solve_reference(numeric, b: np.ndarray) -> np.ndarray:
    """Block back-substitution oracle for the solvers' ``solve``.

    The per-block loop the compiled BTF solve replaced: blocks run from
    last to first, each solved with ``lu_solve_factors``, then every
    column of the block subtracts its coupling from the rows above.  A
    block right-hand side is solved one column at a time.  A supernodal
    numeric is one block with no coupling.
    """
    from repro.solvers.triangular import lu_solve_factors

    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 2:
        out = np.empty_like(b)
        for j in range(b.shape[1]):
            out[:, j] = btf_solve_reference(numeric, b[:, j])
        return out
    n = b.shape[0]
    if hasattr(numeric, "block_lu"):  # KLU
        splits = numeric.symbolic.block_splits
        blocks = [(lu.L, lu.U) for lu in numeric.block_lu]
    elif hasattr(numeric, "block_factors"):  # Basker
        splits = numeric.symbolic.block_splits
        blocks = [numeric.block_factors(k) if splits[k + 1] > splits[k] else None
                  for k in range(len(splits) - 1)]
    else:  # supernodal
        splits = np.array([0, n])
        blocks = [(numeric.L, numeric.U)]
    scale = getattr(numeric, "row_scale", None)
    if scale is not None:
        b = b * scale  # the factors are of R A: solve (R A) x = R b
    c = b[numeric.row_perm].copy()
    z = np.zeros(n, dtype=np.float64)
    M = getattr(numeric, "M", None)
    for k in range(len(splits) - 2, -1, -1):
        lo, hi = int(splits[k]), int(splits[k + 1])
        if hi == lo:
            continue
        L, U = blocks[k]
        z[lo:hi] = lu_solve_factors(L, U, c[lo:hi])
        if M is None:
            continue
        for j in range(lo, hi):
            rows, vals = M.col(j)
            cut = np.searchsorted(rows, lo)
            if cut:
                c[rows[:cut]] -= vals[:cut] * z[j]
    x = np.empty(n, dtype=np.float64)
    x[numeric.col_perm] = z
    return x


def basker_refactor_reference(A: CSC, numeric):
    """Per-block oracle for ``Basker.refactor_fast``.

    The loop the shared refactor plan replaced: permute ``A`` by the
    factorization's final permutations, refactor every nonempty coarse
    block on its own with ``gp_refactor`` (fixed pattern, identity pivot
    order), and rewrap fine and ND blocks.  Its values and per-block
    ledgers are what the one-replay path must reproduce exactly.
    """
    import dataclasses

    from repro.core.basker import BaskerNumeric
    from repro.parallel.ledger import CostLedger
    from repro.solvers.gp import GPResult, gp_refactor

    sym = numeric.symbolic
    splits = sym.block_splits
    M = A.permute(numeric.row_perm, sym.col_perm)
    total = CostLedger()
    total.mem_words += A.nnz
    fine_lu, nd_numeric = {}, {}
    for k in range(sym.n_blocks):
        lo, hi = int(splits[k]), int(splits[k + 1])
        if hi == lo:
            continue
        L, U = numeric.block_factors(k)
        led = CostLedger()
        fixed = GPResult(L, U, np.arange(hi - lo, dtype=np.int64), led)
        lu = gp_refactor(M.submatrix(lo, hi, lo, hi), fixed, ledger=led)
        total.add(led)
        if k in numeric.fine_lu:
            fine_lu[k] = lu
        else:
            nd_numeric[k] = dataclasses.replace(
                numeric.nd_numeric[k], L=lu.L, U=lu.U, ledger=led, overhead=CostLedger()
            )
    return BaskerNumeric(
        symbolic=sym, fine_lu=fine_lu, nd_numeric=nd_numeric,
        row_perm=numeric.row_perm, col_perm=sym.col_perm, M=M,
        tasks=[], task_labels={}, ledger=total, overhead_ledger=total.copy(),
    )
