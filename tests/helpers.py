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


def _oracle_blocks(numeric):
    """``(splits, blocks, M)`` of a KLU, Basker or supernodal numeric."""
    if hasattr(numeric, "block_lu"):  # KLU
        return (numeric.symbolic.block_splits,
                [(lu.L, lu.U) for lu in numeric.block_lu], numeric.M)
    if hasattr(numeric, "block_factors"):  # Basker
        splits = numeric.symbolic.block_splits
        return (splits, [numeric.block_factors(k) if splits[k + 1] > splits[k] else None
                         for k in range(len(splits) - 1)], numeric.M)
    n = numeric.L.n_cols  # supernodal: one block, no coupling
    return np.array([0, n]), [(numeric.L, numeric.U)], None


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
    splits, blocks, M = _oracle_blocks(numeric)
    scale = getattr(numeric, "row_scale", None)
    if scale is not None:
        b = b * scale  # the factors are of R A: solve (R A) x = R b
    c = b[numeric.row_perm].copy()
    z = np.zeros(n, dtype=np.float64)
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


def _unit_lower_solve_T(L: CSC, b: np.ndarray) -> np.ndarray:
    """``L.T x = b`` for unit lower triangular ``L``: a backward sweep of
    dot products over L's columns."""
    x = np.array(b, dtype=np.float64, copy=True)
    for j in range(L.n_cols - 1, -1, -1):
        rows, vals = L.col(j)
        k = np.searchsorted(rows, j)
        start = k + 1 if k < rows.size and rows[k] == j else k
        if start < rows.size:
            x[j] -= float(vals[start:] @ x[rows[start:]])
    return x


def _upper_solve_T(U: CSC, b: np.ndarray) -> np.ndarray:
    """``U.T x = b`` for upper triangular ``U``, forward sweep."""
    from repro.errors import ZeroPivotError

    x = np.array(b, dtype=np.float64, copy=True)
    for j in range(U.n_cols):
        rows, vals = U.col(j)
        k = np.searchsorted(rows, j)
        if k >= rows.size or rows[k] != j or vals[k] == 0.0:
            raise ZeroPivotError(f"zero diagonal at column {j}", column=j)
        if k > 0:
            x[j] -= float(vals[:k] @ x[rows[:k]])
        x[j] /= vals[k]
    return x


def btf_solve_transpose_reference(numeric, b: np.ndarray) -> np.ndarray:
    """Per-block oracle for ``solve_transpose``.

    The loop the compiled transposed system replaced.  With ``M =
    A[rp][:, cp]`` block upper triangular, ``A.T x = b`` is ``M.T z =
    b[cp]`` with ``x[rp] = z``: a forward sweep over the blocks, each
    block first subtracting its coupling to earlier blocks, then
    solving ``U_k.T`` and ``L_k.T`` column by column.
    """
    splits, blocks, M = _oracle_blocks(numeric)
    b = np.asarray(b, dtype=np.float64)
    n = int(splits[-1])
    c = b[numeric.col_perm].copy()
    z = np.zeros(n, dtype=np.float64)
    for k in range(len(blocks)):
        lo, hi = int(splits[k]), int(splits[k + 1])
        if hi == lo:
            continue
        if M is not None and lo > 0:
            # (M.T z)_i for i in block k picks up M[r, i] z[r] for rows
            # r in earlier blocks (M is block upper triangular).
            for i in range(lo, hi):
                rows, vals = M.col(i)
                cut = int(np.searchsorted(rows, lo))
                if cut:
                    c[i] -= float(vals[:cut] @ z[rows[:cut]])
        L, U = blocks[k]
        z[lo:hi] = _unit_lower_solve_T(L, _upper_solve_T(U, c[lo:hi]))
    x = np.empty(n, dtype=np.float64)
    x[numeric.row_perm] = z
    scale = getattr(numeric, "row_scale", None)
    if scale is not None:
        # Factors are of R A: (RA)^T y = b  =>  A^T (R y) = b.
        x = x * scale
    return x


def parallel_solve_reference(T: CSC, b: np.ndarray, lower: bool, unit_diag: bool,
                             n_threads: int, machine):
    """Per-row oracle for ``repro.core.parsolve``: ``(x, schedule)``.

    Levels each row of ``T`` by a Python loop over its CSR copy, sweeps
    the rows level by level, and chunks every level across threads with
    sparsified point-to-point dependencies (a chunk waits only for the
    chunks that produced one of its operands).
    """
    from repro.parallel.ledger import CostLedger
    from repro.parallel.sim import SimTask, simulate

    n = T.n_cols
    R = T.transpose()  # rows of T as columns of R
    Rp, Ri, Rx = R.indptr, R.indices, R.data
    level = np.zeros(n, dtype=np.int64)
    for i in (range(n) if lower else range(n - 1, -1, -1)):
        for j in Ri[Rp[i]:Rp[i + 1]]:
            if (lower and j < i) or (not lower and j > i):
                level[i] = max(level[i], level[j] + 1)
    n_levels = int(level.max()) + 1 if n else 0
    levels = [np.flatnonzero(level == k) for k in range(n_levels)]

    x = np.array(b, dtype=np.float64, copy=True)
    tasks = []
    prev_chunk_of = np.full(n, -1, dtype=np.int64)  # row -> producing task id
    task_keys = []  # task id -> (level, chunk)
    for lv, rows in enumerate(levels):
        chunks = np.array_split(rows, min(n_threads, max(rows.size, 1)))
        for ci, chunk in enumerate(chunks):
            if chunk.size == 0:
                continue
            led = CostLedger()
            dep_tasks = set()
            for i in chunk:
                i = int(i)
                lo, hi = int(Rp[i]), int(Rp[i + 1])
                acc = x[i]
                diag = 1.0
                for p in range(lo, hi):
                    j = int(Ri[p])
                    if j == i:
                        diag = Rx[p]
                        continue
                    if (j < i) if lower else (j > i):
                        acc -= Rx[p] * x[j]
                        if prev_chunk_of[j] >= 0:
                            dep_tasks.add(int(prev_chunk_of[j]))
                led.sparse_flops += hi - lo
                led.columns += 1
                if unit_diag:
                    x[i] = acc
                else:
                    if diag == 0.0:
                        raise ZeroDivisionError(f"zero diagonal at row {i}")
                    x[i] = acc / diag
            tid = len(tasks)
            deps = sorted(dep_tasks)
            tasks.append(SimTask(
                tid=tid, ledger=led, deps=deps, thread=ci % n_threads,
                p2p_syncs=len(deps), label=f"lv{lv}/c{ci}",
                reads=[("x",) + task_keys[t] for t in deps],
                writes=[("x", lv, ci)],
            ))
            task_keys.append((lv, ci))
            prev_chunk_of[chunk] = tid
    return x, simulate(tasks, machine, n_threads)


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
