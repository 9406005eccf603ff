"""Shared test utilities: random matrix generators and SciPy bridges.

SciPy is used in the test suite only, as an independent oracle for the
from-scratch kernels in :mod:`repro`.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.errors import StructureError
from repro.graph.dfs import ReachWorkspace, topo_reach
from repro.parallel.ledger import CostLedger
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


# ----------------------------------------------------------------------
# Oracles for the vectorized kernels: the per-element loops they
# replaced, counting flops by pattern like every GP kernel.  The
# kernels must reproduce them bit for bit (values, patterns and
# ledgers); see tests/test_nd_kernels.py.
# ----------------------------------------------------------------------


def lower_offdiag_solve_reference(A_ki: CSC, U_ii: CSC, ledger: CostLedger) -> CSC:
    """Solve ``X @ U_ii = A_ki`` for the lower off-diagonal block.

    Column sweep: ``X(:,c) = (A(:,c) − Σ_{t<c, U(t,c)≠0} X(:,t) U(t,c))
    / U(c,c)``.  This is the "nonzero pattern discovered by parallel
    sparse matrix-vector multiplication" step of the leaf phase
    (Algorithm 4, line 5).
    """
    m, n = A_ki.shape
    if U_ii.n_cols != n:
        raise ValueError("dimension mismatch")
    work = np.zeros(m, dtype=np.float64)
    mark = np.full(m, -1, dtype=np.int64)
    xcols_rows: List[np.ndarray] = []
    xcols_vals: List[np.ndarray] = []
    indptr = np.zeros(n + 1, dtype=np.int64)
    for c in range(n):
        stamp = c
        pattern: List[int] = []
        arows, avals = A_ki.col(c)
        for t in range(arows.size):
            i = int(arows[t])
            mark[i] = stamp
            work[i] = avals[t]
            pattern.append(i)
        urows, uvals = U_ii.col(c)
        udiag = 0.0
        for t in range(urows.size):
            tt = int(urows[t])
            if tt == c:
                udiag = uvals[t]
                continue
            if tt > c:
                continue
            uv = uvals[t]
            xr = xcols_rows[tt]
            xv = xcols_vals[tt]
            ledger.sparse_flops += xr.size
            for s in range(xr.size):
                i = int(xr[s])
                if mark[i] != stamp:
                    mark[i] = stamp
                    work[i] = 0.0
                    pattern.append(i)
                work[i] -= xv[s] * uv
        if pattern and udiag == 0.0:
            raise ZeroDivisionError(f"zero diagonal U({c},{c}) in lower off-diagonal solve")
        pattern.sort()
        pr = np.asarray(pattern, dtype=np.int64)
        pv = work[pr] / udiag if pattern else np.empty(0, dtype=np.float64)
        ledger.sparse_flops += pr.size
        xcols_rows.append(pr)
        xcols_vals.append(pv)
        indptr[c + 1] = indptr[c] + pr.size
        if pr.size:
            ledger.columns += 1
    indices = np.concatenate(xcols_rows) if xcols_rows else np.empty(0, dtype=np.int64)
    data = np.concatenate(xcols_vals) if xcols_vals else np.empty(0, dtype=np.float64)
    ledger.mem_words += indices.size
    return CSC(m, n, indptr, indices, data)


def upper_offdiag_solve_reference(
    L_ii: CSC, A_ij: CSC, ws: ReachWorkspace, ledger: CostLedger
) -> CSC:
    """Solve ``L_ii @ X = A_ij`` (rows of A already in pivoted order).

    Per-column Gilbert–Peierls backsolve: reach DFS over the completed
    ``L_ii`` graph for the pattern, then the sparse triangular solve in
    topological order (Algorithm 4, lines 14/20).
    """
    n_i = L_ii.n_cols
    m, n = A_ij.shape
    if m != n_i:
        raise ValueError("dimension mismatch")
    x = np.zeros(n_i, dtype=np.float64)
    out_rows: List[np.ndarray] = []
    out_vals: List[np.ndarray] = []
    indptr = np.zeros(n + 1, dtype=np.int64)
    xi = ws.xi
    for c in range(n):
        arows, avals = A_ij.col(c)
        if arows.size == 0:
            indptr[c + 1] = indptr[c]
            continue
        ws.next_stamp()
        top, steps = topo_reach(L_ii.indptr, L_ii.indices, arows, None, ws)
        ledger.dfs_steps += steps + arows.size
        pat = xi[top:n_i]
        x[pat] = 0.0
        x[arows] = avals
        for t in range(top, n_i):
            j = int(xi[t])
            lo, hi = int(L_ii.indptr[j]), int(L_ii.indptr[j + 1])
            ledger.sparse_flops += hi - lo - 1  # counted by pattern
            xj = x[j]
            if xj == 0.0:
                continue
            rows_view = L_ii.indices[lo + 1 : hi]  # first entry is the unit pivot
            x[rows_view] -= L_ii.data[lo + 1 : hi] * xj
        pat_sorted = np.sort(pat)
        out_rows.append(pat_sorted.copy())
        out_vals.append(x[pat_sorted].copy())
        indptr[c + 1] = indptr[c] + pat_sorted.size
        ledger.columns += 1
    indices = np.concatenate(out_rows) if out_rows else np.empty(0, dtype=np.int64)
    data = np.concatenate(out_vals) if out_vals else np.empty(0, dtype=np.float64)
    ledger.mem_words += indices.size
    return CSC(n_i, n, indptr, indices, data)


def sparse_product_reference(L_ms: CSC, U_sj: CSC, ledger: CostLedger) -> CSC:
    """Column-accumulated sparse product ``L_ms @ U_sj``.

    One contributing thread's share of a reduction: the "multiple
    parallel sparse matrix-vector multiplication" phase of Figure 4(d).
    """
    m = L_ms.n_rows
    n = U_sj.n_cols
    work = np.zeros(m, dtype=np.float64)
    mark = np.full(m, -1, dtype=np.int64)
    out_rows: List[np.ndarray] = []
    out_vals: List[np.ndarray] = []
    indptr = np.zeros(n + 1, dtype=np.int64)
    for c in range(n):
        stamp = c
        pattern: List[int] = []
        urows, uvals = U_sj.col(c)
        for t in range(urows.size):
            k = int(urows[t])
            lo, hi = int(L_ms.indptr[k]), int(L_ms.indptr[k + 1])
            ledger.sparse_flops += hi - lo  # counted by pattern
            uv = uvals[t]
            if uv == 0.0:
                continue
            for s in range(lo, hi):
                i = int(L_ms.indices[s])
                if mark[i] != stamp:
                    mark[i] = stamp
                    work[i] = 0.0
                    pattern.append(i)
                work[i] += L_ms.data[s] * uv
        pattern.sort()
        pr = np.asarray(pattern, dtype=np.int64)
        out_rows.append(pr)
        out_vals.append(work[pr].copy())
        indptr[c + 1] = indptr[c] + pr.size
        if pr.size:
            ledger.columns += 1
    indices = np.concatenate(out_rows) if out_rows else np.empty(0, dtype=np.int64)
    data = np.concatenate(out_vals) if out_vals else np.empty(0, dtype=np.float64)
    ledger.mem_words += indices.size
    return CSC(m, n, indptr, indices, data)


def subtract_products_reference(A_mj: CSC, prods: List[CSC], ledger: CostLedger) -> CSC:
    """``Â = A − Σ prods``: the combine phase of the reduction.

    Pure scatter-add traffic (no multiplies) — cheap relative to the
    product phase, which is why distributing the products pays off.
    """
    m, n = A_mj.shape
    work = np.zeros(m, dtype=np.float64)
    mark = np.full(m, -1, dtype=np.int64)
    out_rows: List[np.ndarray] = []
    out_vals: List[np.ndarray] = []
    indptr = np.zeros(n + 1, dtype=np.int64)
    for c in range(n):
        stamp = c
        pattern: List[int] = []
        arows, avals = A_mj.col(c)
        for t in range(arows.size):
            i = int(arows[t])
            mark[i] = stamp
            work[i] = avals[t]
            pattern.append(i)
        for P in prods:
            prows, pvals = P.col(c)
            ledger.mem_words += prows.size
            for t in range(prows.size):
                i = int(prows[t])
                if mark[i] != stamp:
                    mark[i] = stamp
                    work[i] = 0.0
                    pattern.append(i)
                work[i] -= pvals[t]
        pattern.sort()
        pr = np.asarray(pattern, dtype=np.int64)
        out_rows.append(pr)
        out_vals.append(work[pr].copy())
        indptr[c + 1] = indptr[c] + pr.size
    indices = np.concatenate(out_rows) if out_rows else np.empty(0, dtype=np.int64)
    data = np.concatenate(out_vals) if out_vals else np.empty(0, dtype=np.float64)
    return CSC(m, n, indptr, indices, data)


def submatrix_reference(self: CSC, r0: int, r1: int, c0: int, c1: int) -> CSC:
    """Extract the contiguous block ``A[r0:r1, c0:c1]``.

    Contiguous extraction is the common case in Basker: after the
    BTF/ND reorderings every 2-D block is an index range.
    """
    if not (0 <= r0 <= r1 <= self.n_rows and 0 <= c0 <= c1 <= self.n_cols):
        raise StructureError("block bounds out of range")
    ncols = c1 - c0
    indptr = np.zeros(ncols + 1, dtype=np.int64)
    chunks_idx = []
    chunks_val = []
    for j in range(c0, c1):
        lo, hi = self.indptr[j], self.indptr[j + 1]
        rows = self.indices[lo:hi]
        a = np.searchsorted(rows, r0)
        b = np.searchsorted(rows, r1)
        indptr[j - c0 + 1] = indptr[j - c0] + (b - a)
        if b > a:
            chunks_idx.append(rows[a:b] - r0)
            chunks_val.append(self.data[lo + a : lo + b])
    if chunks_idx:
        indices = np.concatenate(chunks_idx)
        data = np.concatenate(chunks_val)
    else:
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float64)
    return CSC(r1 - r0, ncols, indptr, indices, data)


def permute_reference(self: CSC, row_perm=None, col_perm=None) -> CSC:
    """Return ``B`` with ``B[i, j] = A[row_perm[i], col_perm[j]]``.

    This is the NumPy fancy-index convention ``A[p][:, q]``.  Either
    permutation may be None (identity).  Columns are copied one at a
    time in a Python loop.
    """
    a = self
    if col_perm is not None:
        q = np.asarray(col_perm, dtype=np.int64)
        counts = np.diff(a.indptr)[q]
        indptr = np.zeros(a.n_cols + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(counts)
        indices = np.empty(a.nnz, dtype=np.int64)
        data = np.empty(a.nnz, dtype=np.float64)
        for newj, oldj in enumerate(q):
            lo, hi = a.indptr[oldj], a.indptr[oldj + 1]
            nlo = indptr[newj]
            indices[nlo : nlo + (hi - lo)] = a.indices[lo:hi]
            data[nlo : nlo + (hi - lo)] = a.data[lo:hi]
        a = CSC(a.n_rows, a.n_cols, indptr, indices, data)
    if row_perm is not None:
        p = np.asarray(row_perm, dtype=np.int64)
        # inverse map: old row r appears at new position inv[r]
        inv = np.empty(a.n_rows, dtype=np.int64)
        inv[p] = np.arange(a.n_rows)
        indices = inv[a.indices]
        a = CSC(a.n_rows, a.n_cols, a.indptr.copy(), indices, a.data.copy())
        a = a.sort_indices()
    elif col_perm is None:
        a = a.copy()
    return a


def matmat_reference(A: CSC, B: CSC) -> CSC:
    """Sparse product ``A @ B`` using a dense accumulator per column."""
    if A.n_cols != B.n_rows:
        raise StructureError("dimension mismatch")
    acc = np.zeros(A.n_rows, dtype=np.float64)
    mark = np.full(A.n_rows, -1, dtype=np.int64)
    indptr = np.zeros(B.n_cols + 1, dtype=np.int64)
    out_rows, out_vals = [], []
    for j in range(B.n_cols):
        brows, bvals = B.col(j)
        pattern = []
        for t in range(brows.size):
            k = brows[t]
            bv = bvals[t]
            arows, avals = A.col(int(k))
            for s in range(arows.size):
                i = int(arows[s])
                if mark[i] != j:
                    mark[i] = j
                    acc[i] = 0.0
                    pattern.append(i)
                acc[i] += avals[s] * bv
        pattern.sort()
        indptr[j + 1] = indptr[j] + len(pattern)
        if pattern:
            p = np.asarray(pattern, dtype=np.int64)
            out_rows.append(p)
            out_vals.append(acc[p].copy())
    if out_rows:
        indices = np.concatenate(out_rows)
        data = np.concatenate(out_vals)
    else:
        indices = np.empty(0, dtype=np.int64)
        data = np.empty(0, dtype=np.float64)
    return CSC(A.n_rows, B.n_cols, indptr, indices, data)


# ----------------------------------------------------------------------
# Oracles for the shared BTF front end: KLU's and Basker's analyses as
# they were before both called repro.solvers.klu.btf_permuted and
# amd_blocks, each with its own BTF and per-block AMD loops.
# ----------------------------------------------------------------------


def klu_analyze_reference(A: CSC):
    """``KLU.analyze``'s own loop: BTF, then AMD folded into both
    permutations block by block."""
    from repro.ordering.amd import amd_order
    from repro.ordering.btf import btf
    from repro.solvers.klu import KLUSymbolic

    led = CostLedger()
    res = btf(A)
    led.dfs_steps += A.nnz
    B = A.permute(res.row_perm, res.col_perm)
    row_pre = res.row_perm.copy()
    col_perm = res.col_perm.copy()
    splits = res.block_splits
    for k in range(res.n_blocks):
        lo, hi = int(splits[k]), int(splits[k + 1])
        if hi - lo <= 1:
            continue
        blk = B.submatrix(lo, hi, lo, hi)
        p = amd_order(blk)
        led.dfs_steps += 4 * blk.nnz
        row_pre[lo:hi] = row_pre[lo:hi][p]
        col_perm[lo:hi] = col_perm[lo:hi][p]
    return KLUSymbolic(n=A.n_rows, btf_result=res, row_perm_pre=row_pre,
                       col_perm=col_perm, ledger=led)


def basker_analyze_reference(A: CSC, n_threads: int):
    """``core.symbolic.analyze``'s own copy of the front end: BTF, AMD
    inside the fine-block estimate loop, and a per-ND-node AMD loop."""
    from repro.core.structure import BaskerSymbolic, FineBTFPlan
    from repro.core.symbolic import DEFAULT_ND_THRESHOLD, _nd_block_symbolic
    from repro.graph.etree import etree, symbolic_cholesky_counts, symmetric_pattern
    from repro.graph.matching import mwcm_row_permutation
    from repro.ordering.amd import amd_order
    from repro.ordering.btf import btf
    from repro.ordering.nd import nested_dissection
    from repro.ordering.perm import compose

    ledger = CostLedger()
    res = btf(A)
    ledger.dfs_steps += A.nnz
    B = A.permute(res.row_perm, res.col_perm)
    row_pre = res.row_perm.copy()
    col_perm = res.col_perm.copy()
    splits = res.block_splits
    fine_ids, nd_ids = [], []
    for b in range(res.n_blocks):
        big = int(splits[b + 1] - splits[b]) >= DEFAULT_ND_THRESHOLD and n_threads > 1
        (nd_ids if big else fine_ids).append(b)

    fine_plan = None
    if fine_ids:
        est_nnz, est_ops = [], []
        for b in fine_ids:
            lo, hi = int(splits[b]), int(splits[b + 1])
            nb = hi - lo
            if nb == 1:
                est_nnz.append(1)
                est_ops.append(1.0)
                continue
            blk = B.submatrix(lo, hi, lo, hi)
            p = amd_order(blk)
            ledger.dfs_steps += 4 * blk.nnz
            row_pre[lo:hi] = row_pre[lo:hi][p]
            col_perm[lo:hi] = col_perm[lo:hi][p]
            sym = symmetric_pattern(blk.permute(p, p))
            counts = symbolic_cholesky_counts(sym, etree(sym))
            ledger.dfs_steps += int(counts.sum())
            est_nnz.append(int(2 * counts.sum() - nb))
            est_ops.append(float((counts.astype(np.float64) ** 2).sum()))
        loads = [0.0] * n_threads
        thread_of = [0] * len(fine_ids)
        for i in sorted(range(len(fine_ids)), key=lambda i: -est_ops[i]):
            t = min(range(n_threads), key=lambda k: loads[k])
            thread_of[i] = t
            loads[t] += est_ops[i]
        fine_plan = FineBTFPlan(block_ids=list(fine_ids), est_nnz=est_nnz,
                                est_ops=est_ops, thread_of=thread_of)

    nd_plans = []
    for b in nd_ids:
        lo, hi = int(splits[b]), int(splits[b + 1])
        Dblk = B.submatrix(lo, hi, lo, hi)
        pm2 = mwcm_row_permutation(Dblk)
        D1 = Dblk.permute(row_perm=pm2)
        ledger.dfs_steps += 2 * Dblk.nnz
        part = nested_dissection(D1, nleaves=n_threads)
        q = part.perm
        D2 = D1.permute(q, q)
        r = np.arange(Dblk.n_rows, dtype=np.int64)
        for t in range(part.n_nodes):
            t0, t1 = part.node_range(t)
            if t1 - t0 > 1:
                blk = D2.submatrix(t0, t1, t0, t1)
                pa = amd_order(blk)
                ledger.dfs_steps += 4 * blk.nnz
                r[t0:t1] = r[t0:t1][pa]
        local_row = compose(compose(pm2, q), r)
        local_col = compose(q, r)
        D3 = Dblk.permute(local_row, local_col)
        row_pre[lo:hi] = row_pre[lo:hi][local_row]
        col_perm[lo:hi] = col_perm[lo:hi][local_col]
        nd_plans.append(_nd_block_symbolic(D3, part, b, lo, n_threads, ledger))
    return BaskerSymbolic(n=A.n_rows, n_threads=n_threads, btf_result=res,
                          row_perm_pre=row_pre, col_perm=col_perm,
                          fine_plan=fine_plan, nd_plans=nd_plans, ledger=ledger)
