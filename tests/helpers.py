"""Shared test utilities: random matrix generators and SciPy bridges.

SciPy is used in the test suite only, as an independent oracle for the
from-scratch kernels in :mod:`repro`.
"""

from __future__ import annotations

from typing import List, Tuple

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


def level_replay(M: CSC, kind: str, b: np.ndarray, unit_diag: bool = False,
                 width: int = 4) -> np.ndarray:
    """Level-by-level oracle for ``TriangularSchedule.replay``.

    Levels ``M``'s columns by a Python loop over the pattern, then sweeps
    the levels: a level of at most ``width`` columns divides and then
    subtracts its updates one at a time, in column order; a wider level
    sums each row's updates, in column order, before it subtracts them.
    The sum is ``np.add.reduceat``'s, which adds the first term to the
    sum of the rest (``np.add.reduce`` rounds differently).  A block
    ``b`` of shape ``(n, k)`` is solved column by column.
    """
    n = M.n_cols
    lower = kind == "lower"
    col = np.repeat(np.arange(n), np.diff(M.indptr))
    rows, vals = M.indices, M.data
    prop = rows > col if lower else rows < col
    diag = np.full(n, -1)
    diag[col[rows == col]] = np.flatnonzero(rows == col)
    level = [0] * n
    for j in (range(n) if lower else range(n - 1, -1, -1)):
        for p in range(M.indptr[j], M.indptr[j + 1]):
            if prop[p]:
                level[rows[p]] = max(level[rows[p]], level[j] + 1)
    level = np.array(level, dtype=np.int64)
    # Per level: its columns, then its updates one at a time (row, entry,
    # source) or, for a wide level, each row's updates (row, entries).
    steps = []
    for s in range(int(level.max()) + 1 if n else 0):
        cols = np.flatnonzero(level == s)
        ents = np.flatnonzero(prop & (level[col] == s))  # column order
        if cols.size <= width:
            steps.append((cols, [(int(rows[p]), int(p), int(col[p])) for p in ents], None))
            continue
        ents = ents[np.argsort(rows[ents], kind="stable")]
        runs = np.split(ents, np.flatnonzero(np.diff(rows[ents])) + 1)
        steps.append((cols, None, [(int(rows[r[0]]), r) for r in runs if r.size]))

    def sweep(x):
        for cols, one_by_one, summed in steps:
            if not unit_diag:
                x[cols] /= vals[diag[cols]]
            if summed is None:
                for i, p, j in one_by_one:
                    x[i] -= vals[p] * x[j]
            else:
                for i, r in summed:
                    x[i] -= np.add.reduceat(vals[r] * x[col[r]], [0])[0]
        return x

    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        return sweep(b.copy())
    return np.column_stack([sweep(b[:, j].copy()) for j in range(b.shape[1])])


def basker_refactor_reference(A: CSC, numeric):
    """Per-block oracle for ``Basker.refactor_fast``.

    The loop the shared refactor plan replaced: permute ``A`` by the
    factorization's final permutations, refactor every nonempty coarse
    block on its own with ``gp_refactor`` (fixed pattern, identity pivot
    order), and rewrap fine and ND blocks.  Its values and per-block
    ledgers are what the one-replay path must reproduce exactly.
    """
    import dataclasses

    from repro.core.basker import BaskerNumeric, _block_store
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
        symbolic=sym, store=_block_store(sym.n_blocks, fine_lu, nd_numeric),
        row_perm=numeric.row_perm, col_perm=sym.col_perm,
        M=M, tasks=[], task_labels={}, ledger=total, nd_src=numeric.nd_src,
        overhead_ledger=total.copy(), _fine_lu=fine_lu, _nd_numeric=nd_numeric,
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


# ----------------------------------------------------------------------
# Oracles for the analysis graph kernels: nested dissection and the
# bottleneck matching as they were when they read their numpy arrays
# one scalar at a time.  The list-based kernels in repro.ordering.nd and
# repro.graph.matching must reproduce them exactly (partitions,
# matchings and bottlenecks); see tests/test_analysis_kernels.py.
# ----------------------------------------------------------------------


def _build_adjacency(B: CSC) -> List[np.ndarray]:
    adj = []
    for j in range(B.n_cols):
        rows, _ = B.col(j)
        adj.append(rows[rows != j].astype(np.int64))
    return adj


def _components(adj: List[np.ndarray], verts: np.ndarray, member: np.ndarray) -> List[np.ndarray]:
    """Connected components of the induced subgraph on ``verts``.

    ``member[v]`` must be True exactly for v in verts.
    """
    seen = set()
    comps = []
    vset_order = verts.tolist()
    for s in vset_order:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        head = 0
        while head < len(comp):
            v = comp[head]
            head += 1
            for w in adj[v]:
                w = int(w)
                if member[w] and w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(np.asarray(sorted(comp), dtype=np.int64))
    comps.sort(key=lambda c: -c.size)
    return comps


def _bfs_levels(adj: List[np.ndarray], member: np.ndarray, root: int) -> List[List[int]]:
    levels = [[root]]
    seen = {root}
    while True:
        nxt = []
        for v in levels[-1]:
            for w in adj[v]:
                w = int(w)
                if member[w] and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            return levels
        levels.append(sorted(nxt))


def _pseudo_peripheral(adj: List[np.ndarray], member: np.ndarray, start: int) -> int:
    """Double-BFS heuristic: the far end of a BFS is a good ND root."""
    levels = _bfs_levels(adj, member, start)
    return int(levels[-1][0])


def _min_cover_separator(
    adj: List[np.ndarray],
    left: List[int],
    right: List[int],
    member: np.ndarray,
) -> Tuple[List[int], List[int], List[int]]:
    """Turn an edge bisection into a vertex separator via König's theorem.

    The separator is a *minimum vertex cover* of the bipartite boundary
    graph (boundary-left vs boundary-right vertices), computed from a
    maximum matching by the alternating-reachability construction —
    provably the smallest vertex set whose removal disconnects the two
    sides of this cut.
    """
    lset, rset = set(left), set(right)
    bedges: dict[int, list] = {}
    for u in left:
        nbrs = [int(w) for w in adj[u] if member[w] and int(w) in rset]
        if nbrs:
            bedges[u] = nbrs
    if not bedges:
        return left, right, []

    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}

    def try_augment(u: int, seen: set) -> bool:
        for w in bedges.get(u, ()):
            if w in seen:
                continue
            seen.add(w)
            if w not in match_r or try_augment(match_r[w], seen):
                match_l[u] = w
                match_r[w] = u
                return True
        return False

    for u in list(bedges):
        if u not in match_l:
            try_augment(u, set())

    # König: Z = unmatched boundary-left + alternating reachability.
    z_left = {u for u in bedges if u not in match_l}
    z_right: set = set()
    frontier = list(z_left)
    while frontier:
        u = frontier.pop()
        for w in bedges.get(u, ()):
            if w not in z_right:
                z_right.add(w)
                if w in match_r and match_r[w] not in z_left:
                    z_left.add(match_r[w])
                    frontier.append(match_r[w])
    cover = ({u for u in bedges if u not in z_left}) | z_right
    new_left = [v for v in left if v not in cover]
    new_right = [v for v in right if v not in cover]
    return new_left, new_right, sorted(cover)


def _split_component(
    adj: List[np.ndarray], comp: np.ndarray, member: np.ndarray
) -> Tuple[List[int], List[int], List[int]]:
    """Split a connected component into (left, right, separator).

    A BFS ordering from a pseudo-peripheral vertex gives a 1-D
    embedding; the balanced cut of that ordering is an edge bisection,
    which König's construction turns into a minimum vertex separator
    for the cut.  This produces thin separators even when BFS *levels*
    are fat (long-range taps in circuit graphs).
    """
    if comp.size == 1:
        return [int(comp[0])], [], []
    root = _pseudo_peripheral(adj, member, int(comp[0]))
    levels = _bfs_levels(adj, member, root)
    bfs_order = [v for lv in levels for v in lv]
    n = len(bfs_order)
    # Two 1-D embeddings: the BFS sweep and the natural numbering
    # (circuit matrices usually carry locality in their original ids;
    # long-range taps can scramble the BFS order but not the ids).
    embeddings = [bfs_order, sorted(int(v) for v in comp)]
    # Search cut positions in the middle band of each embedding; König
    # gives each cut's minimum vertex separator, and the cost weights
    # separator size heavily (it becomes the serial column block of the
    # 2-D layout).
    best = None
    fracs = [0.3 + 0.4 * k / 8.0 for k in range(9)]  # 0.30 .. 0.70
    for order in embeddings:
        for frac in fracs:
            cut = max(1, min(n - 1, int(frac * n)))
            l, r, s = _min_cover_separator(adj, order[:cut], order[cut:], member)
            balanced = min(len(l), len(r)) >= 0.2 * n
            cost = max(len(l), len(r)) + 6 * len(s)
            if best is None or (balanced, -cost) > (best[0], -best[1]):
                best = (balanced, cost, l, r, s)
    _, _, left, right, sep = best

    # Greedy refinement: pull separator vertices with one-sided
    # adjacency into that side.  Membership sets keep the moves safe
    # (the invariant "no left-right edge" holds after every move).
    left_set, right_set = set(left), set(right)
    # Iterate to a fixed point: moving one vertex can make another
    # one-sided.  A vertex with neighbours on a single side always
    # leaves the separator (keeping it costs far more than imbalance).
    pending = list(sep)
    new_sep: list = []
    changed = True
    while changed:
        changed = False
        keep = []
        for s in pending:
            nbrs = [int(w) for w in adj[s] if member[w]]
            in_left = any(w in left_set for w in nbrs)
            in_right = any(w in right_set for w in nbrs)
            if in_left and in_right:
                keep.append(s)
            elif in_left and not in_right:
                left.append(s)
                left_set.add(s)
                changed = True
            elif in_right and not in_left:
                right.append(s)
                right_set.add(s)
                changed = True
            else:
                if len(left) <= len(right):
                    left.append(s)
                    left_set.add(s)
                else:
                    right.append(s)
                    right_set.add(s)
                changed = True
        pending = keep
    new_sep = pending
    return left, right, new_sep


def _bisect(
    adj: List[np.ndarray], verts: np.ndarray, n_global: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``verts`` into (left, right, separator) with no left-right edges."""
    member = np.zeros(n_global, dtype=bool)
    member[verts] = True
    comps = _components(adj, verts, member)
    if not comps:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    total = int(verts.size)
    if len(comps) > 1 and comps[0].size <= 0.6 * total:
        # Enough disconnection to bisect without any separator:
        # greedily bin-pack components into two sides.
        left, right, sep = [], [], []
        for comp in comps:
            if len(left) <= len(right):
                left.extend(int(v) for v in comp)
            else:
                right.extend(int(v) for v in comp)
    else:
        # Split the largest component; distribute the rest for balance.
        big = comps[0]
        member_big = np.zeros(n_global, dtype=bool)
        member_big[big] = True
        left, right, sep = _split_component(adj, big, member_big)
        for comp in comps[1:]:
            if len(left) <= len(right):
                left.extend(int(v) for v in comp)
            else:
                right.extend(int(v) for v in comp)
    return (
        np.asarray(sorted(left), dtype=np.int64),
        np.asarray(sorted(right), dtype=np.int64),
        np.asarray(sorted(sep), dtype=np.int64),
    )


def nested_dissection_reference(A: CSC, nleaves: int):
    """``repro.ordering.nd._nested_dissection`` on the helpers above."""
    from repro.graph.etree import symmetric_pattern
    from repro.ordering.nd import NDNode, NDPartition

    if A.n_rows != A.n_cols:
        raise StructureError("nested dissection requires a square matrix")
    if nleaves < 1 or (nleaves & (nleaves - 1)) != 0:
        raise StructureError("nleaves must be a power of two")
    n = A.n_rows
    B = symmetric_pattern(A) if n else A
    adj = _build_adjacency(B) if n else []

    nodes: List[NDNode] = []

    def build(verts: np.ndarray, height: int) -> int:
        if height == 0:
            node = NDNode(id=len(nodes), height=0, is_leaf=True, vertices=verts)
            nodes.append(node)
            return node.id
        left, right, sep = _bisect(adj, verts, n)
        lid = build(left, height - 1)
        rid = build(right, height - 1)
        node = NDNode(
            id=len(nodes), height=height, is_leaf=False, vertices=sep, children=(lid, rid)
        )
        nodes.append(node)
        nodes[lid].parent = node.id
        nodes[rid].parent = node.id
        return node.id

    height = int(np.log2(nleaves))
    all_verts = np.arange(n, dtype=np.int64)
    if nleaves == 1:
        nodes.append(NDNode(id=0, height=0, is_leaf=True, vertices=all_verts))
    else:
        build(all_verts, height)

    perm = np.concatenate([nd.vertices for nd in nodes]) if nodes else np.empty(0, dtype=np.int64)
    perm = perm.astype(np.int64)
    splits = np.zeros(len(nodes) + 1, dtype=np.int64)
    splits[1:] = np.cumsum([nd.size for nd in nodes])
    return NDPartition(perm=perm, nodes=nodes, splits=splits, nleaves=nleaves)


def _try_augment(
    j: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    threshold: float,
    match_row: np.ndarray,
    match_col: np.ndarray,
    visited: np.ndarray,
    stamp: int,
) -> bool:
    """Iterative DFS augmenting path from column ``j``.

    Only entries with ``|a| >= threshold`` are usable.  ``visited`` is a
    stamp array over columns.
    """
    # Stack holds (column, edge cursor).
    stack = [(j, int(indptr[j]))]
    visited[j] = stamp
    path_rows = []  # rows chosen along the DFS path, parallel to stack
    while stack:
        col, cursor = stack[-1]
        hi = int(indptr[col + 1])
        advanced = False
        while cursor < hi:
            r = int(indices[cursor])
            cursor += 1
            if abs(data[cursor - 1]) < threshold:
                continue
            owner = int(match_row[r])
            if owner == -1:
                # Augment along the path.
                stack[-1] = (col, cursor)
                path_rows.append(r)
                for (c, _), rr in zip(stack, path_rows):
                    match_row[rr] = c
                    match_col[c] = rr
                return True
            if visited[owner] != stamp:
                visited[owner] = stamp
                stack[-1] = (col, cursor)
                path_rows.append(r)
                stack.append((owner, int(indptr[owner])))
                advanced = True
                break
        if not advanced:
            stack.pop()
            if path_rows:
                path_rows.pop()
    return False


def max_cardinality_matching_reference(A: CSC, threshold: float = 0.0) -> Tuple[int, np.ndarray, np.ndarray]:
    """Maximum-cardinality column-to-row matching using entries >= threshold.

    Returns ``(size, match_col, match_row)`` where ``match_col[j]`` is
    the row matched to column ``j`` (or -1) and ``match_row[i]`` the
    column matched to row ``i`` (or -1).
    """
    n_rows, n_cols = A.shape
    match_row = np.full(n_rows, -1, dtype=np.int64)
    match_col = np.full(n_cols, -1, dtype=np.int64)
    visited = np.full(n_cols, -1, dtype=np.int64)
    size = 0
    # Cheap pass first: greedy assignment (classic MC21 speedup).
    for j in range(n_cols):
        lo, hi = int(A.indptr[j]), int(A.indptr[j + 1])
        for k in range(lo, hi):
            r = int(A.indices[k])
            if abs(A.data[k]) >= threshold and match_row[r] == -1:
                match_row[r] = j
                match_col[j] = r
                size += 1
                break
    # Augmenting pass.
    for j in range(n_cols):
        if match_col[j] == -1:
            if _try_augment(j, A.indptr, A.indices, A.data, threshold, match_row, match_col, visited, j):
                size += 1
    return size, match_col, match_row


def mwcm_reference(A: CSC) -> Tuple[np.ndarray, float]:
    """Bottleneck maximum weight-cardinality matching.

    Finds a maximum-cardinality matching whose smallest matched
    magnitude is as large as possible (binary search over the distinct
    entry magnitudes, re-running the matching at each threshold).

    Returns ``(match_col, bottleneck)`` where ``match_col[j]`` is the
    row matched to column ``j`` (-1 if the matrix is structurally
    deficient in that column) and ``bottleneck`` the achieved minimum
    matched magnitude.
    """
    if A.nnz == 0:
        return np.full(A.n_cols, -1, dtype=np.int64), 0.0
    full_size, match_col, _ = max_cardinality_matching_reference(A, threshold=0.0)

    mags = np.unique(np.abs(A.data))
    mags = mags[mags > 0.0]
    if mags.size == 0:
        return match_col, 0.0

    # Binary search for the largest threshold that still admits a
    # matching of the maximum cardinality.
    lo, hi = 0, mags.size - 1  # mags[lo] always feasible after check below
    size_lo, match_lo, _ = max_cardinality_matching_reference(A, threshold=float(mags[0]))
    if size_lo < full_size:
        # Even the smallest positive threshold loses cardinality
        # (explicit zeros were needed); keep the unthresholded matching.
        return match_col, 0.0
    best_match, best_t = match_lo, float(mags[0])
    while lo < hi:
        mid = (lo + hi + 1) // 2
        size_mid, match_mid, _ = max_cardinality_matching_reference(A, threshold=float(mags[mid]))
        if size_mid == full_size:
            lo = mid
            best_match, best_t = match_mid, float(mags[mid])
        else:
            hi = mid - 1
    return best_match, best_t


def mwcm_row_permutation_reference(A: CSC) -> np.ndarray:
    """``mwcm_row_permutation``'s fill loops on the oracle matching."""
    match_col, _ = mwcm_reference(A)
    n = A.n_rows
    p = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    for j in range(n):
        r = int(match_col[j])
        if r >= 0:
            p[j] = r
            used[r] = True
    free = np.flatnonzero(~used)
    k = 0
    for j in range(n):
        if p[j] == -1:
            p[j] = free[k]
            k += 1
    return p
