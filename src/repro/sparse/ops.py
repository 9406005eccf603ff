"""Sparse kernels operating on :class:`~repro.sparse.csc.CSC` matrices.

These are the numeric building blocks shared by every solver in the
package: dense-RHS triangular solves, sparse matrix-matrix products, and
the scatter/gather column operations used by the blocked factorization.

The dense-RHS triangular solves execute level-by-level through a
compiled :class:`~repro.sparse.schedule.TriangularSchedule` (cached on
the matrix object, so repeated solves against one factor compile once).
The original per-column loops remain as ``lower_solve_reference`` /
``upper_solve_reference`` — the oracles the vectorized versions are
property-tested against.
"""

from __future__ import annotations

import numpy as np

from ..contracts import domains, shapes
from ..errors import StructureError, ZeroPivotError
from .csc import CSC
from .schedule import triangular_schedule

__all__ = [
    "lower_solve",
    "upper_solve",
    "lower_solve_reference",
    "upper_solve_reference",
    "matmat",
    "scatter_column",
    "spmv_accumulate",
]


@domains(L="matrix[S]", b="vec[S]", returns="vec[S]")
@shapes(L="csc[r,c]", b="f8[c]", returns="f8[c]")
def lower_solve(L: CSC, b: np.ndarray, unit_diag: bool = True) -> np.ndarray:
    """Solve ``L x = b`` for dense ``b``, L lower triangular in CSC.

    With ``unit_diag`` the stored diagonal (if any) is ignored and taken
    to be 1; the LU factors produced by this package store L with an
    explicit unit diagonal, so the default matches them.

    Vectorized level-scheduled replay of :func:`lower_solve_reference`
    (same results up to summation order; same error behavior).
    """
    if L.n_rows != L.n_cols:
        return lower_solve_reference(L, b, unit_diag=unit_diag)
    return triangular_schedule(L, "lower").solve(L, b, unit_diag=unit_diag)


@domains(U="matrix[S]", b="vec[S]", returns="vec[S]")
@shapes(U="csc[r,c]", b="f8[c]", returns="f8[c]")
def upper_solve(U: CSC, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for dense ``b``, U upper triangular in CSC.

    Vectorized level-scheduled replay of :func:`upper_solve_reference`
    (same results up to summation order; same error behavior).
    """
    if U.n_rows != U.n_cols:
        return upper_solve_reference(U, b)
    return triangular_schedule(U, "upper").solve(U, b, unit_diag=False)


@domains(L="matrix[S]", b="vec[S]", returns="vec[S]")
@shapes(L="csc[r,c]", b="f8[c]", returns="f8[c]")
def lower_solve_reference(L: CSC, b: np.ndarray, unit_diag: bool = True) -> np.ndarray:
    """Reference per-column loop for :func:`lower_solve` (oracle)."""
    n = L.n_cols
    x = np.array(b, dtype=np.float64, copy=True)
    if x.shape != (n,):
        raise StructureError("dimension mismatch")
    for j in range(n):
        rows, vals = L.col(j)
        if rows.size == 0:
            if not unit_diag:
                raise ZeroPivotError(f"empty column {j} in lower solve", column=j)
            continue
        k = np.searchsorted(rows, j)
        has_diag = k < rows.size and rows[k] == j
        if not unit_diag:
            if not has_diag or vals[k] == 0.0:
                raise ZeroPivotError(f"zero diagonal at column {j}", column=j)
            x[j] /= vals[k]
        xj = x[j]
        if xj != 0.0:
            start = k + 1 if has_diag else k
            if start < rows.size:
                x[rows[start:]] -= vals[start:] * xj
    return x


@domains(U="matrix[S]", b="vec[S]", returns="vec[S]")
@shapes(U="csc[r,c]", b="f8[c]", returns="f8[c]")
def upper_solve_reference(U: CSC, b: np.ndarray) -> np.ndarray:
    """Reference per-column loop for :func:`upper_solve` (oracle)."""
    n = U.n_cols
    x = np.array(b, dtype=np.float64, copy=True)
    if x.shape != (n,):
        raise StructureError("dimension mismatch")
    for j in range(n - 1, -1, -1):
        rows, vals = U.col(j)
        k = np.searchsorted(rows, j)
        if k >= rows.size or rows[k] != j or vals[k] == 0.0:
            raise ZeroPivotError(f"zero diagonal at column {j}", column=j)
        x[j] /= vals[k]
        xj = x[j]
        if xj != 0.0 and k > 0:
            x[rows[:k]] -= vals[:k] * xj
    return x


@shapes(A="csc[m,k]", B="csc[k,p]", returns="csc[m,p]")
def matmat(A: CSC, B: CSC) -> CSC:
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


@shapes(A="csc[r,c]", j="scalar < cols(A)", work="f8[r]", mark="i8[r]")
def scatter_column(
    A: CSC, j: int, work: np.ndarray, mark: np.ndarray, stamp: int, pattern: list
) -> None:
    """Scatter column ``j`` of A into the dense work vector.

    ``mark[i] == stamp`` records that row ``i`` is already in
    ``pattern``; new rows are appended.  This is the standard sparse
    accumulator idiom used throughout the numeric kernels.
    """
    rows, vals = A.col(j)
    for t in range(rows.size):
        i = int(rows[t])
        if mark[i] != stamp:
            mark[i] = stamp
            work[i] = vals[t]
            pattern.append(i)
        else:
            work[i] += vals[t]


@shapes(A="csc[r,c]", xrows="i8[k] < cols(A)", xvals="f8[k]",
        work="f8[r]", mark="i8[r]")
def spmv_accumulate(
    A: CSC,
    xrows: np.ndarray,
    xvals: np.ndarray,
    work: np.ndarray,
    mark: np.ndarray,
    stamp: int,
    pattern: list,
    sign: float = -1.0,
) -> int:
    """Accumulate ``work += sign * A @ x`` for a sparse x.

    ``x`` is given by parallel arrays (row indices into A's column
    space, values).  Returns the number of multiply-add operations,
    which callers feed into their cost ledgers.
    """
    ops = 0
    for t in range(xrows.size):
        k = int(xrows[t])
        xv = xvals[t] * sign
        if xv == 0.0:
            continue
        arows, avals = A.col(k)
        ops += arows.size
        for s in range(arows.size):
            i = int(arows[s])
            if mark[i] != stamp:
                mark[i] = stamp
                work[i] = 0.0
                pattern.append(i)
            work[i] += avals[s] * xv
    return ops
