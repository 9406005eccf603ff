"""Sparse kernels operating on :class:`~repro.sparse.csc.CSC` matrices.

These are the numeric building blocks shared by every solver in the
package: dense-RHS triangular solves and the sparse matrix-matrix
product (which Basker's reduction kernels also run on).

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
]


@domains(L="matrix[S]", b="vec[S]", returns="vec[S]")
@shapes(L="csc[r,c]", b="f8[c]", returns="f8[c]")
def lower_solve(L: CSC, b: np.ndarray, unit_diag: bool = True) -> np.ndarray:
    """Solve ``L x = b`` for dense ``b``, L lower triangular in CSC.

    With ``unit_diag`` the stored diagonal (if any) is ignored and taken
    to be 1; the LU factors produced by this package store L with an
    explicit unit diagonal, so the default matches them.

    Vectorized level-scheduled replay of :func:`lower_solve_reference`
    (same results up to summation order; same error behavior on a
    square ``L``).  A non-square ``L`` raises :class:`StructureError`.
    """
    if L.n_rows != L.n_cols:
        raise StructureError(f"lower solve needs a square L, got {L.n_rows}x{L.n_cols}")
    return triangular_schedule(L, "lower").solve(L, b, unit_diag=unit_diag)


@domains(U="matrix[S]", b="vec[S]", returns="vec[S]")
@shapes(U="csc[r,c]", b="f8[c]", returns="f8[c]")
def upper_solve(U: CSC, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for dense ``b``, U upper triangular in CSC.

    Vectorized level-scheduled replay of :func:`upper_solve_reference`
    (same results up to summation order; same error behavior on a
    square ``U``).  A non-square ``U`` raises :class:`StructureError`.
    """
    if U.n_rows != U.n_cols:
        raise StructureError(f"upper solve needs a square U, got {U.n_rows}x{U.n_cols}")
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


# Most product terms one pass of :func:`matmat` expands: longer products
# run in chunks of B's entries, carrying the partial sums of a column
# that straddles two chunks.  Bounds the kernel's scratch memory.
_EXPAND_CAP = 1 << 16


@shapes(A="csc[m,k]", B="csc[k,p]", returns="csc[m,p]")
def matmat(A: CSC, B: CSC) -> CSC:
    """Sparse product ``A @ B``, bit-identical to a dense-accumulator
    column loop.

    The terms ``A(i,k) B(k,j)`` are expanded in that loop's order (B's
    columns, then each column's entries, then column ``k`` of A top to
    bottom), keyed by (column, row), and summed per key by
    ``np.bincount``, which adds its weights in input order starting
    from 0.0 — the loop's own sums.  A pass expands at most
    ``_EXPAND_CAP`` terms (one column of A is never split); the open
    column's partial sums lead the next pass's terms, and ``0.0 + s ==
    s`` because a bincount sum is never -0.0.  Every term is kept, so
    cancellation leaves a stored 0.0.
    """
    if A.n_cols != B.n_rows:
        raise StructureError("dimension mismatch")
    m, p = A.n_rows, B.n_cols
    Ap, Ai, Ax = A.indptr, A.indices, A.data
    Bi, Bx = B.indices, B.data
    lens = np.diff(Ap)[Bi]  # terms expanded from each entry of B
    ends = np.cumsum(lens)
    if not ends.size or ends[-1] == 0:
        return CSC.empty(m, p)
    bcol = np.repeat(np.arange(p, dtype=np.int64), np.diff(B.indptr))
    keys_out, sums_out = [], []
    carry_k = np.empty(0, dtype=np.int64)
    carry_s = np.empty(0, dtype=np.float64)
    e0 = 0
    while e0 < Bi.size:
        t0 = int(ends[e0] - lens[e0])
        e1 = max(e0 + 1, int(np.searchsorted(ends, t0 + _EXPAND_CAP, side="right")))
        ln = lens[e0:e1]
        src = np.repeat(np.arange(e0, e1, dtype=np.int64), ln)
        pos = np.arange(int(ends[e1 - 1]) - t0, dtype=np.int64)
        pos += np.repeat(Ap[Bi[e0:e1]] - (ends[e0:e1] - ln - t0), ln)
        keys = np.concatenate((carry_k, bcol[src] * m + Ai[pos]))
        terms = np.concatenate((carry_s, Ax[pos] * Bx[src]))
        uk, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv, weights=terms, minlength=uk.size)
        # The column of the next entry is still open: carry it.
        cut = uk.size if e1 == Bi.size else int(np.searchsorted(uk, bcol[e1] * m))
        carry_k, carry_s = uk[cut:], sums[cut:]
        keys_out.append(uk[:cut])
        sums_out.append(sums[:cut])
        e0 = e1
    keys = np.concatenate(keys_out)
    indptr = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // m, minlength=p), out=indptr[1:])
    return CSC(m, p, indptr, keys % m, np.concatenate(sums_out))
