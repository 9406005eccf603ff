"""Compressed-sparse-column matrix container.

This is the storage substrate used throughout the Basker reproduction.
Basker stores both the input matrix and the LU factors as a hierarchy of
CSC blocks (paper, section IV "Data Layout"), so the container here is
deliberately minimal and predictable: three NumPy arrays (``indptr``,
``indices``, ``data``) with row indices sorted within each column.

The class is self-contained (no SciPy dependency); SciPy is used only in
the test suite as an independent oracle.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..contracts import domains, shapes
from ..errors import StructureError

__all__ = ["CSC"]


@shapes(starts="i8[m]", counts="i8[m]")
def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without a Python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum0 = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts - cum0, counts) + np.arange(total, dtype=np.int64)


class CSC:
    """A sparse matrix in compressed-sparse-column format.

    Invariants (enforced by :meth:`check`):

    * ``indptr`` has length ``n_cols + 1``, starts at 0, is nondecreasing
      and ends at ``nnz``.
    * ``indices[indptr[j]:indptr[j+1]]`` holds the row indices of column
      ``j`` in strictly increasing order (no duplicates).
    * ``data`` is aligned with ``indices``.

    Explicitly stored zeros are allowed (they arise naturally from
    numerical cancellation during factorization).
    """

    # ``_solve_schedules`` caches compiled triangular-solve schedules
    # (see :mod:`repro.sparse.schedule`); patterns are immutable by
    # convention, so the cache is valid for the object's lifetime.
    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_solve_schedules")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CSC":
        """An all-zero matrix with the given shape."""
        return cls(
            n_rows,
            n_cols,
            np.zeros(n_cols + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def identity(cls, n: int, scale: float = 1.0) -> "CSC":
        """The ``n`` x ``n`` identity matrix (optionally scaled)."""
        return cls(
            n,
            n,
            np.arange(n + 1, dtype=np.int64),
            np.arange(n, dtype=np.int64),
            np.full(n, float(scale)),
        )

    @classmethod
    def from_coo(
        cls,
        rows: Iterable[int],
        cols: Iterable[int],
        vals: Iterable[float],
        shape: Tuple[int, int],
        sum_duplicates: bool = True,
    ) -> "CSC":
        """Build from coordinate triplets.

        Duplicate entries are summed (the natural semantics for
        finite-element / circuit-stamp assembly) unless
        ``sum_duplicates`` is False, in which case the last value wins.
        """
        n_rows, n_cols = shape
        r = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.int64)
        c = np.asarray(list(cols) if not isinstance(cols, np.ndarray) else cols, dtype=np.int64)
        v = np.asarray(list(vals) if not isinstance(vals, np.ndarray) else vals, dtype=np.float64)
        if not (r.shape == c.shape == v.shape):
            raise StructureError("rows, cols, vals must have the same length")
        if r.size and (r.min() < 0 or r.max() >= n_rows):
            raise StructureError("row index out of range")
        if c.size and (c.min() < 0 or c.max() >= n_cols):
            raise StructureError("column index out of range")

        # Sort by (col, row); stable so later duplicates stay later.
        order = np.lexsort((r, c))
        r, c, v = r[order], c[order], v[order]

        if r.size:
            new_group = np.empty(r.size, dtype=bool)
            new_group[0] = True
            new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            if sum_duplicates:
                group_id = np.cumsum(new_group) - 1
                n_groups = int(group_id[-1]) + 1
                vv = np.zeros(n_groups, dtype=np.float64)
                np.add.at(vv, group_id, v)
                r, c, v = r[new_group], c[new_group], vv
            else:
                # Keep the last duplicate: reverse, keep first, re-reverse.
                keep = np.zeros(r.size, dtype=bool)
                last_of_group = np.empty(r.size, dtype=bool)
                last_of_group[:-1] = new_group[1:]
                last_of_group[-1] = True
                keep[:] = last_of_group
                r, c, v = r[keep], c[keep], v[keep]

        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.add.at(indptr, c + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_rows, n_cols, indptr, r, v)

    @classmethod
    def from_dense(cls, a: np.ndarray, drop_tol: float = 0.0) -> "CSC":
        """Build from a dense array, dropping entries with |a| <= drop_tol
        (a NaN entry is kept, so a solver can report it)."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise StructureError("expected a 2-D array")
        mask = ~(np.abs(a) <= drop_tol)
        r, c = np.nonzero(mask)
        return cls.from_coo(r, c, a[r, c], a.shape)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @shapes(self="csc[r,c]", j="scalar < c")
    def col(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the (row-indices, values) of column ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self, j: int) -> int:
        return int(self.indptr[j + 1] - self.indptr[j])

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (zeros where unstored)."""
        d = np.zeros(min(self.n_rows, self.n_cols), dtype=np.float64)
        for j in range(d.size):
            rows, vals = self.col(j)
            k = np.searchsorted(rows, j)
            if k < rows.size and rows[k] == j:
                d[j] = vals[k]
        return d

    def get(self, i: int, j: int) -> float:
        """Value at (i, j); 0.0 if not stored. O(log col_nnz)."""
        rows, vals = self.col(j)
        k = np.searchsorted(rows, i)
        if k < rows.size and rows[k] == i:
            return float(vals[k])
        return 0.0

    # ------------------------------------------------------------------
    # Structure manipulation
    # ------------------------------------------------------------------
    @shapes(self="csc[r,c]", returns="csc[r,c]")
    def copy(self) -> "CSC":
        return CSC(self.n_rows, self.n_cols, self.indptr.copy(), self.indices.copy(), self.data.copy())

    @shapes(self="csc[r,c]", returns="csc[r,c]")
    def sort_indices(self) -> "CSC":
        """Return a copy with row indices sorted within each column.

        One stable ``lexsort`` over (column, row) — equivalent to a
        stable per-column argsort (duplicates keep their relative
        order), without the per-column Python loop.
        """
        indptr = self.indptr
        col_of = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(indptr))
        order = np.lexsort((self.indices, col_of))
        return CSC(self.n_rows, self.n_cols, indptr.copy(),
                   self.indices[order], self.data[order])

    @shapes(self="csc[r,c]", returns="csc[r,c]")
    def drop_zeros(self, tol: float = 0.0) -> "CSC":
        """Return a copy without entries of magnitude <= ``tol``."""
        keep = np.abs(self.data) > tol
        new_indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        col_of = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        kept_cols = col_of[keep]
        np.add.at(new_indptr, kept_cols + 1, 1)
        np.cumsum(new_indptr, out=new_indptr)
        return CSC(self.n_rows, self.n_cols, new_indptr, self.indices[keep], self.data[keep])

    @shapes(self="csc[r,c]", returns="csc[c,r]")
    def transpose(self) -> "CSC":
        """The transpose, also in CSC (equivalently, this matrix in CSR)."""
        n_rows, n_cols = self.n_rows, self.n_cols
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        col_of = np.repeat(np.arange(n_cols), np.diff(self.indptr))
        # Stable sort by input row keeps input-column order within each
        # output column, so the result is sorted without a second pass.
        order = np.argsort(self.indices, kind="stable")
        return CSC(n_cols, n_rows, indptr, col_of[order], self.data[order])

    @domains(row_perm="perm[A->B]", col_perm="perm[C->D]")
    @shapes(self="csc[r,c]", returns="csc[r,c]")
    def permute(self, row_perm: np.ndarray | None = None, col_perm: np.ndarray | None = None) -> "CSC":
        """Return ``B`` with ``B[i, j] = A[row_perm[i], col_perm[j]]``.

        This is the NumPy fancy-index convention ``A[p][:, q]``.  Either
        permutation may be None (identity).
        """
        a = self
        if col_perm is not None:
            q = np.asarray(col_perm, dtype=np.int64)
            counts = np.diff(a.indptr)[q]
            indptr = np.zeros(a.n_cols + 1, dtype=np.int64)
            indptr[1:] = np.cumsum(counts)
            src = _concat_ranges(a.indptr[q], counts)
            a = CSC(a.n_rows, a.n_cols, indptr, a.indices[src], a.data[src])
        if row_perm is not None:
            p = np.asarray(row_perm, dtype=np.int64)
            # inverse map: old row r appears at new position inv[r]
            inv = np.empty(a.n_rows, dtype=np.int64)
            inv[p] = np.arange(a.n_rows)
            indices = inv[a.indices]
            a = CSC(a.n_rows, a.n_cols, a.indptr.copy(), indices, a.data.copy())
            a = a.sort_indices()
        elif col_perm is not None:
            pass  # row order within columns unchanged, still sorted
        else:
            a = a.copy()
        return a

    @domains(returns="matrix[local:block]")
    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "CSC":
        """Extract the contiguous block ``A[r0:r1, c0:c1]``.

        Contiguous extraction is the common case in Basker: after the
        BTF/ND reorderings every 2-D block is an index range.  The column
        range is one slice; its rows are masked to ``[r0, r1)``.
        """
        if not (0 <= r0 <= r1 <= self.n_rows and 0 <= c0 <= c1 <= self.n_cols):
            raise StructureError("block bounds out of range")
        lo, hi = int(self.indptr[c0]), int(self.indptr[c1])
        rows = self.indices[lo:hi]
        keep = (rows >= r0) & (rows < r1)
        kept = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return CSC(r1 - r0, c1 - c0, kept[self.indptr[c0:c1 + 1] - lo],
                   rows[keep] - r0, self.data[lo:hi][keep])

    @domains(rows="index[R]", cols="index[C]", returns="matrix[local:block]")
    @shapes(self="csc[r,c]", rows="i8[p] unique < r", cols="i8[q] < c", returns="csc[p,q]")
    def extract(self, rows: np.ndarray, cols: np.ndarray) -> "CSC":
        """General (non-contiguous) submatrix ``A[np.ix_(rows, cols)]``."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        pos = np.full(self.n_rows, -1, dtype=np.int64)
        pos[rows] = np.arange(rows.size)
        out_r, out_c, out_v = [], [], []
        for newj, oldj in enumerate(cols):
            ri, vv = self.col(oldj)
            sel = pos[ri] >= 0
            if np.any(sel):
                out_r.append(pos[ri[sel]])
                out_c.append(np.full(int(sel.sum()), newj, dtype=np.int64))
                out_v.append(vv[sel])
        if out_r:
            return CSC.from_coo(
                np.concatenate(out_r), np.concatenate(out_c), np.concatenate(out_v),
                (rows.size, cols.size), sum_duplicates=False,
            )
        return CSC.empty(rows.size, cols.size)

    # ------------------------------------------------------------------
    # Numeric helpers
    # ------------------------------------------------------------------
    @shapes(self="csc[r,c]", returns="f8[r,c]")
    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        col_of = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        np.add.at(out, (self.indices, col_of), self.data)
        return out

    @shapes(self="csc[r,c]", x="f8[c]", returns="f8[r]")
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise StructureError(f"x has shape {x.shape}, expected ({self.n_cols},)")
        y = np.zeros(self.n_rows, dtype=np.float64)
        col_of = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        np.add.at(y, self.indices, self.data * x[col_of])
        return y

    @shapes(self="csc[r,c]", x="f8[r]", returns="f8[c]")
    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_rows,):
            raise StructureError(f"x has shape {x.shape}, expected ({self.n_rows},)")
        col_of = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        y = np.zeros(self.n_cols, dtype=np.float64)
        np.add.at(y, col_of, self.data * x[self.indices])
        return y

    @shapes(self="csc[r,c]", returns="csc[r,c]")
    def scale(self, alpha: float) -> "CSC":
        out = self.copy()
        out.data *= alpha
        return out

    @shapes(self="csc[r,c]", other="csc[r,c]", returns="csc[r,c]")
    def add(self, other: "CSC") -> "CSC":
        """Entrywise sum (structural union)."""
        if self.shape != other.shape:
            raise StructureError("shape mismatch")
        col_a = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        col_b = np.repeat(np.arange(other.n_cols), np.diff(other.indptr))
        return CSC.from_coo(
            np.concatenate([self.indices, other.indices]),
            np.concatenate([col_a, col_b]),
            np.concatenate([self.data, other.data]),
            self.shape,
        )

    def fro_norm(self) -> float:
        return float(np.sqrt(np.sum(self.data**2)))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def one_norm(self) -> float:
        """Maximum absolute column sum."""
        if self.nnz == 0:
            return 0.0
        col_of = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        sums = np.zeros(self.n_cols)
        np.add.at(sums, col_of, np.abs(self.data))
        return float(sums.max())

    # ------------------------------------------------------------------
    # Invariants / dunder
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Validate every structural invariant, raising
        :class:`~repro.errors.StructureError` on the first violation.

        Checked: ``indptr`` is int64 of shape ``(n_cols + 1,)``, starts
        at 0, is nondecreasing and ends at ``nnz``; ``indices`` is int64
        and aligned with float64 ``data``; row indices lie in
        ``[0, n_rows)`` and are strictly increasing within each column.
        All checks are vectorized (no per-column Python loop), so this
        is cheap enough to run on every loader/verifier path.
        """
        if self.indptr.dtype != np.int64:
            raise StructureError(f"indptr dtype is {self.indptr.dtype}, expected int64")
        if self.indices.dtype != np.int64:
            raise StructureError(f"indices dtype is {self.indices.dtype}, expected int64")
        if self.data.dtype != np.float64:
            raise StructureError(f"data dtype is {self.data.dtype}, expected float64")
        if self.indptr.shape != (self.n_cols + 1,):
            raise StructureError(
                f"indptr has shape {self.indptr.shape}, expected ({self.n_cols + 1},)"
            )
        if self.indptr[0] != 0:
            raise StructureError(f"indptr[0] is {int(self.indptr[0])}, expected 0")
        widths = np.diff(self.indptr)
        if widths.size and widths.min() < 0:
            j = int(np.flatnonzero(widths < 0)[0])
            raise StructureError(f"indptr decreases at column {j}")
        if not (int(self.indptr[-1]) == self.indices.size == self.data.size):
            raise StructureError(
                f"indptr[-1]={int(self.indptr[-1])} but indices.size="
                f"{self.indices.size}, data.size={self.data.size}"
            )
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n_rows:
                raise StructureError(
                    f"row indices span [{int(self.indices.min())}, "
                    f"{int(self.indices.max())}], expected [0, {self.n_rows})"
                )
            # Strictly increasing within each column: every adjacent pair
            # must either grow or straddle a column boundary.
            step = np.diff(self.indices)
            col_of = np.repeat(np.arange(self.n_cols), widths)
            bad = (step <= 0) & (col_of[1:] == col_of[:-1])
            if np.any(bad):
                j = int(col_of[int(np.flatnonzero(bad)[0])])
                raise StructureError(f"column {j} rows not strictly increasing")

    def same_pattern(self, other: "CSC") -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"CSC(shape={self.shape}, nnz={self.nnz})"
