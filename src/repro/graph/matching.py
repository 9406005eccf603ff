"""Bipartite matchings for zero-free diagonals.

Two layers, mirroring the HSL routines the literature names:

* :func:`max_cardinality_matching` — an MC21-style augmenting-path
  matching on the pattern only, giving a zero-free diagonal when the
  matrix is structurally nonsingular.
* :func:`mwcm` — the paper's "maximum weight-cardinality matching"
  (MWCM).  The paper states Basker's implementation is *bottleneck*
  style (unlike SuperLU-Dist's product/sum MC64 variant): among all
  maximum-cardinality matchings it maximizes the smallest matched
  ``|A[i, j]|``, pushing large entries onto the diagonal to reduce the
  need for numerical pivoting.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..contracts import domains
from ..errors import StructureError
from ..sparse.csc import CSC

__all__ = [
    "max_cardinality_matching",
    "mwcm",
    "mwcm_row_permutation",
]


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


def max_cardinality_matching(A: CSC, threshold: float = 0.0) -> Tuple[int, np.ndarray, np.ndarray]:
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


def mwcm(A: CSC) -> Tuple[np.ndarray, float]:
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
    full_size, match_col, _ = max_cardinality_matching(A, threshold=0.0)

    mags = np.unique(np.abs(A.data))
    mags = mags[mags > 0.0]
    if mags.size == 0:
        return match_col, 0.0

    # Binary search for the largest threshold that still admits a
    # matching of the maximum cardinality.
    lo, hi = 0, mags.size - 1  # mags[lo] always feasible after check below
    size_lo, match_lo, _ = max_cardinality_matching(A, threshold=float(mags[0]))
    if size_lo < full_size:
        # Even the smallest positive threshold loses cardinality
        # (explicit zeros were needed); keep the unthresholded matching.
        return match_col, 0.0
    best_match, best_t = match_lo, float(mags[0])
    while lo < hi:
        mid = (lo + hi + 1) // 2
        size_mid, match_mid, _ = max_cardinality_matching(A, threshold=float(mags[mid]))
        if size_mid == full_size:
            lo = mid
            best_match, best_t = match_mid, float(mags[mid])
        else:
            hi = mid - 1
    return best_match, best_t


@domains(A="matrix[S]", returns="perm[S->S]")
def mwcm_row_permutation(A: CSC) -> np.ndarray:
    """Row permutation ``p`` such that ``A.permute(row_perm=p)`` has the
    MWCM-matched entries on its diagonal.

    Unmatched columns (structurally singular matrices) receive the
    leftover rows in index order, so ``p`` is always a valid
    permutation.
    """
    if A.n_rows != A.n_cols:
        raise StructureError("diagonal matching requires a square matrix")
    match_col, _ = mwcm(A)
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
