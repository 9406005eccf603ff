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

from typing import List, Tuple

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
    indptr: List[int],
    indices: List[int],
    mags: List[float],
    threshold: float,
    match_row: List[int],
    match_col: List[int],
    visited: List[int],
) -> bool:
    """Iterative DFS augmenting path from column ``j``.

    Entries with ``|a| < threshold`` are skipped, so a NaN magnitude is
    usable here (the greedy pass skips it).  ``visited`` stamps columns
    with the column whose search reached them.
    """
    cols, cursors, rows = [j], [indptr[j]], []  # DFS path; rows[k] joins cols[k], cols[k+1]
    visited[j] = j
    while cols:
        col, cursor = cols[-1], cursors[-1]
        hi = indptr[col + 1]
        while cursor < hi:
            r = indices[cursor]
            cursor += 1
            if mags[cursor - 1] < threshold:
                continue
            owner = match_row[r]
            if owner == -1:
                # Augment along the path.
                rows.append(r)
                for c, rr in zip(cols, rows):
                    match_row[rr] = c
                    match_col[c] = rr
                return True
            if visited[owner] != j:
                visited[owner] = j
                cursors[-1] = cursor
                rows.append(r)
                cols.append(owner)
                cursors.append(indptr[owner])
                break
        else:
            cols.pop()
            cursors.pop()
            if rows:
                rows.pop()
    return False


def _match(n_rows: int, indptr: List[int], indices: List[int], mags: List[float],
           threshold: float) -> Tuple[int, List[int], List[int]]:
    """:func:`max_cardinality_matching` on the pattern and magnitudes as lists."""
    n_cols = len(indptr) - 1
    match_row = [-1] * n_rows
    match_col = [-1] * n_cols
    visited = [-1] * n_cols
    size = 0
    # Cheap pass first: greedy assignment (classic MC21 speedup).  It
    # keeps ``|a| >= threshold``, so a NaN magnitude is skipped here.
    for j in range(n_cols):
        for k in range(indptr[j], indptr[j + 1]):
            r = indices[k]
            if mags[k] >= threshold and match_row[r] == -1:
                match_row[r] = j
                match_col[j] = r
                size += 1
                break
    # Augmenting pass.
    for j in range(n_cols):
        if match_col[j] == -1:
            if _try_augment(j, indptr, indices, mags, threshold, match_row, match_col, visited):
                size += 1
    return size, match_col, match_row


def _as_lists(A: CSC) -> Tuple[List[int], List[int], List[float]]:
    return A.indptr.tolist(), A.indices.tolist(), np.abs(A.data).tolist()


def max_cardinality_matching(A: CSC, threshold: float = 0.0) -> Tuple[int, np.ndarray, np.ndarray]:
    """Maximum-cardinality column-to-row matching using entries >= threshold.

    Returns ``(size, match_col, match_row)`` where ``match_col[j]`` is
    the row matched to column ``j`` (or -1) and ``match_row[i]`` the
    column matched to row ``i`` (or -1).  A NaN entry is skipped by the
    greedy first pass but usable by the augmenting pass.
    """
    size, match_col, match_row = _match(A.n_rows, *_as_lists(A), threshold)
    return size, np.asarray(match_col, dtype=np.int64), np.asarray(match_row, dtype=np.int64)


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
    lists = _as_lists(A)
    full_size, match_col, _ = _match(A.n_rows, *lists, 0.0)

    mags = np.unique(np.abs(A.data))
    mags = mags[mags > 0.0].tolist()
    best_match, best_t = match_col, 0.0
    if mags:
        # Binary search for the largest threshold that still admits a
        # matching of the maximum cardinality.
        lo, hi = 0, len(mags) - 1
        size_lo, match_lo, _ = _match(A.n_rows, *lists, mags[0])
        # If even the smallest positive threshold loses cardinality
        # (explicit zeros were needed), keep the unthresholded matching.
        if size_lo == full_size:
            best_match, best_t = match_lo, mags[0]
            while lo < hi:
                mid = (lo + hi + 1) // 2
                size_mid, match_mid, _ = _match(A.n_rows, *lists, mags[mid])
                if size_mid == full_size:
                    lo = mid
                    best_match, best_t = match_mid, mags[mid]
                else:
                    hi = mid - 1
    return np.asarray(best_match, dtype=np.int64), best_t


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
    p, _ = mwcm(A)
    used = np.zeros(A.n_rows, dtype=bool)
    used[p[p >= 0]] = True
    p[p == -1] = np.flatnonzero(~used)
    return p
