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
    "mwcm_product",
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


def mwcm_product(A: CSC) -> Tuple[np.ndarray, float]:
    """Product-maximizing weighted matching (SuperLU-Dist's MC64 mode).

    Maximizes ``prod |A[match(j), j]|`` over perfect matchings — the
    "product/sum based MC64 ordering" the paper contrasts with Basker's
    bottleneck variant (§V).  Solved as a min-cost assignment with
    ``c_ij = log(max_col) − log|a_ij|`` by successive shortest
    augmenting paths with dual potentials (Jonker–Volgenant style).

    Returns ``(match_col, log_product)``; unmatched columns (structural
    deficiency) get -1 and contribute nothing to the product.

    Optimality holds for structurally nonsingular matrices (a perfect
    matching exists — MC64's own operating assumption).  On deficient
    matrices the result still has maximum cardinality but the product
    may be suboptimal, because successive shortest paths commit each
    column greedily.
    """
    n_rows, n_cols = A.shape
    # Per-column cost lists.
    col_rows: list = []
    col_costs: list = []
    INF = float("inf")
    for j in range(n_cols):
        rows, vals = A.col(j)
        mags = np.abs(vals)
        keep = mags > 0.0
        rows, mags = rows[keep], mags[keep]
        if rows.size:
            cmax = float(mags.max())
            col_rows.append(rows.astype(np.int64))
            col_costs.append(np.log(cmax) - np.log(mags))
        else:
            col_rows.append(np.empty(0, dtype=np.int64))
            col_costs.append(np.empty(0))

    import heapq

    u = np.zeros(n_cols)          # column potentials
    v = np.zeros(n_rows)          # row potentials
    match_col = np.full(n_cols, -1, dtype=np.int64)
    match_row = np.full(n_rows, -1, dtype=np.int64)

    # Invariant: reduced cost c(j, r) - u[j] - v[r] >= 0, tight (== 0)
    # on matched edges.  For each new column, Dijkstra over rows finds
    # the cheapest augmenting path; potentials keep edge weights
    # nonnegative across phases (Jonker-Volgenant / e-maxx Hungarian).
    for j0 in range(n_cols):
        if col_rows[j0].size == 0:
            continue
        dist = np.full(n_rows, INF)
        prev_col = np.full(n_rows, -1, dtype=np.int64)
        visited: list = []
        in_tree = np.zeros(n_rows, dtype=bool)
        heap = []
        rows, costs = col_rows[j0], col_costs[j0]
        for t in range(rows.size):
            r = int(rows[t])
            red = float(costs[t]) - u[j0] - v[r]
            if red < dist[r]:
                dist[r] = red
                prev_col[r] = j0
                heapq.heappush(heap, (red, r))
        free_row = -1
        d_star = 0.0
        while heap:
            d, r = heapq.heappop(heap)
            if in_tree[r] or d > dist[r] + 1e-300:
                continue
            in_tree[r] = True
            visited.append(r)
            if match_row[r] == -1:
                free_row, d_star = r, d
                break
            j = int(match_row[r])
            # Traverse the (tight) matched edge back to column j, then
            # relax j's other edges.
            jrows, jcosts = col_rows[j], col_costs[j]
            for t in range(jrows.size):
                r2 = int(jrows[t])
                if in_tree[r2]:
                    continue
                red = d + float(jcosts[t]) - u[j] - v[r2]
                if red < dist[r2]:
                    dist[r2] = red
                    prev_col[r2] = j
                    heapq.heappush(heap, (red, r2))
        if free_row < 0:
            continue  # column structurally unmatched
        # Potential update over the Dijkstra tree.
        u[j0] += d_star
        for r in visited:
            if r == free_row:
                continue
            delta = d_star - float(dist[r])
            v[r] -= delta
            u[int(match_row[r])] += delta
        # Augment along prev_col.
        r = free_row
        while True:
            j = int(prev_col[r])
            r_next = int(match_col[j])
            match_col[j] = r
            match_row[r] = j
            if j == j0:
                break
            r = r_next

    logprod = 0.0
    for j in range(n_cols):
        if match_col[j] >= 0:
            logprod += float(np.log(abs(A.get(int(match_col[j]), j))))
    return match_col, logprod


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
