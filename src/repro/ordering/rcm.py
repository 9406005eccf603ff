"""Reverse Cuthill–McKee ordering.

A bandwidth-reducing ordering, included for completeness of the
ordering toolbox (the paper's background section surveys ordering
strategies; RCM is the classic profile reducer and a useful baseline
against AMD/ND in the ordering-quality tests and the explorer example).
"""

from __future__ import annotations

import numpy as np

from ..contracts import domains
from ..errors import StructureError
from ..graph.etree import symmetric_pattern
from ..sparse.csc import CSC

__all__ = ["rcm_order", "bandwidth"]


@domains(A="matrix[S]")
def bandwidth(A: CSC) -> int:
    """Maximum |i - j| over stored entries."""
    if A.nnz == 0:
        return 0
    col_of = np.repeat(np.arange(A.n_cols), np.diff(A.indptr))
    return int(np.max(np.abs(A.indices - col_of)))


@domains(A="matrix[S]", returns="perm[S->S]")
def rcm_order(A: CSC) -> np.ndarray:
    """Reverse Cuthill–McKee permutation of a square matrix's graph.

    BFS from a minimum-degree vertex of each connected component,
    visiting neighbours in increasing-degree order, then reversed.
    """
    n = A.n_cols
    if A.n_rows != n:
        raise StructureError("RCM requires a square matrix")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    B = symmetric_pattern(A)
    adj = []
    degree = np.zeros(n, dtype=np.int64)
    for j in range(n):
        rows, _ = B.col(j)
        nbrs = rows[rows != j]
        adj.append(nbrs)
        degree[j] = nbrs.size

    visited = np.zeros(n, dtype=bool)
    order = []
    # Components in increasing-min-degree order of their seed.
    seeds = np.argsort(degree, kind="stable")
    for s in seeds:
        s = int(s)
        if visited[s]:
            continue
        visited[s] = True
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            nbrs = [int(w) for w in adj[v] if not visited[w]]
            nbrs.sort(key=lambda w: (int(degree[w]), w))
            for w in nbrs:
                visited[w] = True
                queue.append(w)
    return np.asarray(order[::-1], dtype=np.int64)
