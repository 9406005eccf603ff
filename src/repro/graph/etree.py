"""Elimination trees, postorders and factor column counts.

Basker's fine-ND symbolic factorization (Algorithm 3) builds per-thread
elimination trees of the leaf diagonal blocks and uses them both for
column counts (``LU_ii``) and for the least-common-ancestor walks that
bound the upper off-diagonal counts (``U_ik``).  These are the standard
algorithms from Davis, *Direct Methods for Sparse Linear Systems*
(ref. [15] in the paper), implemented iteratively.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import StructureError
from ..sparse.csc import CSC

__all__ = [
    "etree",
    "postorder",
    "symbolic_cholesky_counts",
    "symmetric_pattern",
]


def symmetric_pattern(A: CSC) -> CSC:
    """Pattern of ``A + A.T`` with unit values (graph symmetrization)."""
    if A.n_rows != A.n_cols:
        raise StructureError("requires a square matrix")
    At = A.transpose()
    col_a = np.repeat(np.arange(A.n_cols), np.diff(A.indptr))
    col_b = np.repeat(np.arange(At.n_cols), np.diff(At.indptr))
    rows = np.concatenate([A.indices, At.indices])
    cols = np.concatenate([col_a, col_b])
    return CSC.from_coo(rows, cols, np.ones(rows.size), A.shape, sum_duplicates=True)


def etree(B: CSC) -> np.ndarray:
    """Elimination tree of a matrix with symmetric pattern.

    ``parent[j]`` is the etree parent of column ``j`` (-1 for roots).
    Only the strictly-lower part of ``B`` is read (row > col), matching
    the usual formulation on the upper/lower half of a symmetric
    pattern.  Uses path compression via an ancestor array.
    """
    n = B.n_cols
    # Plain Python lists: the ancestor walk is scalar-at-a-time, and
    # list indexing beats numpy scalar indexing severalfold there.
    parent = [-1] * n
    ancestor = [-1] * n
    indptr = B.indptr.tolist()
    indices = B.indices.tolist()
    # Traverse B by rows of the upper triangle == columns of the lower.
    # For column j, every entry i < j in B[:, j] connects subtree of i
    # toward j.
    for j in range(n):
        for t in range(indptr[j], indptr[j + 1]):
            i = indices[t]
            if i >= j:
                break
            # Walk from i to the root of its current subtree, compressing.
            while i != -1 and i < j:
                nxt = ancestor[i]
                ancestor[i] = j
                if nxt == -1:
                    parent[i] = j
                    break
                i = nxt
    return np.array(parent, dtype=np.int64)


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postorder of the forest given by ``parent`` (iterative DFS).

    Returns ``post`` with ``post[k]`` = the k-th node in postorder.
    Children are visited in increasing node order.
    """
    n = parent.size
    # Build child lists (head/next linked lists, reversed so iteration
    # yields increasing order).
    head = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        p = int(parent[v])
        if p != -1:
            nxt[v] = head[p]
            head[p] = v
    post = np.empty(n, dtype=np.int64)
    k = 0
    stack = []
    for root in range(n):
        if parent[root] != -1:
            continue
        stack.append(root)
        while stack:
            v = stack[-1]
            c = int(head[v])
            if c != -1:
                head[v] = nxt[c]  # consume child
                stack.append(c)
            else:
                post[k] = v
                k += 1
                stack.pop()
    if k != n:
        raise StructureError("parent array contains a cycle")
    return post


def symbolic_cholesky_counts(B: CSC, parent: np.ndarray) -> np.ndarray:
    """Column counts of the Cholesky factor of a symmetric-pattern B.

    ``counts[j]`` includes the diagonal.  Uses the row-subtree
    traversal: for each row ``i``, walk each entry ``j < i`` of the row
    up the etree, marking with stamp ``i``, counting each newly visited
    node into its column.  Complexity O(|L|) — exact, not an estimate.
    """
    n = B.n_cols
    # Python lists for the same reason as :func:`etree`: the subtree
    # walk is scalar-at-a-time, where list indexing wins.
    counts = [1] * n  # diagonal
    mark = [-1] * n
    par = parent.tolist()
    Bt = B.transpose()  # rows of B as columns of Bt
    indptr = Bt.indptr.tolist()
    indices = Bt.indices.tolist()
    for i in range(n):
        mark[i] = i
        for t in range(indptr[i], indptr[i + 1]):
            j = indices[t]
            if j >= i:
                break
            while j != -1 and mark[j] != i and j < i:
                mark[j] = i
                counts[j] += 1
                j = par[j]
    return np.array(counts, dtype=np.int64)
