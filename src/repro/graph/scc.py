"""Strongly connected components (Tarjan, iterative).

Used by the BTF ordering: after the MWCM row permutation puts a zero-free
diagonal in place, the SCCs of the directed graph of the matrix are
exactly the diagonal blocks of the block triangular form (Pothen & Fan,
ACM TOMS 1990 — ref. [14] in the paper).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import StructureError
from ..sparse.csc import CSC

__all__ = ["tarjan_scc", "scc_of_matrix"]


def tarjan_scc(n: int, adj_indptr: np.ndarray, adj_indices: np.ndarray) -> Tuple[int, np.ndarray]:
    """Tarjan's algorithm on a directed graph in CSR/CSC-style adjacency.

    Returns ``(n_components, comp)`` where ``comp[v]`` is the component
    id of vertex ``v``.  Ids are assigned as components complete, so
    for every edge ``u -> v`` with ``comp[u] != comp[v]``,
    ``comp[v] < comp[u]``: the condensation's sinks come first.
    :func:`scc_of_matrix` documents the triangular orientation this
    gives a matrix.

    The implementation is fully iterative (explicit stack) so that large
    chain-structured circuit graphs don't hit Python's recursion limit.
    """
    indptr = adj_indptr.tolist()
    indices = adj_indices.tolist()
    index = [-1] * n   # discovery order
    lowlink = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: List[int] = []
    next_index = 0
    n_comp = 0

    # Each frame is [vertex, edge cursor].
    for root in range(n):
        if index[root] != -1:
            continue
        call_stack: List[list] = [[root, indptr[root]]]
        index[root] = lowlink[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = True
        while call_stack:
            frame = call_stack[-1]
            v, cursor = frame
            if cursor < indptr[v + 1]:
                frame[1] = cursor + 1
                w = indices[cursor]
                if index[w] == -1:
                    index[w] = lowlink[w] = next_index
                    next_index += 1
                    stack.append(w)
                    on_stack[w] = True
                    call_stack.append([w, indptr[w]])
                elif on_stack[w]:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            else:
                call_stack.pop()
                if call_stack:
                    parent = call_stack[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
                if lowlink[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return n_comp, np.asarray(comp, dtype=np.int64)


def scc_of_matrix(A: CSC) -> Tuple[int, np.ndarray, np.ndarray]:
    """SCCs of the directed graph of a square matrix.

    The graph has an edge ``j -> i`` for each stored entry ``A[i, j]``
    (column j "feeds" row i).  Returns ``(n_comp, comp, order)`` where
    ``comp`` labels components **renumbered into topological order such
    that permuting rows and columns by ``order`` (all vertices of
    component 0 first, then component 1, ...) yields a block *upper*
    triangular matrix** — the orientation shown in the paper's BTF
    figure.  ``order`` is the concatenated vertex permutation.
    """
    if A.n_rows != A.n_cols:
        raise StructureError("SCC ordering requires a square matrix")
    n = A.n_rows
    n_comp, comp = tarjan_scc(n, A.indptr, A.indices)

    # Tarjan emits components in reverse topological order of the
    # condensation for edge direction j->i: if component X has an edge
    # into component Y (X != Y), Y completes first.  For an edge
    # A[i, j] (j -> i), comp[i] < comp[j] for cross edges.  Keeping the
    # Tarjan numbering therefore puts nonzeros at rows with smaller
    # component id than their column — block *upper* triangular —
    # exactly what we want.
    order = np.argsort(comp, kind="stable").astype(np.int64)
    return n_comp, comp, order
