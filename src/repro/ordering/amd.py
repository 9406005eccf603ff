"""Approximate minimum degree ordering.

Basker (like KLU) reorders every BTF diagonal subblock with AMD before
factoring it (paper, Algorithm 2 line 2).  This implementation follows
the structure of Amestoy/Davis/Duff AMD (ref. [8] in the paper) —
quotient-graph elimination with elements, element absorption and
approximate external degrees — in a compact Python form.  Supervariable
detection is implemented via adjacency hashing; mass elimination of
indistinguishable variables is what keeps the quality close to the
reference code on circuit blocks.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..contracts import domains
from ..errors import StructureError
from ..graph.etree import symmetric_pattern
from ..obs.tracer import get_tracer
from ..sparse.csc import CSC

__all__ = ["amd_order"]


@domains(A="matrix[S]", returns="perm[S->S]")
def amd_order(A: CSC) -> np.ndarray:
    """Fill-reducing permutation of a square matrix.

    The ordering is computed on the symmetrized pattern of ``A + A.T``
    with the diagonal removed.  Returns ``perm`` such that
    ``A.permute(perm, perm)`` tends to factor with low fill.  Variables
    of degree above ``max(16, 10 sqrt(n))`` are deferred to the end (the
    usual dense-row guard).
    """
    with get_tracer().span("order.amd"):
        return _amd_order(A)


@domains(A="matrix[S]", returns="perm[S->S]")
def _amd_order(A: CSC) -> np.ndarray:
    n = A.n_cols
    if A.n_rows != n:
        raise StructureError("AMD requires a square matrix")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)

    B = symmetric_pattern(A)

    # Adjacent-variable sets (no self loops).  The per-variable state
    # below is held in Python lists: the elimination reads it one
    # variable at a time, where list indexing beats numpy scalars.
    indptr = B.indptr.tolist()
    indices = B.indices.tolist()
    adj = [set() for _ in range(n)]
    for j in range(n):
        for i in indices[indptr[j]:indptr[j + 1]]:
            if i != j:
                adj[j].add(i)

    dense_limit = max(16.0, 10.0 * np.sqrt(n))
    elem_sets: dict[int, set] = {}       # element id -> variables it covers
    var_elems = [set() for _ in range(n)]  # elements adjacent to each variable
    merged_into = [-1] * n  # supervariable absorption
    weight = [1] * n  # size of each supervariable

    # Approximate degree (upper bound) maintained incrementally.
    degree = [len(a) for a in adj]
    # 0 variable, 1 eliminated, 2 dense-deferred
    status = [2 if d > dense_limit else 0 for d in degree]

    order: list[int] = []
    alive = [v for v in range(n) if status[v] == 0]

    # A simple bucketed min-degree selection: rebuild lazily.
    heap = [(degree[v], v) for v in alive]
    heapq.heapify(heap)

    eliminated_count = 0
    target = len(alive)

    while eliminated_count < target:
        # Pop the current minimum-degree variable (lazy deletion).
        while True:
            d, p = heapq.heappop(heap)
            if status[p] == 0 and merged_into[p] == -1 and d == degree[p]:
                break
        # --- Eliminate p: form element Lp.
        Lp = set(adj[p])
        for e in var_elems[p]:
            Lp |= elem_sets[e]
        Lp.discard(p)
        Lp = {u for u in Lp if status[u] == 0 and merged_into[u] == -1 or status[u] == 2}
        status[p] = 1
        order.append(p)
        eliminated_count += weight[p]

        # Absorb the elements of p (they are subsumed by Lp).
        for e in list(var_elems[p]):
            elem_sets.pop(e, None)
        elem_sets[p] = Lp

        # Update each variable in Lp.
        for u in Lp:
            adj[u].discard(p)
            adj[u] -= Lp  # entries now covered by the element
            # Drop references to absorbed elements.
            var_elems[u] = {e for e in var_elems[u] if e in elem_sets}
            var_elems[u].add(p)
            # Approximate external degree: |A_u| + sum of element sizes.
            dv = len(adj[u])
            for e in var_elems[u]:
                dv += len(elem_sets[e]) - 1  # exclude u itself
            degree[u] = dv
            if status[u] == 0:
                heapq.heappush(heap, (dv, u))

        # Supervariable detection inside Lp: variables with identical
        # (adj, elems) are indistinguishable -> merge (mass elimination).
        if len(Lp) > 1:
            sig: dict[int, list] = {}
            for u in Lp:
                if status[u] != 0 or merged_into[u] != -1:
                    continue
                h = hash((frozenset(adj[u]), frozenset(var_elems[u])))
                sig.setdefault(h, []).append(u)
            for group in sig.values():
                if len(group) < 2:
                    continue
                group.sort()
                rep = group[0]
                for u in group[1:]:
                    if adj[u] == adj[rep] and var_elems[u] == var_elems[rep]:
                        merged_into[u] = rep
                        weight[rep] += weight[u]
                        # Remove u from all structures.
                        for e in var_elems[u]:
                            elem_sets[e].discard(u)
                        for w in adj[u]:
                            adj[w].discard(u)
                        adj[u].clear()
                        var_elems[u].clear()

    # Expand supervariables: a merged variable is ordered right after
    # its representative.
    expanded: list[int] = []
    followers: dict[int, list] = {}
    for v in range(n):
        r = merged_into[v]
        if r != -1:
            # chase chains
            while merged_into[r] != -1:
                r = merged_into[r]
            followers.setdefault(r, []).append(v)
    for p in order:
        expanded.append(p)
        expanded.extend(followers.get(p, []))

    # Dense-deferred variables go last.
    for v in range(n):
        if status[v] == 2:
            expanded.append(v)

    perm = np.asarray(expanded, dtype=np.int64)
    if perm.size != n:
        raise AssertionError(f"AMD produced {perm.size} of {n} vertices")
    return perm
