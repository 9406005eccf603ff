"""Nested-dissection ordering with an explicit binary separator tree.

The fine structure of Basker's big irreducible block (paper §III-C):
the block is reordered by ND on the graph of ``D2 + D2.T`` so that the
permuted matrix becomes the 2-D arrow-of-arrows layout of Figure 3(a).
Basker limits the ND tree to exactly ``p`` leaves (one per thread), so
this implementation takes the leaf count as a parameter instead of
recursing to single vertices.

The bisection is BFS level-set based with a pseudo-peripheral start and
a greedy vertex-separator refinement.  The essential *correctness*
property — no edges between the two sides of a separator — is asserted
in tests, because the parallel numeric factorization silently depends
on it (sibling subtrees never exchange updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..contracts import domains
from ..errors import StructureError
from ..graph.etree import symmetric_pattern
from ..obs.tracer import get_tracer
from ..sparse.csc import CSC

__all__ = ["NDNode", "NDPartition", "nested_dissection", "nd_order"]


@dataclass
class NDNode:
    """A node of the binary ND tree, identified by its layout position."""

    id: int
    height: int                 # 0 for leaves, log2(p) for the root
    is_leaf: bool
    vertices: np.ndarray        # original vertex ids, in layout order
    children: Optional[Tuple[int, int]] = None
    parent: int = -1

    @property
    def size(self) -> int:
        return int(self.vertices.size)


@dataclass
class NDPartition:
    """A nested-dissection partition of a square matrix's graph.

    ``A.permute(perm, perm)`` puts the matrix in the 2-D ND layout:
    node ``t`` occupies the contiguous index range
    ``splits[t]:splits[t+1]``.  Nodes are numbered in layout order
    (left subtree, right subtree, separator), so for p = 4 the order is
    leaf, leaf, sep, leaf, leaf, sep, root — matching Figure 3(a).
    """

    perm: np.ndarray
    nodes: List[NDNode]
    splits: np.ndarray
    nleaves: int

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> int:
        return self.n_nodes - 1

    def leaves(self) -> List[int]:
        return [nd.id for nd in self.nodes if nd.is_leaf]

    def node_range(self, t: int) -> Tuple[int, int]:
        return int(self.splits[t]), int(self.splits[t + 1])

    def ancestors(self, t: int) -> List[int]:
        """Path from ``t``'s parent up to the root (inclusive)."""
        out = []
        p = self.nodes[t].parent
        while p != -1:
            out.append(p)
            p = self.nodes[p].parent
        return out

    def height(self) -> int:
        return self.nodes[self.root].height

    def check_separator_property(self, A: CSC) -> None:
        """Assert no entries connect disjoint sibling subtrees.

        For the permuted matrix B = A.permute(perm, perm), B[i, j] may
        be nonzero only if the node of i is an ancestor-or-self of the
        node of j, or vice versa.
        """
        B = A.permute(self.perm, self.perm)
        node_of = np.empty(B.n_rows, dtype=np.int64)
        for t in range(self.n_nodes):
            lo, hi = self.node_range(t)
            node_of[lo:hi] = t
        anc = [set([t] + self.ancestors(t)) for t in range(self.n_nodes)]
        for j in range(B.n_cols):
            rows, _ = B.col(j)
            tj = int(node_of[j])
            for i in rows:
                ti = int(node_of[int(i)])
                if ti == tj:
                    continue
                if tj not in anc[ti] and ti not in anc[tj]:
                    raise AssertionError(
                        f"entry ({int(i)},{j}) connects unrelated ND nodes {ti} and {tj}"
                    )


# ----------------------------------------------------------------------
# Graph helpers on an adjacency list restricted to a vertex subset
# ----------------------------------------------------------------------


def _build_adjacency(B: CSC) -> List[np.ndarray]:
    adj = []
    for j in range(B.n_cols):
        rows, _ = B.col(j)
        adj.append(rows[rows != j].astype(np.int64))
    return adj


def _components(adj: List[np.ndarray], verts: np.ndarray, member: np.ndarray) -> List[np.ndarray]:
    """Connected components of the induced subgraph on ``verts``.

    ``member[v]`` must be True exactly for v in verts.
    """
    seen = set()
    comps = []
    vset_order = verts.tolist()
    for s in vset_order:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        head = 0
        while head < len(comp):
            v = comp[head]
            head += 1
            for w in adj[v]:
                w = int(w)
                if member[w] and w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(np.asarray(sorted(comp), dtype=np.int64))
    comps.sort(key=lambda c: -c.size)
    return comps


def _bfs_levels(adj: List[np.ndarray], member: np.ndarray, root: int) -> List[List[int]]:
    levels = [[root]]
    seen = {root}
    while True:
        nxt = []
        for v in levels[-1]:
            for w in adj[v]:
                w = int(w)
                if member[w] and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            return levels
        levels.append(sorted(nxt))


def _pseudo_peripheral(adj: List[np.ndarray], member: np.ndarray, start: int) -> int:
    """Double-BFS heuristic: the far end of a BFS is a good ND root."""
    levels = _bfs_levels(adj, member, start)
    return int(levels[-1][0])


def _min_cover_separator(
    adj: List[np.ndarray],
    left: List[int],
    right: List[int],
    member: np.ndarray,
) -> Tuple[List[int], List[int], List[int]]:
    """Turn an edge bisection into a vertex separator via König's theorem.

    The separator is a *minimum vertex cover* of the bipartite boundary
    graph (boundary-left vs boundary-right vertices), computed from a
    maximum matching by the alternating-reachability construction —
    provably the smallest vertex set whose removal disconnects the two
    sides of this cut.
    """
    lset, rset = set(left), set(right)
    bedges: dict[int, list] = {}
    for u in left:
        nbrs = [int(w) for w in adj[u] if member[w] and int(w) in rset]
        if nbrs:
            bedges[u] = nbrs
    if not bedges:
        return left, right, []

    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}

    def try_augment(u: int, seen: set) -> bool:
        for w in bedges.get(u, ()):
            if w in seen:
                continue
            seen.add(w)
            if w not in match_r or try_augment(match_r[w], seen):
                match_l[u] = w
                match_r[w] = u
                return True
        return False

    for u in list(bedges):
        if u not in match_l:
            try_augment(u, set())

    # König: Z = unmatched boundary-left + alternating reachability.
    z_left = {u for u in bedges if u not in match_l}
    z_right: set = set()
    frontier = list(z_left)
    while frontier:
        u = frontier.pop()
        for w in bedges.get(u, ()):
            if w not in z_right:
                z_right.add(w)
                if w in match_r and match_r[w] not in z_left:
                    z_left.add(match_r[w])
                    frontier.append(match_r[w])
    cover = ({u for u in bedges if u not in z_left}) | z_right
    new_left = [v for v in left if v not in cover]
    new_right = [v for v in right if v not in cover]
    return new_left, new_right, sorted(cover)


def _split_component(
    adj: List[np.ndarray], comp: np.ndarray, member: np.ndarray
) -> Tuple[List[int], List[int], List[int]]:
    """Split a connected component into (left, right, separator).

    A BFS ordering from a pseudo-peripheral vertex gives a 1-D
    embedding; the balanced cut of that ordering is an edge bisection,
    which König's construction turns into a minimum vertex separator
    for the cut.  This produces thin separators even when BFS *levels*
    are fat (long-range taps in circuit graphs).
    """
    if comp.size == 1:
        return [int(comp[0])], [], []
    root = _pseudo_peripheral(adj, member, int(comp[0]))
    levels = _bfs_levels(adj, member, root)
    bfs_order = [v for lv in levels for v in lv]
    n = len(bfs_order)
    # Two 1-D embeddings: the BFS sweep and the natural numbering
    # (circuit matrices usually carry locality in their original ids;
    # long-range taps can scramble the BFS order but not the ids).
    embeddings = [bfs_order, sorted(int(v) for v in comp)]
    # Search cut positions in the middle band of each embedding; König
    # gives each cut's minimum vertex separator, and the cost weights
    # separator size heavily (it becomes the serial column block of the
    # 2-D layout).
    best = None
    fracs = [0.3 + 0.4 * k / 8.0 for k in range(9)]  # 0.30 .. 0.70
    for order in embeddings:
        for frac in fracs:
            cut = max(1, min(n - 1, int(frac * n)))
            l, r, s = _min_cover_separator(adj, order[:cut], order[cut:], member)
            balanced = min(len(l), len(r)) >= 0.2 * n
            cost = max(len(l), len(r)) + 6 * len(s)
            if best is None or (balanced, -cost) > (best[0], -best[1]):
                best = (balanced, cost, l, r, s)
    _, _, left, right, sep = best

    # Greedy refinement: pull separator vertices with one-sided
    # adjacency into that side.  Membership sets keep the moves safe
    # (the invariant "no left-right edge" holds after every move).
    left_set, right_set = set(left), set(right)
    # Iterate to a fixed point: moving one vertex can make another
    # one-sided.  A vertex with neighbours on a single side always
    # leaves the separator (keeping it costs far more than imbalance).
    pending = list(sep)
    new_sep: list = []
    changed = True
    while changed:
        changed = False
        keep = []
        for s in pending:
            nbrs = [int(w) for w in adj[s] if member[w]]
            in_left = any(w in left_set for w in nbrs)
            in_right = any(w in right_set for w in nbrs)
            if in_left and in_right:
                keep.append(s)
            elif in_left and not in_right:
                left.append(s)
                left_set.add(s)
                changed = True
            elif in_right and not in_left:
                right.append(s)
                right_set.add(s)
                changed = True
            else:
                if len(left) <= len(right):
                    left.append(s)
                    left_set.add(s)
                else:
                    right.append(s)
                    right_set.add(s)
                changed = True
        pending = keep
    new_sep = pending
    return left, right, new_sep


def _bisect(
    adj: List[np.ndarray], verts: np.ndarray, n_global: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``verts`` into (left, right, separator) with no left-right edges."""
    member = np.zeros(n_global, dtype=bool)
    member[verts] = True
    comps = _components(adj, verts, member)
    if not comps:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    total = int(verts.size)
    if len(comps) > 1 and comps[0].size <= 0.6 * total:
        # Enough disconnection to bisect without any separator:
        # greedily bin-pack components into two sides.
        left, right, sep = [], [], []
        for comp in comps:
            if len(left) <= len(right):
                left.extend(int(v) for v in comp)
            else:
                right.extend(int(v) for v in comp)
    else:
        # Split the largest component; distribute the rest for balance.
        big = comps[0]
        member_big = np.zeros(n_global, dtype=bool)
        member_big[big] = True
        left, right, sep = _split_component(adj, big, member_big)
        for comp in comps[1:]:
            if len(left) <= len(right):
                left.extend(int(v) for v in comp)
            else:
                right.extend(int(v) for v in comp)
    return (
        np.asarray(sorted(left), dtype=np.int64),
        np.asarray(sorted(right), dtype=np.int64),
        np.asarray(sorted(sep), dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Tree construction
# ----------------------------------------------------------------------


@domains(A="matrix[S]")
def nested_dissection(A: CSC, nleaves: int) -> NDPartition:
    """ND partition of a square matrix's symmetrized graph.

    ``nleaves`` must be a power of two (Basker's thread-count
    constraint, paper §III-C).  Empty leaves/separators are permitted —
    small or oddly shaped graphs simply produce zero-size blocks, which
    the factorization handles.
    """
    tr = get_tracer()
    with tr.span("order.nd") as sp:
        part = _nested_dissection(A, nleaves)
        if tr.enabled:
            sp.set(nleaves=nleaves, n_nodes=len(part.nodes))
    return part


@domains(A="matrix[S]")
def _nested_dissection(A: CSC, nleaves: int) -> NDPartition:
    if A.n_rows != A.n_cols:
        raise StructureError("nested dissection requires a square matrix")
    if nleaves < 1 or (nleaves & (nleaves - 1)) != 0:
        raise StructureError("nleaves must be a power of two")
    n = A.n_rows
    B = symmetric_pattern(A) if n else A
    adj = _build_adjacency(B) if n else []

    nodes: List[NDNode] = []

    def build(verts: np.ndarray, height: int) -> int:
        if height == 0:
            node = NDNode(id=len(nodes), height=0, is_leaf=True, vertices=verts)
            nodes.append(node)
            return node.id
        left, right, sep = _bisect(adj, verts, n)
        lid = build(left, height - 1)
        rid = build(right, height - 1)
        node = NDNode(
            id=len(nodes), height=height, is_leaf=False, vertices=sep, children=(lid, rid)
        )
        nodes.append(node)
        nodes[lid].parent = node.id
        nodes[rid].parent = node.id
        return node.id

    height = int(np.log2(nleaves))
    all_verts = np.arange(n, dtype=np.int64)
    if nleaves == 1:
        nodes.append(NDNode(id=0, height=0, is_leaf=True, vertices=all_verts))
    else:
        build(all_verts, height)

    perm = np.concatenate([nd.vertices for nd in nodes]) if nodes else np.empty(0, dtype=np.int64)
    perm = perm.astype(np.int64)
    splits = np.zeros(len(nodes) + 1, dtype=np.int64)
    splits[1:] = np.cumsum([nd.size for nd in nodes])
    return NDPartition(perm=perm, nodes=nodes, splits=splits, nleaves=nleaves)


@domains(A="matrix[S]", returns="perm[S->S]")
def nd_order(A: CSC, leaf_size: int = 64) -> np.ndarray:
    """A plain fill-reducing ND permutation (recurse until small leaves).

    Utility used by the supernodal baseline; the number of leaves is
    chosen from the matrix size rather than a thread count.
    """
    n = A.n_rows
    if n == 0:
        return np.empty(0, dtype=np.int64)
    nleaves = 1
    while nleaves * leaf_size < n and nleaves < 256:
        nleaves *= 2
    return nested_dissection(A, nleaves).perm
