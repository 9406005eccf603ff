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
from typing import Dict, List, Optional, Set, Tuple

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
# Graph helpers.  The graph is a list of neighbour lists (Python ints,
# ascending, no self loops) and a vertex subset is a ``bytearray``
# membership mask: the walks below visit one neighbour at a time, and
# list and bytearray indexing beat numpy scalar indexing severalfold.
# ----------------------------------------------------------------------


def _build_adjacency(B: CSC) -> List[List[int]]:
    n = B.n_cols
    col = np.repeat(np.arange(n), np.diff(B.indptr))
    off = B.indices != col
    rows = B.indices[off].tolist()
    ends = np.cumsum(np.bincount(col[off], minlength=n)).tolist()
    return [rows[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _components(adj: List[List[int]], verts: List[int], member: bytearray) -> List[List[int]]:
    """Connected components of the induced subgraph on ``verts``, each
    sorted, largest first (equal sizes in order of discovery).

    ``member[v]`` must be 1 exactly for v in verts.
    """
    unseen = bytearray(member)
    comps = []
    for s in verts:
        if not unseen[s]:
            continue
        unseen[s] = 0
        comp = [s]
        for v in comp:  # the list is the BFS queue: it grows while walked
            for w in adj[v]:
                if unseen[w]:
                    unseen[w] = 0
                    comp.append(w)
        comp.sort()
        comps.append(comp)
    comps.sort(key=len, reverse=True)  # stable: ties keep their order
    return comps


def _bfs_levels(adj: List[List[int]], member: bytearray, root: int) -> List[List[int]]:
    unseen = bytearray(member)
    unseen[root] = 0
    levels = [[root]]
    while True:
        nxt = []
        for v in levels[-1]:
            for w in adj[v]:
                if unseen[w]:
                    unseen[w] = 0
                    nxt.append(w)
        if not nxt:
            return levels
        nxt.sort()
        levels.append(nxt)


def _pseudo_peripheral(adj: List[List[int]], member: bytearray, start: int) -> int:
    """Double-BFS heuristic: the far end of a BFS is a good ND root."""
    return _bfs_levels(adj, member, start)[-1][0]


def _min_cover(bedges: Dict[int, List[int]]) -> Set[int]:
    """Minimum vertex cover of a bipartite boundary graph (König).

    ``bedges`` maps each boundary-left vertex to its boundary-right
    neighbours.  The cover comes from a maximum matching by the
    alternating-reachability construction — provably the smallest
    vertex set whose removal disconnects the two sides of the cut.
    """
    match_l: Dict[int, int] = {}
    match_r: Dict[int, int] = {}

    def try_augment(u: int, seen: set) -> bool:
        for w in bedges[u]:
            if w in seen:
                continue
            seen.add(w)
            if w not in match_r or try_augment(match_r[w], seen):
                match_l[u] = w
                match_r[w] = u
                return True
        return False

    for u in bedges:
        if u not in match_l:
            try_augment(u, set())

    # König: Z = unmatched boundary-left + alternating reachability.
    z_left = {u for u in bedges if u not in match_l}
    z_right: set = set()
    frontier = list(z_left)
    while frontier:
        u = frontier.pop()
        for w in bedges[u]:
            if w not in z_right:
                z_right.add(w)
                if w in match_r and match_r[w] not in z_left:
                    z_left.add(match_r[w])
                    frontier.append(match_r[w])
    return {u for u in bedges if u not in z_left} | z_right


def _split_component(
    adj: List[List[int]], comp: List[int], member: bytearray
) -> Tuple[List[int], List[int], List[int]]:
    """Split a connected component into (left, right, separator).

    A BFS ordering from a pseudo-peripheral vertex gives a 1-D
    embedding; the balanced cut of that ordering is an edge bisection,
    which König's construction turns into a minimum vertex separator
    for the cut.  This produces thin separators even when BFS *levels*
    are fat (long-range taps in circuit graphs).
    """
    if len(comp) == 1:
        return [comp[0]], [], []
    root = _pseudo_peripheral(adj, member, comp[0])
    bfs_order = [v for lv in _bfs_levels(adj, member, root) for v in lv]
    n = len(bfs_order)
    # Two 1-D embeddings: the BFS sweep and the natural numbering
    # (circuit matrices usually carry locality in their original ids;
    # long-range taps can scramble the BFS order but not the ids).
    # ``comp`` is sorted, so it is the natural numbering.
    embeddings = [bfs_order, comp]
    # Search cut positions in the middle band of each embedding; König
    # gives each cut's minimum vertex separator, and the cost weights
    # separator size heavily (it becomes the serial column block of the
    # 2-D layout).
    best = None
    fracs = [0.3 + 0.4 * k / 8.0 for k in range(9)]  # 0.30 .. 0.70
    pos = [-1] * len(adj)  # position in the embedding; -1 off the component
    for order in embeddings:
        for i, v in enumerate(order):
            pos[v] = i
        # A left vertex is on a cut's boundary iff its furthest
        # neighbour lies past the cut.
        reach = np.array([max(map(pos.__getitem__, adj[v])) for v in order])
        for frac in fracs:
            cut = max(1, min(n - 1, int(frac * n)))
            bedges = {}
            for i in np.flatnonzero(reach[:cut] >= cut).tolist():
                u = order[i]
                bedges[u] = [w for w in adj[u] if pos[w] >= cut]
            cover = _min_cover(bedges)
            sep_left = sum(1 for v in cover if pos[v] < cut)
            n_left, n_right = cut - sep_left, n - cut - (len(cover) - sep_left)
            balanced = min(n_left, n_right) >= 0.2 * n
            cost = max(n_left, n_right) + 6 * len(cover)
            if best is None or (balanced, -cost) > (best[0], -best[1]):
                best = (balanced, cost, order, cut, cover)
    _, _, order, cut, cover = best
    left = [v for v in order[:cut] if v not in cover]
    right = [v for v in order[cut:] if v not in cover]

    # Greedy refinement: pull separator vertices with one-sided
    # adjacency into that side.  Iterate to a fixed point: moving one
    # vertex can make another one-sided.  A vertex with neighbours on a
    # single side always leaves the separator (keeping it costs far
    # more than imbalance); the invariant "no left-right edge" holds
    # after every move.
    side = bytearray(len(adj))  # 1 left, 2 right, 0 separator or outside
    for v in left:
        side[v] = 1
    for v in right:
        side[v] = 2
    pending = sorted(cover)
    changed = True
    while changed:
        changed = False
        keep = []
        for s in pending:
            sides = set(map(side.__getitem__, adj[s]))
            in_left, in_right = 1 in sides, 2 in sides
            if in_left and in_right:
                keep.append(s)
                continue
            to_left = in_left or (not in_right and len(left) <= len(right))
            (left if to_left else right).append(s)
            side[s] = 1 if to_left else 2
            changed = True
        pending = keep
    return left, right, pending


def _bisect(adj: List[List[int]], verts: List[int]) -> Tuple[List[int], List[int], List[int]]:
    """Split ``verts`` into sorted (left, right, separator) lists with no
    left-right edges."""
    member = bytearray(len(adj))
    for v in verts:
        member[v] = 1
    comps = _components(adj, verts, member)
    if not comps:
        return [], [], []
    if len(comps) > 1 and len(comps[0]) <= 0.6 * len(verts):
        # Enough disconnection to bisect without any separator:
        # greedily bin-pack components into two sides.
        left, right, sep = [], [], []
        rest = comps
    else:
        # Split the largest component; distribute the rest for balance.
        big = comps[0]
        if len(comps) > 1:
            member = bytearray(len(adj))
            for v in big:
                member[v] = 1
        left, right, sep = _split_component(adj, big, member)
        rest = comps[1:]
    for comp in rest:
        (left if len(left) <= len(right) else right).extend(comp)
    return sorted(left), sorted(right), sorted(sep)


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
    nodes: List[NDNode] = []
    if nleaves == 1:
        nodes.append(NDNode(id=0, height=0, is_leaf=True, vertices=np.arange(n, dtype=np.int64)))
    else:
        adj = _build_adjacency(symmetric_pattern(A)) if n else []

        def build(verts: List[int], height: int) -> int:
            if height == 0:
                node = NDNode(id=len(nodes), height=0, is_leaf=True,
                              vertices=np.asarray(verts, dtype=np.int64))
                nodes.append(node)
                return node.id
            left, right, sep = _bisect(adj, verts)
            lid = build(left, height - 1)
            rid = build(right, height - 1)
            node = NDNode(id=len(nodes), height=height, is_leaf=False,
                          vertices=np.asarray(sep, dtype=np.int64), children=(lid, rid))
            nodes.append(node)
            nodes[lid].parent = node.id
            nodes[rid].parent = node.id
            return node.id

        build(list(range(n)), int(np.log2(nleaves)))

    perm = np.concatenate([nd.vertices for nd in nodes])
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
