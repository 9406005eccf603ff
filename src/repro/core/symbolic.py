"""Basker's parallel symbolic factorization (Algorithms 2 and 3).

This module builds the :class:`~repro.core.structure.BaskerSymbolic`
plan:

* **Algorithm 2 (fine BTF)** — AMD-order every small diagonal block
  (KLU's front end, :func:`repro.solvers.klu.amd_blocks`), estimate its
  factor size and flop count from the symbolic Cholesky counts of its
  symmetrized pattern, and statically partition the blocks over the
  threads by operation count (LPT greedy).

* **Algorithm 3 (fine ND)** — for each large irreducible block: local
  MWCM, nested dissection with exactly ``p`` leaves, per-node AMD
  refinement, then the bottom-up symbolic sweep: per-leaf elimination
  trees and exact diagonal column counts (treelevel −1), exact
  path-to-LCA counts for the upper off-diagonal blocks (treelevel 0),
  and ``lest``/``uest`` min–max row envelopes propagated up the
  dependency tree for the separator levels.  The envelope estimates
  assume columns are dense between their min and max row — exactly the
  "reasonable upper bound ... cheaper than storing the whole nonzero
  pattern" trade-off the paper describes.

The per-thread work of the real implementation is replayed here
sequentially (the estimates are deterministic functions of the
pattern); the ledgers record the symbolic work for completeness.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..contracts import domains
from ..errors import StructureError
from ..graph.etree import etree, symbolic_cholesky_counts, symmetric_pattern
from ..graph.matching import mwcm_row_permutation
from ..obs.tracer import get_tracer
from ..ordering.nd import NDPartition, nested_dissection
from ..ordering.perm import compose
from ..parallel.ledger import CostLedger
from ..solvers.klu import amd_blocks, btf_permuted
from ..sparse.csc import CSC
from .structure import BaskerSymbolic, FineBTFPlan, NDBlockPlan

__all__ = ["analyze", "DEFAULT_ND_THRESHOLD"]

# Coarse blocks at least this large get the fine-ND treatment (the
# paper's D2-style blocks); smaller ones take the fine-BTF path.
DEFAULT_ND_THRESHOLD = 96


# ----------------------------------------------------------------------
# Envelope helpers (lest / uest)
# ----------------------------------------------------------------------


class _Envelope:
    """Per-column [min, max] row-index envelopes of a sparse block.

    ``lo[c] > hi[c]`` encodes an empty column.  ``nnz_estimate`` prices
    every column as dense between its bounds (paper §III-C).
    """

    __slots__ = ("lo", "hi")

    def __init__(self, n_cols: int):
        self.lo = np.full(n_cols, np.iinfo(np.int64).max, dtype=np.int64)
        self.hi = np.full(n_cols, -1, dtype=np.int64)

    def include(self, c: int, lo: int, hi: int) -> None:
        if hi < lo:
            return
        if lo < self.lo[c]:
            self.lo[c] = lo
        if hi > self.hi[c]:
            self.hi[c] = hi

    def include_rows(self, c: int, rows: np.ndarray) -> None:
        if rows.size:
            self.include(c, int(rows.min()), int(rows.max()))

    def col_empty(self, c: int) -> bool:
        return self.hi[c] < self.lo[c]

    def range_hull(self, c0: int, c1: int) -> Tuple[int, int]:
        """Hull of columns [c0, c1] (inclusive); (1, 0) when all empty."""
        if c1 < c0:
            return (1, 0)
        lo = int(self.lo[c0 : c1 + 1].min())
        hi = int(self.hi[c0 : c1 + 1].max())
        return (lo, hi)

    def nnz_estimate(self) -> int:
        widths = self.hi - self.lo + 1
        return int(widths[widths > 0].sum())


# ----------------------------------------------------------------------
# Algorithm 2: fine BTF symbolic
# ----------------------------------------------------------------------


@domains(B="matrix[btf]", splits="index[btf]", p="perm[btf->btf]")
def _fine_btf_symbolic(
    B: CSC,
    splits: np.ndarray,
    fine_ids: List[int],
    n_threads: int,
    p: np.ndarray,
    ledger: CostLedger,
) -> FineBTFPlan:
    """Count estimate per small block; LPT partition over threads.

    ``p`` is the blocks' AMD ordering (:func:`~repro.solvers.klu.amd_blocks`
    over the fine ranges of ``B``); the estimates are the symbolic
    Cholesky counts of each AMD-ordered block's symmetrized pattern.
    """
    est_nnz: List[int] = []
    est_ops: List[float] = []
    for b in fine_ids:
        lo, hi = int(splits[b]), int(splits[b + 1])
        nb = hi - lo
        if nb == 1:
            est_nnz.append(1)
            est_ops.append(1.0)
            continue
        pa = p[lo:hi] - lo  # domain: perm[local:block->local:block]
        blk_amd = B.submatrix(lo, hi, lo, hi).permute(pa, pa)
        sym = symmetric_pattern(blk_amd)
        parent = etree(sym)
        counts = symbolic_cholesky_counts(sym, parent)
        ledger.dfs_steps += int(counts.sum())
        est_nnz.append(int(2 * counts.sum() - nb))
        est_ops.append(float((counts.astype(np.float64) ** 2).sum()))

    # LPT greedy partition (Alg. 2 line 5).
    order = sorted(range(len(fine_ids)), key=lambda i: -est_ops[i])
    loads = [0.0] * n_threads
    thread_of = [0] * len(fine_ids)
    for i in order:
        t = min(range(n_threads), key=lambda k: loads[k])
        thread_of[i] = t
        loads[t] += est_ops[i]
    return FineBTFPlan(block_ids=list(fine_ids), est_nnz=est_nnz, est_ops=est_ops, thread_of=thread_of)


# ----------------------------------------------------------------------
# Algorithm 3: fine ND symbolic
# ----------------------------------------------------------------------


def _leaf_upper_count(
    parent: np.ndarray, arows_per_col: List[np.ndarray], mark: np.ndarray
) -> Tuple[np.ndarray, _Envelope, int]:
    """Exact column counts of U_ik = L_ii^{-1} A_ik (treelevel 0, line 8).

    The pattern of each solve column is the union of etree paths from
    the nonzeros of A_ik(:, c) toward the root, walked with stamps and
    stopped at the least common ancestor of previously explored
    entries — the counting procedure the paper describes.
    """
    ncols = len(arows_per_col)
    counts = np.zeros(ncols, dtype=np.int64)
    env = _Envelope(ncols)
    steps = 0
    for c in range(ncols):
        stamp = c
        rows = arows_per_col[c]
        cnt = 0
        for r in rows:
            v = int(r)
            while v != -1 and mark[v] != stamp:
                mark[v] = stamp
                cnt += 1
                env.include(c, v, v)
                v = int(parent[v])
                steps += 1
        counts[c] = cnt
    return counts, env, steps


def _block_cols(A: CSC) -> List[np.ndarray]:
    return [A.col(c)[0] for c in range(A.n_cols)]


def _lower_envelope(
    A_ki: CSC, parent_i: np.ndarray
) -> Tuple[_Envelope, int]:
    """Envelope of L_ki columns (treelevel −1, line 6).

    ``L_ki(c) = A_ki(c) ∪ { L_ki(t) | t ∈ U_ii(c) }`` and every such t
    is an etree descendant of c, so propagating child envelopes up the
    elimination tree gives a sound (and cheap) upper bound.
    """
    n_i = A_ki.n_cols
    env = _Envelope(n_i)
    children: List[List[int]] = [[] for _ in range(n_i)]
    for v in range(n_i):
        p = int(parent_i[v])
        if p != -1:
            children[p].append(v)
    steps = 0
    for c in range(n_i):  # children have smaller indices: safe order
        rows, _ = A_ki.col(c)
        env.include_rows(c, rows)
        for t in children[c]:
            if not env.col_empty(t):
                env.include(c, int(env.lo[t]), int(env.hi[t]))
            steps += 1
    return env, steps


@domains(D="matrix[nd]")
def _nd_block_symbolic(
    D: CSC,
    part: NDPartition,
    block_id: int,
    offset: int,
    n_threads: int,
    ledger: CostLedger,
) -> NDBlockPlan:
    """Bottom-up symbolic sweep over one ND block (Algorithm 3)."""
    plan = NDBlockPlan(block_id=block_id, offset=offset, size=D.n_rows, partition=part)

    # Static thread mapping: leaf t -> thread index in layout order;
    # a separator is owned by the leftmost leaf thread of its subtree.
    leaves = part.leaves()
    leaf_thread = {leaf: t * n_threads // len(leaves) for t, leaf in enumerate(leaves)}
    for t in range(part.n_nodes):
        node = part.nodes[t]
        if node.is_leaf:
            plan.owner_thread[t] = leaf_thread[t]
            plan.subtree_threads[t] = [leaf_thread[t]]
        else:
            lid, rid = node.children
            plan.subtree_threads[t] = plan.subtree_threads[lid] + plan.subtree_threads[rid]
            plan.owner_thread[t] = plan.subtree_threads[t][0]

    ranges = {t: part.node_range(t) for t in range(part.n_nodes)}
    sizes = {t: ranges[t][1] - ranges[t][0] for t in range(part.n_nodes)}

    etrees: Dict[int, np.ndarray] = {}
    lest: Dict[Tuple[int, int], _Envelope] = {}
    uest: Dict[Tuple[int, int], _Envelope] = {}

    def sub(rt: Tuple[int, int], ct: Tuple[int, int]) -> CSC:
        return D.submatrix(rt[0], rt[1], ct[0], ct[1])

    # --- treelevel -1 and 0: leaves.
    for i in range(part.n_nodes):
        node = part.nodes[i]
        if not node.is_leaf or sizes[i] == 0:
            if node.is_leaf:
                plan.est_diag_nnz[i] = 0
            continue
        Aii = sub(ranges[i], ranges[i])
        sym = symmetric_pattern(Aii)
        parent = etree(sym)
        etrees[i] = parent
        counts = symbolic_cholesky_counts(sym, parent)
        ledger.dfs_steps += int(counts.sum()) + sym.nnz
        plan.est_diag_nnz[i] = int(2 * counts.sum() - sizes[i])

        mark = np.full(sizes[i], -1, dtype=np.int64)
        for k in part.ancestors(i):
            if sizes[k] == 0:
                continue
            # Lower off-diagonal L_ki (line 6) -> lest.
            A_ki = sub(ranges[k], ranges[i])
            env_l, steps = _lower_envelope(A_ki, parent)
            ledger.dfs_steps += steps + A_ki.nnz
            lest[(k, i)] = env_l
            plan.est_lower_nnz[(k, i)] = env_l.nnz_estimate()
            # Upper off-diagonal U_ik (line 8) -> uest, exact counts.
            A_ik = sub(ranges[i], ranges[k])
            mark[:] = -1
            counts_u, env_u, steps = _leaf_upper_count(parent, _block_cols(A_ik), mark)
            ledger.dfs_steps += steps + A_ik.nnz
            uest[(i, k)] = env_u
            plan.est_upper_nnz[(i, k)] = int(counts_u.sum())

    # --- treelevel 1..log2(p): separators bottom-up (layout order).
    for j in range(part.n_nodes):
        node = part.nodes[j]
        if node.is_leaf or sizes[j] == 0:
            if not node.is_leaf:
                plan.est_diag_nnz[j] = 0
            continue
        n_j = sizes[j]
        subtree = [s for s in range(part.n_nodes) if j in part.ancestors(s)]

        # Diagonal LU_jj (line 14).
        env_d = _Envelope(n_j)
        Ajj = sub(ranges[j], ranges[j])
        for c in range(n_j):
            rows, _ = Ajj.col(c)
            env_d.include_rows(c, rows)
        for s in subtree:
            key_l, key_u = (j, s), (s, j)
            if key_l not in lest or key_u not in uest:
                continue
            el, eu = lest[key_l], uest[key_u]
            for c in range(n_j):
                if eu.col_empty(c):
                    continue
                lo, hi = el.range_hull(int(eu.lo[c]), int(eu.hi[c]))
                if hi >= lo:
                    env_d.include(c, lo, hi)
            ledger.dfs_steps += n_j
        # Fill propagation within the separator: running envelope.
        for c in range(1, n_j):
            if not env_d.col_empty(c - 1):
                lo = max(c, int(env_d.lo[c - 1]))
                hi = int(env_d.hi[c - 1])
                if hi >= lo:
                    env_d.include(c, lo, hi)
        lower_est = sum(
            int(env_d.hi[c] - max(env_d.lo[c], c) + 1)
            for c in range(n_j)
            if not env_d.col_empty(c) and env_d.hi[c] >= c
        )
        plan.est_diag_nnz[j] = max(2 * lower_est + n_j, n_j)

        # Lower off-diagonal L_kj for ancestors k (line 15) -> lest.
        for k in part.ancestors(j):
            if sizes[k] == 0:
                continue
            env_l = _Envelope(n_j)
            A_kj = sub(ranges[k], ranges[j])
            for c in range(n_j):
                rows, _ = A_kj.col(c)
                env_l.include_rows(c, rows)
            for s in subtree:
                key_l, key_u = (k, s), (s, j)
                if key_l not in lest or key_u not in uest:
                    continue
                el, eu = lest[key_l], uest[key_u]
                for c in range(n_j):
                    if eu.col_empty(c):
                        continue
                    lo, hi = el.range_hull(int(eu.lo[c]), int(eu.hi[c]))
                    if hi >= lo:
                        env_l.include(c, lo, hi)
                ledger.dfs_steps += n_j
            # Fill through U_jj: running-envelope propagation.
            for c in range(1, n_j):
                if not env_l.col_empty(c - 1):
                    env_l.include(c, int(env_l.lo[c - 1]), int(env_l.hi[c - 1]))
            lest[(k, j)] = env_l
            plan.est_lower_nnz[(k, j)] = env_l.nnz_estimate()

        # Upper off-diagonal U_jk for ancestors k (line 16) -> uest.
        for k in part.ancestors(j):
            if sizes[k] == 0:
                continue
            n_k = sizes[k]
            env_u = _Envelope(n_k)
            A_jk = sub(ranges[j], ranges[k])
            for c in range(n_k):
                rows, _ = A_jk.col(c)
                env_u.include_rows(c, rows)
            for s in subtree:
                key_l, key_u = (j, s), (s, k)
                if key_l not in lest or key_u not in uest:
                    continue
                el, eu = lest[key_l], uest[key_u]
                for c in range(n_k):
                    if eu.col_empty(c):
                        continue
                    lo, hi = el.range_hull(int(eu.lo[c]), int(eu.hi[c]))
                    if hi >= lo:
                        env_u.include(c, lo, hi)
                ledger.dfs_steps += n_k
            # Triangular solve through L_jj only moves rows downward:
            # extend every nonempty column's hull to the block bottom.
            for c in range(n_k):
                if not env_u.col_empty(c):
                    env_u.include(c, int(env_u.lo[c]), n_j - 1)
            uest[(j, k)] = env_u
            plan.est_upper_nnz[(j, k)] = env_u.nnz_estimate()

    return plan


# ----------------------------------------------------------------------
# Top-level analyze
# ----------------------------------------------------------------------


@domains(A="matrix[global]")
def analyze(
    A: CSC,
    n_threads: int,
    nd_threshold: int = DEFAULT_ND_THRESHOLD,
    nd_leaves: int | None = None,
) -> BaskerSymbolic:
    """Full symbolic analysis: coarse BTF + Algorithms 2 and 3.

    ``n_threads`` must be a power of two (paper §III-C: current ND
    implementations provide binary trees).  ``nd_leaves`` (default:
    ``n_threads``) allows more leaves than threads — the
    cache-friendliness vs pivoting-freedom trade-off the paper leaves
    unexplored; it must be a power-of-two multiple of ``n_threads``.
    """
    n = A.n_rows
    if A.n_cols != n:
        raise StructureError("Basker requires a square matrix")
    if n_threads < 1 or (n_threads & (n_threads - 1)) != 0:
        raise StructureError("n_threads must be a power of two")
    if nd_leaves is None:
        nd_leaves = n_threads
    if (
        nd_leaves < n_threads
        or (nd_leaves & (nd_leaves - 1)) != 0
        or nd_leaves % n_threads != 0
    ):
        raise StructureError("nd_leaves must be a power-of-two multiple of n_threads")

    tr = get_tracer()
    with tr.span("symbolic") as sp:
        ledger = CostLedger()
        res, B = btf_permuted(A, ledger)  # domain: matrix[btf]
        splits = res.block_splits  # domain: index[btf]

        fine_ids: List[int] = []
        nd_ids: List[int] = []
        for b in range(res.n_blocks):
            size = int(splits[b + 1] - splits[b])
            if size >= nd_threshold and n_threads > 1:
                nd_ids.append(b)
            else:
                fine_ids.append(b)

        # Algorithm 2 line 2: AMD on every fine block (KLU's front end).
        fine_ranges = [(int(splits[b]), int(splits[b + 1])) for b in fine_ids]
        p = amd_blocks(B, fine_ranges, ledger)  # domain: perm[btf->btf]
        row_pre = res.row_perm[p]  # domain: perm[global->btf]
        col_perm = res.col_perm[p]  # domain: perm[global->btf]

        fine_plan = None
        if fine_ids:
            fine_plan = _fine_btf_symbolic(B, splits, fine_ids, n_threads, p, ledger)

        nd_plans: List[NDBlockPlan] = []
        for b in nd_ids:
            lo, hi = int(splits[b]), int(splits[b + 1])
            Dblk = B.submatrix(lo, hi, lo, hi)
            # Local MWCM (Pm2) to protect the diagonal of the big block.
            pm2 = mwcm_row_permutation(Dblk)
            D1 = Dblk.permute(row_perm=pm2)
            ledger.dfs_steps += 2 * Dblk.nnz
            # ND on the symmetrized graph (p leaves by default).
            part = nested_dissection(D1, nleaves=nd_leaves)
            q = part.perm  # domain: perm[local:block->nd]
            D2 = D1.permute(q, q)  # domain: matrix[nd]
            # Per-node AMD refinement (local symmetric perms keep the
            # separator property intact).
            r = amd_blocks(D2, [part.node_range(t) for t in range(part.n_nodes)], ledger)
            local_row = compose(compose(pm2, q), r)  # perm[local:block->nd], inferred
            local_col = compose(q, r)  # perm[local:block->nd], inferred
            D3 = Dblk.permute(local_row, local_col)  # domain: matrix[nd]

            row_pre[lo:hi] = row_pre[lo:hi][local_row]
            col_perm[lo:hi] = col_perm[lo:hi][local_col]

            plan = _nd_block_symbolic(D3, part, b, lo, n_threads, ledger)
            nd_plans.append(plan)

        sp.attach(ledger)
    return BaskerSymbolic(
        n=n,
        n_threads=n_threads,
        btf_result=res,
        row_perm_pre=row_pre,
        col_perm=col_perm,
        fine_plan=fine_plan,
        nd_plans=nd_plans,
        ledger=ledger,
    )
