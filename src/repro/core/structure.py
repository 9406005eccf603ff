"""Hierarchical 2-D structure bookkeeping for Basker.

Basker's symbolic phase produces a *plan*: the coarse BTF decomposition,
the classification of diagonal blocks into "fine BTF" (many tiny
independent blocks — Algorithm 2) versus "fine ND" (large irreducible
blocks reordered by nested dissection — Algorithm 3), the per-block
local orderings, the thread assignments, and the symbolic nnz
estimates.  The numeric phase (Algorithm 4) consumes these plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ordering.btf import BTFResult
from ..ordering.nd import NDPartition
from ..parallel.ledger import CostLedger
from ..sparse.blocking import DensePlan

__all__ = ["FineBTFPlan", "NDBlockPlan", "BaskerSymbolic"]


@dataclass
class FineBTFPlan:
    """Plan for a run of small independent BTF diagonal blocks (Alg. 2).

    ``block_ids`` index into the coarse BTF splits.  All arrays are
    parallel to ``block_ids``.
    """

    block_ids: List[int]
    est_nnz: List[int]          # estimated |L+U| per block
    est_ops: List[float]        # estimated factor flops per block
    thread_of: List[int]        # static thread assignment (Alg. 2 line 5)

    @property
    def n_blocks(self) -> int:
        return len(self.block_ids)

    def blocks_of_thread(self, t: int) -> List[int]:
        return [b for b, th in zip(self.block_ids, self.thread_of) if th == t]


@dataclass
class NDBlockPlan:
    """Plan for one large irreducible block treated with fine ND (Alg. 3).

    The local permutation (MWCM rows + ND + per-node AMD refinements)
    has already been folded into the *global* permutation stored on
    :class:`BaskerSymbolic`; this plan retains the tree and the
    per-2-D-block symbolic estimates.
    """

    block_id: int               # coarse BTF block index
    offset: int                 # start of this block in the global permuted matrix
    size: int
    partition: NDPartition      # node ranges are local to the block
    owner_thread: Dict[int, int] = field(default_factory=dict)   # tree node -> owning thread
    subtree_threads: Dict[int, List[int]] = field(default_factory=dict)
    est_diag_nnz: Dict[int, int] = field(default_factory=dict)   # node -> est |L+U| of diagonal
    est_lower_nnz: Dict[Tuple[int, int], int] = field(default_factory=dict)  # (k, i) -> est |L_ki|
    est_upper_nnz: Dict[Tuple[int, int], int] = field(default_factory=dict)  # (i, k) -> est |U_ik|

    @property
    def n_nodes(self) -> int:
        return self.partition.n_nodes

    def total_estimated_nnz(self) -> int:
        return (
            sum(self.est_diag_nnz.values())
            + sum(self.est_lower_nnz.values())
            + sum(self.est_upper_nnz.values())
        )


@dataclass
class BaskerSymbolic:
    """Complete symbolic analysis of one matrix pattern.

    ``A.permute(row_perm_pre, col_perm)`` is the matrix Basker actually
    factors: block upper triangular at the coarse level, with fine-BTF
    blocks AMD-ordered and fine-ND blocks in the 2-D layout of
    Figure 3(a).  ``row_perm_pre`` excludes numerical pivoting (which
    is folded in per factorization).

    Index domains (checked by ``repro.analysis.domains``): both
    ``row_perm_pre`` and ``col_perm`` are ``perm[global->btf]`` — they
    carry the coarse BTF permutation with all block-local reorderings
    (AMD, ND, per-node AMD) folded into the per-block index ranges.
    Code that copies them into locals should pin the domain with a
    ``# domain: perm[global->btf]`` comment.
    """

    n: int
    n_threads: int
    btf_result: BTFResult
    row_perm_pre: np.ndarray   # domain (doc only): perm[global->btf]
    col_perm: np.ndarray       # domain (doc only): perm[global->btf]
    fine_plan: Optional[FineBTFPlan]
    nd_plans: List[NDBlockPlan]
    ledger: CostLedger = field(default_factory=CostLedger)
    # Fine blocks' dense-tail plans for the blocked gp_factor, by coarse
    # block id, cached on first factorization (pattern-only, like
    # ``KLUSymbolic.dense_plans``; gp_factor re-detects a stale plan).
    dense_plans: Dict[int, Optional[DensePlan]] = field(default_factory=dict)

    @property
    def n_blocks(self) -> int:
        return self.btf_result.n_blocks

    @property
    def block_splits(self) -> np.ndarray:
        return self.btf_result.block_splits

    def describe(self) -> str:
        lines = [
            f"BaskerSymbolic(n={self.n}, threads={self.n_threads})",
            f"  coarse BTF blocks: {self.n_blocks}",
        ]
        if self.fine_plan:
            lines.append(f"  fine-BTF blocks: {self.fine_plan.n_blocks}")
        for plan in self.nd_plans:
            lines.append(
                f"  ND block #{plan.block_id}: size {plan.size}, "
                f"{len(plan.partition.leaves())} leaves, est nnz {plan.total_estimated_nnz()}"
            )
        return "\n".join(lines)
