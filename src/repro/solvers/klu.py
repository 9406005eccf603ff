"""KLU reimplementation: the serial baseline solver.

KLU (Davis & Natarajan, ACM TOMS 907 — ref. [5] of the paper) is the
state-of-the-art *serial* circuit solver and the paper's speedup
baseline: permute to BTF (MWCM + strongly connected components), order
every diagonal block with AMD, factor each block with Gilbert–Peierls,
and never factor the off-diagonal blocks.  Basker was designed to
replace it; reproducing KLU faithfully is therefore as load-bearing as
reproducing Basker itself.

The class follows the analyze / factor / refactor / solve life cycle
that circuit simulators rely on: ``analyze`` is pattern-only and done
once per circuit; ``factor`` is repeated for every Newton iteration
with fresh values (re-pivoting each time, reusing all orderings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..contracts import domains, shapes
from ..obs.tracer import get_tracer
from ..ordering.amd import amd_order
from ..ordering.btf import BTFResult, btf
from ..errors import SingularMatrixError, StructureError
from ..ordering.perm import invert
from ..parallel.ledger import CostLedger
from ..resilience.faults import fault_values as _fault_values
from ..parallel.machine import MachineModel
from ..sparse.blocking import DensePlan
from ..sparse.csc import CSC
from ..sparse.schedule import (
    BTFSolveSchedule,
    RefactorPlan,
    ScheduleCompileError,
    refactor_plan,
)
from .gp import GP_DEFAULT_PIVOT_TOL, GPResult, gp_factor, gp_refactor
from .triangular import btf_solve, drop_solve_plan

__all__ = ["KLUSymbolic", "KLUNumeric", "KLU", "btf_permuted", "amd_blocks"]


# ----------------------------------------------------------------------
# The BTF front end shared by KLU and Basker
# ----------------------------------------------------------------------


@domains(A="matrix[global]")
def btf_permuted(A: CSC, ledger: CostLedger) -> Tuple[BTFResult, CSC]:
    """Coarse BTF of ``A`` (MWCM + SCC) and the permuted matrix.

    Charges the matching and SCC traversals (order ``nnz``) to
    ``ledger``.  The second result is ``A[row_perm][:, col_perm]`` of
    the returned :class:`BTFResult`: block upper triangular, diagonal
    blocks delimited by its ``block_splits``.
    """
    res = btf(A)
    ledger.dfs_steps += A.nnz  # matching + SCC traversals, order nnz
    return res, A.permute(res.row_perm, res.col_perm)


@domains(B="matrix[S]", returns="perm[S->S]")
def amd_blocks(B: CSC, ranges: Sequence[Tuple[int, int]],
               ledger: CostLedger) -> np.ndarray:
    """AMD-order the diagonal blocks ``B[lo:hi, lo:hi]`` of ``ranges``.

    Returns the block-diagonal local permutation ``p``: identity outside
    the ranges, ``lo + amd_order(block)`` on each, so ``perm[p]`` applies
    every block's ordering symmetrically to a row or column permutation.
    Charges ``4 * nnz`` per ordered block.
    """
    p = np.arange(B.n_rows, dtype=np.int64)
    for lo, hi in ranges:
        if hi - lo <= 1:
            continue
        blk = B.submatrix(lo, hi, lo, hi)
        ledger.dfs_steps += 4 * blk.nnz
        p[lo:hi] = p[lo:hi][amd_order(blk)]
    return p


@dataclass
class KLUSymbolic:
    """Pattern-only analysis: BTF structure + per-block AMD orderings.

    ``generation`` supports shared-cache eviction protocols: a borrower
    records the generation at borrow time and any later
    :meth:`invalidate` (cache eviction, explicit flush) bumps it, so a
    stale lease is *detected* (typed
    :class:`~repro.errors.CacheInvalidatedError` in the serving layer)
    instead of silently recomputing against dropped plans.
    """

    n: int
    btf_result: BTFResult
    row_perm_pre: np.ndarray   # BTF + AMD rows (before numerical pivoting)
    col_perm: np.ndarray       # BTF + AMD columns (final)
    ledger: CostLedger = field(default_factory=CostLedger)
    # Per-block dense-tail blocking plans for the blocked gp_factor,
    # cached on first factorization (pattern-only, so they survive any
    # number of refactor / pivot-fallback cycles on the fixed pattern).
    dense_plans: Optional[List[Optional[DensePlan]]] = None
    generation: int = 0

    @property
    def n_blocks(self) -> int:
        return self.btf_result.n_blocks

    @property
    def block_splits(self) -> np.ndarray:
        return self.btf_result.block_splits

    def invalidate(self) -> int:
        """Drop derived pattern caches and bump the generation counter.

        Returns the new generation.  Called by cache-eviction hooks; any
        lease taken at an older generation must fail typed rather than
        recompute under the borrower.
        """
        self.dense_plans = None
        self.generation += 1
        get_tracer().metrics.incr("klu.symbolic.evictions")
        return self.generation


@dataclass
class KLUNumeric:
    """Factors of one matrix: per-block LU plus the permuted matrix."""

    symbolic: KLUSymbolic
    block_lu: List[GPResult]
    row_perm: np.ndarray       # final rows, including per-block pivoting
    col_perm: np.ndarray
    M: CSC                     # (scaled) A[row_perm][:, col_perm], block upper triangular
    ledger: CostLedger
    block_ledgers: List[CostLedger]
    block_working_sets: List[float]
    row_scale: Optional[np.ndarray] = None  # equilibration factors, or None
    # Value gathers and blocked replay reused by refactor_fast across a
    # fixed-pattern sequence (None until the first refactor_fast, or
    # after a pivot fallback changed the row permutation).
    refactor_plan: Optional[RefactorPlan] = None
    # Compiled whole-BTF solve (None until the first solve); carried
    # across refactor_fast like refactor_plan.
    solve_plan: Optional[BTFSolveSchedule] = None

    @property
    def factor_nnz(self) -> int:
        """|L + U| counting each block's factors (diagonal stored once)."""
        total = 0
        for lu in self.block_lu:
            total += lu.L.nnz + lu.U.nnz - lu.L.n_cols  # unit diagonal of L not counted twice
        return total

    @property
    def factor_bytes(self) -> int:
        """Approximate bytes held by the factors (CSC: 8B value + 8B
        index per entry, 8B per column pointer) plus the retained
        permuted matrix used by the solve phase."""
        total = 0
        for lu in self.block_lu:
            total += 16 * (lu.L.nnz + lu.U.nnz) + 16 * (lu.L.n_cols + 1)
        total += 16 * self.M.nnz + 8 * (self.M.n_cols + 1)
        return total

    def factor_seconds(self, machine: MachineModel) -> float:
        """Serial numeric-factorization time on the given machine."""
        t = 0.0
        for led, ws in zip(self.block_ledgers, self.block_working_sets):
            t += machine.seconds(led, ws)
        return t

    def invalidate_caches(self) -> int:
        """Eviction hook: drop every derived cache hanging off this
        numeric object — the refactor plan and the compiled BTF solve
        plan.

        Returns the number of compiled solve plans released (0 or 1).
        Does *not* touch the factors themselves (the object stays
        usable; it just recompiles on next use) and does not bump the
        symbolic generation — callers evicting a shared-cache entry
        combine this with :meth:`KLUSymbolic.invalidate`.
        """
        self.refactor_plan = None
        return drop_solve_plan(self)


class KLU:
    """BTF + AMD + Gilbert–Peierls serial sparse LU.

    ``scale`` applies KLU-style row equilibration before factoring:
    ``"max"`` divides each row by its largest magnitude, ``"sum"`` by
    its 1-norm, ``None`` disables scaling.  (The reference KLU defaults
    to max-scaling; here the default is off so that unscaled and scaled
    paths are both first-class.)
    """

    name = "KLU"

    def __init__(
        self,
        pivot_tol: float = GP_DEFAULT_PIVOT_TOL,
        scale: str | None = None,
        static_perturb: float = 0.0,
    ):
        if scale not in (None, "max", "sum"):
            raise StructureError("scale must be None, 'max' or 'sum'")
        self.pivot_tol = float(pivot_tol)
        self.scale = scale
        self.static_perturb = float(static_perturb)

    def _row_scale(self, A: CSC) -> np.ndarray:
        """Row equilibration factors r with R = diag(r)."""
        n = A.n_rows
        agg = np.zeros(n, dtype=np.float64)
        if self.scale == "max":
            np.maximum.at(agg, A.indices, np.abs(A.data))
        else:
            np.add.at(agg, A.indices, np.abs(A.data))
        agg[agg == 0.0] = 1.0
        return 1.0 / agg

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    @shapes(A="csc[n,n]")
    def analyze(self, A: CSC) -> KLUSymbolic:
        """Pattern analysis: MWCM + BTF + per-block AMD."""
        n = A.n_rows
        if A.n_cols != n:
            raise StructureError("KLU requires a square matrix")
        tr = get_tracer()
        with tr.span("symbolic") as sp:
            led = CostLedger()
            res, B = btf_permuted(A, led)  # domain: matrix[btf]
            splits = res.block_splits
            ranges = [(int(splits[k]), int(splits[k + 1])) for k in range(res.n_blocks)]
            p = amd_blocks(B, ranges, led)  # domain: perm[btf->btf]
            row_pre = res.row_perm[p]  # domain: perm[global->btf]
            col_perm = res.col_perm[p]  # domain: perm[global->btf]
            sp.attach(led)
        return KLUSymbolic(n=n, btf_result=res, row_perm_pre=row_pre, col_perm=col_perm, ledger=led)

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    @shapes(A="csc[n,n]")
    def factor(self, A: CSC, symbolic: Optional[KLUSymbolic] = None) -> KLUNumeric:
        """Numeric factorization (with per-block partial pivoting)."""
        if symbolic is None:
            symbolic = self.analyze(A)
        splits = symbolic.block_splits
        tr = get_tracer()
        sp = tr.span("numeric.gp")
        with sp:
            r = None
            if self.scale is not None:
                r = self._row_scale(A)
                A = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                        A.data * r[A.indices])
            B = A.permute(symbolic.row_perm_pre, symbolic.col_perm)
            total = CostLedger()
            overhead = CostLedger()
            overhead.mem_words += A.nnz  # permutation / block scatter traffic
            if r is not None:
                overhead.mem_words += A.nnz  # scaling pass
            total.add(overhead)
            sp.attach_overhead(overhead)

            block_lu: List[GPResult] = []
            block_ledgers: List[CostLedger] = []
            block_ws: List[float] = []
            row_perm = symbolic.row_perm_pre.copy()  # domain: perm[global->btf]
            if symbolic.dense_plans is None:
                symbolic.dense_plans = [None] * symbolic.n_blocks
            for k in range(symbolic.n_blocks):
                lo, hi = int(splits[k]), int(splits[k + 1])
                blk = B.submatrix(lo, hi, lo, hi)
                led = CostLedger()
                with tr.span("numeric.gp.block") as bsp:
                    if tr.enabled:
                        bsp.set(block=k, n=hi - lo)
                    lu = gp_factor(blk, pivot_tol=self.pivot_tol,
                                   static_perturb=self.static_perturb, ledger=led,
                                   dense_plan=symbolic.dense_plans[k])
                symbolic.dense_plans[k] = lu.dense_plan
                bsp.attach(led)
                block_lu.append(lu)
                block_ledgers.append(led)
                block_ws.append((lu.L.nnz + lu.U.nnz) * 12.0 + (hi - lo) * 8.0)
                total.add(led)
                # Fold the block's pivot permutation into the global rows.
                row_perm[lo:hi] = row_perm[lo:hi][lu.row_perm]

            M = A.permute(row_perm, symbolic.col_perm)
            sp.attach(total)
        return KLUNumeric(
            symbolic=symbolic,
            block_lu=block_lu,
            row_perm=row_perm,
            col_perm=symbolic.col_perm,
            M=M,
            ledger=total,
            block_ledgers=block_ledgers,
            block_working_sets=block_ws,
            row_scale=r,
        )

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    @shapes(A="csc[n,n]")
    def refactor(self, A: CSC, numeric: KLUNumeric) -> KLUNumeric:
        """Factor a matrix with the same pattern, reusing the analysis.

        This is the hot path of the Xyce transient experiment (paper
        §V-F): the symbolic analysis is computed once and reused for
        every matrix of the sequence, while pivoting is redone per
        matrix.
        """
        return self.factor(A, symbolic=numeric.symbolic)

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    @shapes(A="csc[n,n]")
    def refactor_fast(self, A: CSC, numeric: KLUNumeric) -> KLUNumeric:
        """``klu_refactor``: values-only update on fixed patterns/pivots.

        Reuses the previous numeric object's per-block patterns *and*
        pivot orders — no reach DFS, no pivot search.  Any block whose
        reused pivot degenerates falls back to a full Gilbert–Peierls
        factorization of that block (fresh pivoting), matching the
        recommended klu_refactor/klu_factor usage pattern.

        Every block replays at once through the shared
        :class:`~repro.sparse.schedule.RefactorPlan`, compiled on the
        first call and carried on the numeric objects, so every later
        matrix of a fixed-pattern sequence is pure value gathers plus
        one vectorized level-scheduled replay.
        """
        symbolic = numeric.symbolic
        splits = symbolic.block_splits
        tr = get_tracer()
        sp = tr.span("refactor.replay")
        with sp:
            r = None
            if self.scale is not None:
                r = self._row_scale(A)
                A = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                        A.data * r[A.indices])
            # Reuse the *final* row permutation (pivoting included): the
            # permuted diagonal blocks then refactor pivot-free.
            plan = refactor_plan(numeric.refactor_plan, "klu", A, numeric.row_perm,
                                 symbolic.col_perm, splits)
            numeric.refactor_plan = plan
            M = plan.permute(_fault_values("klu.refactor.values", A.data))
            total = CostLedger()
            overhead = CostLedger()
            overhead.mem_words += A.nnz
            total.add(overhead)
            sp.attach_overhead(overhead)

            # Hot path: one replay of every block.  A degenerate reused
            # pivot or an unschedulable pattern drops to the per-block
            # loop, which re-pivots only the blocks that need it.
            try:
                replayed = plan.replay(M.data, [(lu.L, lu.U) for lu in numeric.block_lu])
            except ScheduleCompileError:
                replayed = None
            except SingularMatrixError:
                tr.metrics.incr("klu.refactor.singular_fallback")
                replayed = None

            block_lu: List[GPResult] = []
            block_ledgers: List[CostLedger] = []
            row_perm = numeric.row_perm
            fell_back = False
            if replayed is not None:
                for prior, (L, U, led) in zip(numeric.block_lu, replayed):
                    # Identity pivot order within the pre-pivoted block.
                    block_lu.append(GPResult(L, U, np.arange(L.n_cols, dtype=np.int64),
                                             led, schedule=prior.schedule))
                    block_ledgers.append(led)
            else:
                row_perm = row_perm.copy()
                for k in range(symbolic.n_blocks):
                    lo, hi = int(splits[k]), int(splits[k + 1])
                    bptr, brows, bgather = plan.blocks[k]
                    blk = CSC(hi - lo, hi - lo, bptr, brows, M.data[bgather])
                    led = CostLedger()
                    prior = numeric.block_lu[k]
                    try:
                        fixed = GPResult(prior.L, prior.U,
                                         np.arange(hi - lo, dtype=np.int64), led,
                                         schedule=prior.schedule)
                        lu = gp_refactor(blk, fixed, ledger=led)
                        # Persist the compiled schedule on the prior numeric
                        # too (covers callers that keep refactoring from one
                        # object).
                        prior.schedule = lu.schedule
                    except SingularMatrixError:
                        tr.metrics.incr("klu.refactor.block_fallback")
                        plans = symbolic.dense_plans
                        lu = gp_factor(blk, pivot_tol=self.pivot_tol,
                                       static_perturb=self.static_perturb, ledger=led,
                                       dense_plan=plans[k] if plans else None)
                        if plans is not None:
                            plans[k] = lu.dense_plan
                        row_perm[lo:hi] = row_perm[lo:hi][lu.row_perm]
                        fell_back = True
                    block_lu.append(lu)
                    block_ledgers.append(led)
            for led in block_ledgers:
                total.add(led)

            if fell_back:
                # The row permutation changed: the plans keyed to the old
                # one no longer apply to the result.
                M = A.permute(row_perm, symbolic.col_perm)
                plan = None
            sp.attach(total)
            return KLUNumeric(
                symbolic=symbolic,
                block_lu=block_lu,
                row_perm=row_perm,
                col_perm=symbolic.col_perm,
                M=M,
                ledger=total,
                block_ledgers=block_ledgers,
                block_working_sets=[(lu.L.nnz + lu.U.nnz) * 12.0 + lu.L.n_cols * 8.0
                                    for lu in block_lu],
                row_scale=r,
                refactor_plan=plan,
                solve_plan=None if fell_back else numeric.solve_plan,
            )

    # ------------------------------------------------------------------
    @domains(b="vec[global]", returns="vec[global]")
    def solve(self, numeric: KLUNumeric, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` by block back-substitution over the BTF;
        ``b`` is ``(n,)`` or ``(n, k)``."""
        return btf_solve(numeric, b)
