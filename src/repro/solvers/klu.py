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
    FactorStore,
    RefactorPlan,
    ScheduleCompileError,
    refactor_plan,
)
from .gp import GP_DEFAULT_PIVOT_TOL, GPResult, gp_factor
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
    store: FactorStore         # every block's L and U values
    row_perm: np.ndarray       # final rows, including per-block pivoting
    col_perm: np.ndarray
    M: CSC                     # A[row_perm][:, col_perm], block upper triangular
    ledger: CostLedger
    block_working_sets: List[float]
    # Value gathers and blocked replay reused by refactor_fast across a
    # fixed-pattern sequence (None until the first refactor_fast).
    refactor_plan: Optional[RefactorPlan] = None
    # Compiled whole-BTF solve (None until the first solve); carried
    # across refactor_fast like refactor_plan.
    solve_plan: Optional[BTFSolveSchedule] = None
    # Per-block GP results: a fresh factorization's own, otherwise built
    # from the store on first access (see :attr:`block_lu`).
    _block_lu: Optional[List[GPResult]] = field(default=None, repr=False)

    @property
    def block_lu(self) -> List[GPResult]:
        """Per block, its ``GPResult``; the factors are views of the
        store.  After a values-only refactorization every block keeps
        its rows in place (identity pivot order) and carries its share of
        the replay's ledger."""
        if self._block_lu is None:
            store = self.store
            self._block_lu = [
                GPResult(L, U, np.arange(L.n_cols, dtype=np.int64), led.copy())
                for (L, U), led in zip(store.blocks(), store.ledgers)]
        return self._block_lu

    @property
    def block_ledgers(self) -> List[CostLedger]:
        return [lu.ledger for lu in self.block_lu]

    @property
    def factor_nnz(self) -> int:
        """|L + U| counting each block's factors (diagonal stored once)."""
        return self.store.factor_nnz

    @property
    def factor_bytes(self) -> int:
        """Approximate bytes held by the factors (CSC: 8B value + 8B
        index per entry, 8B per column pointer) plus the retained
        permuted matrix used by the solve phase."""
        return self.store.factor_bytes + 16 * self.M.nnz + 8 * (self.M.n_cols + 1)

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

    ``pivot_tol`` and ``static_perturb`` go to every block's
    :func:`~repro.solvers.gp.gp_factor`.  The input is factored unscaled
    (the reference KLU's row equilibration is not reproduced).
    """

    name = "KLU"

    def __init__(
        self,
        pivot_tol: float = GP_DEFAULT_PIVOT_TOL,
        static_perturb: float = 0.0,
    ):
        self.pivot_tol = float(pivot_tol)
        self.static_perturb = float(static_perturb)

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
            B = A.permute(symbolic.row_perm_pre, symbolic.col_perm)
            total = CostLedger()
            overhead = CostLedger()
            overhead.mem_words += A.nnz  # permutation / block scatter traffic
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
            store=FactorStore.of_blocks([(lu.L, lu.U) for lu in block_lu], block_ledgers),
            row_perm=row_perm,
            col_perm=symbolic.col_perm,
            M=M,
            ledger=total,
            block_working_sets=block_ws,
            _block_lu=block_lu,
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
        pivot orders — no reach DFS, no pivot search.  Every block
        replays at once through the shared
        :class:`~repro.sparse.schedule.RefactorPlan`, compiled on the
        first call and carried on the numeric objects, so every later
        matrix of a fixed-pattern sequence is pure value gathers plus
        one vectorized level-scheduled replay.  When a reused pivot
        degenerates or the patterns cannot be scheduled, returns
        :meth:`refactor` instead (``klu_factor``: fresh pivoting), the
        recommended klu_refactor/klu_factor usage pattern.
        """
        try:
            return self._refactor_fast(A, numeric)
        except (SingularMatrixError, ScheduleCompileError):
            get_tracer().metrics.incr("klu.refactor.fallback")
            return self.refactor(A, numeric)

    def _refactor_fast(self, A: CSC, numeric: KLUNumeric) -> KLUNumeric:
        symbolic = numeric.symbolic
        sp = get_tracer().span("refactor.replay")
        with sp:
            # Reuse the *final* row permutation (pivoting included): the
            # permuted diagonal blocks then refactor pivot-free.
            plan = refactor_plan(numeric.refactor_plan, "klu", A, numeric.row_perm,
                                 symbolic.col_perm, symbolic.block_splits)
            numeric.refactor_plan = plan
            M = plan.permute(_fault_values("klu.refactor.values", A.data))
            store, factor_ledger = plan.replay(M.data, numeric.store.pattern)
            # Costs are attached only once the replay succeeded: a failed
            # replay's span then carries none, the fallback's spans all.
            total = CostLedger()
            total.mem_words += A.nnz  # permutation / scatter traffic
            sp.attach_overhead(total)  # copied now: the overhead alone
            total.add(factor_ledger)
            sp.attach(total)
        return KLUNumeric(
            symbolic=symbolic,
            store=store,
            row_perm=numeric.row_perm,
            col_perm=symbolic.col_perm,
            M=M,
            ledger=total,
            # Fixed by the patterns, which a replay keeps.
            block_working_sets=numeric.block_working_sets,
            refactor_plan=plan,
            solve_plan=numeric.solve_plan,
        )

    # ------------------------------------------------------------------
    @domains(b="vec[global]", returns="vec[global]")
    def solve(self, numeric: KLUNumeric, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` by block back-substitution over the BTF;
        ``b`` is ``(n,)`` or ``(n, k)``."""
        return btf_solve(numeric, b)
