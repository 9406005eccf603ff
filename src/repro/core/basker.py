"""The Basker solver: hierarchical parallel sparse LU.

Public entry point of the reproduction.  Mirrors the paper's design:

* coarse BTF (MWCM + SCC) — only diagonal blocks factor;
* small blocks take the embarrassingly parallel fine-BTF path
  (Algorithm 2 symbolic, parallel-for Gilbert–Peierls numeric);
* large irreducible blocks take the fine-ND path (Algorithm 3
  symbolic, Algorithm 4 parallel numeric on the 2-D block hierarchy);
* the numeric factorization emits a task DAG with Basker's static
  thread mapping; :meth:`BaskerNumeric.schedule` replays it on a
  simulated machine to produce the parallel makespan (see DESIGN.md for
  why simulation substitutes for real threads in this reproduction).

Life cycle matches circuit-simulator usage: ``analyze`` once per
pattern, ``factor``/``refactor`` per matrix, ``solve`` per right-hand
side.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

# effects: blocks fine_lu=fineLU row_perm=rowperm
# effects: emitter builder

from ..contracts import domains
from ..errors import SingularMatrixError, StructureError
from ..obs.tracer import get_tracer
from ..parallel.ledger import CostLedger
from ..resilience.faults import fault_values as _fault_values
from ..parallel.machine import MachineModel, SANDY_BRIDGE
from ..parallel.sim import Schedule, SimTask, simulate
from ..solvers.gp import GP_DEFAULT_PIVOT_TOL, GPResult, gp_factor
from ..solvers.triangular import btf_solve, drop_solve_plan
from ..sparse.csc import CSC
from ..sparse.schedule import (
    BTFSolveSchedule,
    FactorStore,
    RefactorPlan,
    ScheduleCompileError,
    refactor_plan,
)
from .numeric import NDNumericBlock, TaskBuilder, factor_nd_block
from .structure import BaskerSymbolic
from .symbolic import DEFAULT_ND_THRESHOLD, analyze as symbolic_analyze

__all__ = ["Basker", "BaskerNumeric"]


def _block_store(n_blocks: int, fine_lu: Dict[int, GPResult],
                 nd_numeric: Dict[int, NDNumericBlock]) -> FactorStore:
    """The factor store of freshly factored fine-BTF and fine-ND blocks."""
    factors = [fine_lu.get(k) or nd_numeric.get(k) for k in range(n_blocks)]
    return FactorStore.of_blocks([None if f is None else (f.L, f.U) for f in factors],
                                 [None if f is None else f.ledger for f in factors])


@dataclass
class BaskerNumeric:
    """Factors + task DAG for one matrix."""

    symbolic: BaskerSymbolic
    store: FactorStore                      # every coarse block's L and U values
    row_perm: np.ndarray                    # final rows incl. all pivoting
    col_perm: np.ndarray
    M: CSC                                  # A[row_perm][:, col_perm]
    tasks: List[SimTask]
    task_labels: Dict[int, str]
    ledger: CostLedger
    # The fresh factorization's ND blocks, by coarse block id: their
    # plans, pivots and off-diagonal blocks stay with every replay.
    nd_src: Dict[int, NDNumericBlock]
    # Work in ``ledger`` not attributed to any task (input block scatter
    # + factor assembly); repro.analysis.conservation balances
    # sum(task ledgers) + overhead_ledger == ledger.
    overhead_ledger: CostLedger = field(default_factory=CostLedger)
    # Value gathers and blocked replay reused by refactor_fast across a
    # fixed-pattern sequence (None until then).
    refactor_plan: Optional[RefactorPlan] = None
    # Compiled whole-BTF solve (None until the first solve); carried
    # across refactor_fast like refactor_plan.
    solve_plan: Optional[BTFSolveSchedule] = None
    # The fine-BTF and fine-ND factors: a fresh factorization's own,
    # otherwise built from the store on first access.
    _fine_lu: Optional[Dict[int, GPResult]] = field(default=None, repr=False)
    _nd_numeric: Optional[Dict[int, NDNumericBlock]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def fine_lu(self) -> Dict[int, GPResult]:
        """Coarse block id -> GP factors of every fine-BTF block."""
        if self._fine_lu is None:
            self._views()
        return self._fine_lu

    @property
    def nd_numeric(self) -> Dict[int, NDNumericBlock]:
        """Coarse block id -> factors of every fine-ND block."""
        if self._nd_numeric is None:
            self._views()
        return self._nd_numeric

    def _views(self) -> None:
        """The per-block factors of a values-only refactorization, as
        views of the store: identity pivot orders, each block's share
        of the replay's ledger, and no task overhead."""
        store = self.store
        self._fine_lu, self._nd_numeric = {}, {}
        for k, (blk, led) in enumerate(zip(store.blocks(), store.ledgers)):
            if blk is None:
                continue
            L, U = blk
            if k in self.nd_src:
                self._nd_numeric[k] = dataclasses.replace(
                    self.nd_src[k], L=L, U=U, ledger=led.copy(), overhead=CostLedger())
            else:
                self._fine_lu[k] = GPResult(L, U, np.arange(L.n_cols, dtype=np.int64),
                                            led.copy())

    @property
    def factor_nnz(self) -> int:
        """|L + U| over all factored diagonal blocks (Table I metric)."""
        return self.store.factor_nnz

    @property
    def factor_bytes(self) -> int:
        """Approximate bytes held by the factors and the solve-phase
        permuted matrix (16 B per stored entry + column pointers)."""
        return self.store.factor_bytes + 16 * self.M.nnz + 8 * (self.M.n_cols + 1)

    def schedule(
        self,
        machine: MachineModel = SANDY_BRIDGE,
        n_threads: Optional[int] = None,
        sync_mode: str = "p2p",
    ) -> Schedule:
        """Replay the numeric task DAG on a simulated machine.

        ``n_threads`` may exceed the plan's thread count (extra cores
        idle) but not undercut it — Basker's thread mapping is static,
        so running with fewer cores requires re-analyzing with that
        thread count (exactly what the paper's scaling studies do).
        """
        p = n_threads if n_threads is not None else self.symbolic.n_threads
        if p < self.symbolic.n_threads:
            raise StructureError(
                f"plan was built for {self.symbolic.n_threads} threads; "
                f"re-run analyze/factor with n_threads={p} instead"
            )
        return simulate(self.tasks, machine, p, sync_mode=sync_mode)

    def factor_seconds(
        self,
        machine: MachineModel = SANDY_BRIDGE,
        n_threads: Optional[int] = None,
        sync_mode: str = "p2p",
    ) -> float:
        return self.schedule(machine, n_threads, sync_mode).makespan

    def block_factors(self, b: int) -> Tuple[CSC, CSC]:
        """(L, U) of coarse block ``b``, views of the store."""
        return self.store.block(b)

    def invalidate_caches(self) -> int:
        """Eviction hook: drop the refactor plan and the compiled BTF
        solve plan, as
        :meth:`repro.solvers.klu.KLUNumeric.invalidate_caches` does.

        Returns the number of compiled solve plans released (0 or 1).
        The factors stay usable; the next use recompiles.
        """
        self.refactor_plan = None
        return drop_solve_plan(self)


class Basker:
    """Threaded sparse LU via hierarchical parallelism and 2-D layouts."""

    name = "Basker"

    def __init__(
        self,
        n_threads: int = 4,
        pivot_tol: float = GP_DEFAULT_PIVOT_TOL,
        nd_threshold: int = DEFAULT_ND_THRESHOLD,
        static_perturb: float = 0.0,
        nd_leaves: int | None = None,
        supernodal_separators: bool = False,
        pipeline_columns: int | None = None,
    ):
        if n_threads < 1 or (n_threads & (n_threads - 1)) != 0:
            raise StructureError("n_threads must be a power of two (paper §III-C)")
        self.n_threads = n_threads
        self.pivot_tol = float(pivot_tol)
        self.nd_threshold = int(nd_threshold)
        self.static_perturb = float(static_perturb)
        self.nd_leaves = nd_leaves
        self.supernodal_separators = bool(supernodal_separators)
        self.pipeline_columns = pipeline_columns

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    def analyze(self, A: CSC) -> BaskerSymbolic:
        """Symbolic analysis (Algorithms 2 and 3); pattern + values (MWCM)."""
        return symbolic_analyze(
            A,
            self.n_threads,
            nd_threshold=self.nd_threshold,
            nd_leaves=self.nd_leaves,
        )

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    def factor(self, A: CSC, symbolic: Optional[BaskerSymbolic] = None) -> BaskerNumeric:
        """Parallel numeric factorization (Algorithm 4 + fine BTF)."""
        if symbolic is None:
            symbolic = self.analyze(A)
        tr = get_tracer()
        sp = tr.span("numeric.gp")
        with sp:
            B = A.permute(symbolic.row_perm_pre, symbolic.col_perm)  # domain: matrix[btf]
            splits = symbolic.block_splits  # domain: index[btf]
            builder = TaskBuilder()
            total = CostLedger()
            overhead = CostLedger()
            overhead.mem_words += A.nnz  # block scatter
            total.add(overhead)
            # Own-work cost of this span: just the block scatter — the
            # fine/ND children account for everything else (nd.overhead
            # is contained in nd.ledger, which the ND child spans carry).
            sp.attach_overhead(overhead)

            row_perm = symbolic.row_perm_pre.copy()  # domain: perm[global->btf]
            fine_lu: Dict[int, GPResult] = {}
            nd_numeric: Dict[int, NDNumericBlock] = {}

            # Fine-BTF blocks: embarrassingly parallel Gilbert–Peierls,
            # one task per block on its statically mapped thread.
            if symbolic.fine_plan is not None:
                plan = symbolic.fine_plan
                for b_idx, thread in zip(plan.block_ids, plan.thread_of):
                    lo, hi = int(splits[b_idx]), int(splits[b_idx + 1])
                    blk = B.submatrix(lo, hi, lo, hi)
                    led = CostLedger()
                    with tr.span("numeric.gp.fine") as fsp:
                        if tr.enabled:
                            fsp.set(block=b_idx, n=hi - lo, thread=thread)
                        lu = gp_factor(blk, pivot_tol=self.pivot_tol,
                                       static_perturb=self.static_perturb, ledger=led,
                                       dense_plan=symbolic.dense_plans.get(b_idx))
                    symbolic.dense_plans[b_idx] = lu.dense_plan
                    fsp.attach(led)
                    fine_lu[b_idx] = lu
                    row_perm[lo:hi] = row_perm[lo:hi][lu.row_perm]
                    total.add(led)
                    builder.add(
                        ("fine", b_idx), led, deps=[], thread=thread,
                        working_set=12.0 * (lu.L.nnz + lu.U.nnz) + 8.0 * (hi - lo),
                        reads=[("fineA", b_idx)],
                        writes=[("fineLU", b_idx), ("rowperm", "fine", b_idx)],
                    )

            # Fine-ND blocks: Algorithm 4.
            for plan in symbolic.nd_plans:
                lo, hi = plan.offset, plan.offset + plan.size
                Dblk = B.submatrix(lo, hi, lo, hi)  # domain: matrix[nd]
                with tr.span("numeric.gp.nd") as nsp:
                    nd = factor_nd_block(
                        Dblk,
                        plan,
                        builder,
                        pivot_tol=self.pivot_tol,
                        static_perturb=self.static_perturb,
                        supernodal_separators=self.supernodal_separators,
                        pipeline_columns=self.pipeline_columns,
                    )
                    if tr.enabled:
                        nsp.set(block=plan.block_id, n=hi - lo)
                nsp.attach(nd.ledger)
                nd_numeric[plan.block_id] = nd
                row_perm[lo:hi] = row_perm[lo:hi][nd.piv]
                total.add(nd.ledger)
                overhead.add(nd.overhead)

            M = A.permute(row_perm, symbolic.col_perm)
            sp.attach(total)
        return BaskerNumeric(
            symbolic=symbolic,
            store=_block_store(symbolic.n_blocks, fine_lu, nd_numeric),
            row_perm=row_perm,
            col_perm=symbolic.col_perm,
            M=M,
            tasks=builder.tasks,
            task_labels=builder.labels(),
            ledger=total,
            nd_src=nd_numeric,
            overhead_ledger=overhead,
            _fine_lu=fine_lu,
            _nd_numeric=nd_numeric,
        )

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    def refactor(self, A: CSC, numeric: BaskerNumeric) -> BaskerNumeric:
        """Factor a same-pattern matrix reusing the symbolic analysis.

        The Xyce transient path (paper §V-F): orderings, block
        structure and thread mapping are reused; pivoting is redone for
        the new values.
        """
        return self.factor(A, symbolic=numeric.symbolic)

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    def refactor_fast(self, A: CSC, numeric: BaskerNumeric) -> BaskerNumeric:
        """Values-only refactorization on fixed patterns and pivots.

        Replays every coarse block's factors, fine and ND alike, at once
        through the shared :class:`~repro.sparse.schedule.RefactorPlan`
        — no reach DFS, no pivot search, no per-step permutation
        rebuild.  Falls back to :meth:`refactor` (fresh pivoting) when a
        reused pivot degenerates or the patterns cannot be scheduled.

        The result carries *no* task DAG (``tasks == []`` with the whole
        ledger booked as overhead, which keeps the conservation checks
        consistent); modelled parallel times still come from
        :meth:`refactor`.  This is the wall-clock sequence path.
        """
        try:
            return self._refactor_fast(A, numeric)
        except (SingularMatrixError, ScheduleCompileError):
            get_tracer().metrics.incr("basker.refactor.fallback")
            return self.refactor(A, numeric)

    def _refactor_fast(self, A: CSC, numeric: BaskerNumeric) -> BaskerNumeric:
        sym = numeric.symbolic
        sp = get_tracer().span("refactor.replay")
        with sp:
            plan = refactor_plan(numeric.refactor_plan, "basker", A, numeric.row_perm,
                                 sym.col_perm, sym.block_splits)
            numeric.refactor_plan = plan
            M = plan.permute(_fault_values("basker.refactor.values", A.data))
            store, factor_ledger = plan.replay(M.data, numeric.store.pattern)
            total = CostLedger()
            total.mem_words += A.nnz
            total.add(factor_ledger)
            sp.attach(total)
        return BaskerNumeric(
            symbolic=sym,
            store=store,
            # Shared, not copied (immutable by convention): the plans
            # then revalidate by identity along the sequence.
            row_perm=numeric.row_perm,
            col_perm=sym.col_perm,
            M=M,
            tasks=[],
            task_labels={},
            ledger=total,
            nd_src=numeric.nd_src,
            overhead_ledger=total.copy(),
            refactor_plan=plan,
            solve_plan=numeric.solve_plan,
        )

    # ------------------------------------------------------------------
    @domains(b="vec[global]", returns="vec[global]")
    def solve(self, numeric: BaskerNumeric, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` via coarse-BTF block back-substitution;
        ``b`` is ``(n,)`` or ``(n, k)``."""
        return btf_solve(numeric, b)
