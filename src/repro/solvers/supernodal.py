"""Supernodal sparse LU — the PMKL (Intel MKL Pardiso) stand-in.

Pardiso is closed source; per DESIGN.md this module implements a real
supernodal solver with the properties the paper attributes to PMKL:

* no BTF — the whole matrix factors as one (the memory blow-up on
  BTF-rich circuit matrices in Table I);
* MC64-style matching + fill-reducing ND ordering, static pivoting with
  diagonal perturbation (Pardiso's default unsymmetric pipeline);
* symbolic structure from the Cholesky pattern of ``A + A.T`` — L and
  U^T share one supernodal pattern, so structural zeros inside panels
  are computed on (the supernodal inefficiency on low fill-in
  matrices: "PMKL has a speedup less than 1 in serial for four
  problems", §V-D);
* dense panel kernels — work lands in the cheap ``dense_flops`` ledger
  bucket (the BLAS-3 advantage on high fill-in matrices);
* right-looking Schur updates with a fork-join task DAG (etree +
  pipeline parallelism) for the simulated schedule.

A cost-variant constructor :func:`slu_mt` models SuperLU-MT: same
algorithm with 1-D-layout penalties (inflated panel cost,
partial-pivoting search overhead), *no* MC64-style matching and no
static perturbation — so structural zero diagonals are fatal, which is
how the Fig. 5 footnote ("fails on rajat21") reproduces.  An optional
fill cap additionally fails extreme-fill inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SingularMatrixError, StructureError
from ..graph.etree import etree, postorder, symbolic_cholesky_counts, symmetric_pattern
from ..graph.matching import mwcm_row_permutation
from ..obs.tracer import get_tracer
from ..ordering.nd import nd_order
from ..ordering.perm import compose, invert
from ..parallel.ledger import CostLedger
from ..parallel.machine import MachineModel
from ..parallel.sim import Schedule, SimTask, simulate
from ..sparse.csc import CSC
from ..sparse.schedule import (
    BTFSolveSchedule,
    FactorStore,
    RefactorPlan,
    ScheduleCompileError,
    refactor_plan,
)
from .triangular import btf_solve, drop_solve_plan

# effects: blocks F=F G=G
# effects: emitter new_task

__all__ = ["SupernodalSymbolic", "SupernodalNumeric", "SupernodalLU", "slu_mt", "SolverFailure"]


class SolverFailure(RuntimeError):
    """Raised when a solver gives up (e.g. SLU-MT's fill cap)."""


@dataclass
class SupernodalSymbolic:
    """Pattern analysis: ordering, supernodes and their row patterns."""

    n: int
    row_pre: np.ndarray          # MWCM + fill ordering (rows)
    col_perm: np.ndarray         # fill ordering (columns)
    parent: np.ndarray           # postordered elimination tree
    sn_starts: np.ndarray        # supernode column boundaries, len nsup+1
    sn_of: np.ndarray            # column -> supernode id
    sn_rows: List[np.ndarray]    # per supernode: sorted L-pattern rows >= first col
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def n_supernodes(self) -> int:
        return len(self.sn_starts) - 1

    @property
    def factor_nnz_estimate(self) -> int:
        """|L + U| of the supernodal pattern (both triangles, diag once)."""
        total = 0
        for s in range(self.n_supernodes):
            w = int(self.sn_starts[s + 1] - self.sn_starts[s])
            below = self.sn_rows[s].size - w
            # L: dense trapezoid; U: transpose; diagonal block counted once.
            total += w * w + 2 * below * w
        return total


@dataclass
class SupernodalNumeric:
    symbolic: SupernodalSymbolic
    L: CSC                     # views of ``store``, its one block
    U: CSC
    store: FactorStore
    row_perm: np.ndarray
    col_perm: np.ndarray
    tasks: List[SimTask]
    ledger: CostLedger
    perturbed_pivots: int
    # Value gather and compiled replay reused by refactor_fast across a
    # fixed-pattern sequence (None until then).
    refactor_plan: Optional[RefactorPlan] = None
    # Compiled solve, the factors as a one-block BTF (None until the
    # first solve); carried across refactor_fast like refactor_plan.
    solve_plan: Optional[BTFSolveSchedule] = None

    @property
    def M(self) -> None:
        """No coupling: the factors are one block of the whole matrix."""
        return None

    @property
    def factor_nnz(self) -> int:
        return self.store.factor_nnz

    @property
    def factor_bytes(self) -> int:
        """Approximate bytes held by the factors (supernodal storage is
        denser per entry in the real code; CSC-equivalent used here)."""
        return self.store.factor_bytes

    def schedule(self, machine: MachineModel, n_threads: int, sync_mode: str = "p2p") -> Schedule:
        return simulate(self.tasks, machine, n_threads, sync_mode=sync_mode)

    def factor_seconds(self, machine: MachineModel, n_threads: int = 1) -> float:
        return self.schedule(machine, n_threads).makespan

    def invalidate_caches(self) -> int:
        """Eviction hook: drop the refactor plan and the compiled solve
        plan, as the KLU and Basker hooks do.  Returns the number of
        compiled solve plans released (0 or 1)."""
        self.refactor_plan = None
        return drop_solve_plan(self)


# Widest supernode the amalgamation builds.
_MAX_SUPERNODE = 96


class SupernodalLU:
    """Supernodal LU with static pivoting (PMKL stand-in), on a nested
    dissection fill ordering."""

    def __init__(
        self,
        relax: int = 2,
        perturb_scale: float = 1e-10,
        dense_cost_factor: float = 1.0,
        pivot_overhead: float = 0.0,
        fill_cap: Optional[float] = None,
        use_mwcm: bool = True,
        name: str = "PMKL",
    ):
        """``relax``: amalgamation slack (extra rows tolerated when
        merging a column into the running supernode).  ``fill_cap``:
        fail if the symbolic |L+U| exceeds ``fill_cap * |A|``."""
        self.relax = int(relax)
        self.perturb_scale = float(perturb_scale)
        self.dense_cost_factor = float(dense_cost_factor)
        self.pivot_overhead = float(pivot_overhead)
        self.fill_cap = fill_cap
        self.use_mwcm = use_mwcm
        self.name = name

    # ------------------------------------------------------------------
    def analyze(self, A: CSC) -> SupernodalSymbolic:
        n = A.n_rows
        if A.n_cols != n:
            raise StructureError("supernodal LU requires a square matrix")
        led = CostLedger()

        if self.use_mwcm:
            pm = mwcm_row_permutation(A)
            A1 = A.permute(row_perm=pm)
            led.dfs_steps += 2 * A.nnz
        else:
            # SuperLU-MT mode: no MC64-style matching; the diagonal is
            # whatever the input provides (its partial pivoting is not
            # modelled, so zero pivots become failures).
            pm = np.arange(n, dtype=np.int64)
            A1 = A

        pf = nd_order(A1)
        led.dfs_steps += 4 * A.nnz

        B = symmetric_pattern(A1.permute(pf, pf))
        parent = etree(B)
        post = postorder(parent)
        # Fold the postorder into the fill ordering so supernode
        # columns are contiguous.
        pf = compose(pf, post)
        B = symmetric_pattern(A1.permute(pf, pf))
        parent = etree(B)
        counts = symbolic_cholesky_counts(B, parent)
        led.dfs_steps += int(counts.sum())

        # Supernode detection with relaxed amalgamation.
        sn_starts = [0]
        for j in range(1, n):
            prev = j - 1
            width = j - sn_starts[-1]
            mergeable = (
                parent[prev] == j
                and counts[prev] <= counts[j] + 1 + self.relax
                and width < _MAX_SUPERNODE
            )
            if not mergeable:
                sn_starts.append(j)
        sn_starts.append(n)
        sn_starts = np.asarray(sn_starts, dtype=np.int64)
        nsup = len(sn_starts) - 1
        sn_of = np.empty(n, dtype=np.int64)
        for s in range(nsup):
            sn_of[sn_starts[s] : sn_starts[s + 1]] = s

        # Per-supernode row patterns (exact symbolic Cholesky, by the
        # child-union recurrence in topological order).
        sn_rows: List[np.ndarray] = [None] * nsup  # type: ignore
        children: List[List[int]] = [[] for _ in range(nsup)]
        for s in range(nsup):
            c0, c1 = int(sn_starts[s]), int(sn_starts[s + 1])
            pieces = [np.arange(c0, c1, dtype=np.int64)]
            for c in range(c0, c1):
                rows, _ = B.col(c)
                pieces.append(rows[rows >= c0])
            for d in children[s]:
                rd = sn_rows[d]
                pieces.append(rd[rd >= c0])
            rows_s = np.unique(np.concatenate(pieces))
            sn_rows[s] = rows_s
            led.dfs_steps += rows_s.size
            beyond = rows_s[rows_s >= c1]
            if beyond.size:
                children[int(sn_of[beyond[0]])].append(s)

        sym = SupernodalSymbolic(
            n=n,
            row_pre=compose(pm, pf),
            col_perm=pf,
            parent=parent,
            sn_starts=sn_starts,
            sn_of=sn_of,
            sn_rows=sn_rows,
            ledger=led,
        )
        if self.fill_cap is not None and sym.factor_nnz_estimate > self.fill_cap * max(A.nnz, 1):
            raise SolverFailure(
                f"{self.name}: symbolic fill {sym.factor_nnz_estimate} exceeds "
                f"{self.fill_cap}x nnz(A) = {self.fill_cap * A.nnz:.3g}"
            )
        return sym

    # ------------------------------------------------------------------
    def factor(self, A: CSC, symbolic: Optional[SupernodalSymbolic] = None) -> SupernodalNumeric:
        if symbolic is None:
            symbolic = self.analyze(A)
        sym = symbolic
        n = sym.n
        M = A.permute(sym.row_pre, sym.col_perm)
        nsup = sym.n_supernodes
        starts, sn_of, sn_rows = sym.sn_starts, sym.sn_of, sym.sn_rows

        # Allocate panels.  F: (|rows| x w) column side (diag block + L
        # below).  G: (w x |beyond|) row side (U beyond the diagonal).
        F: List[np.ndarray] = []
        G: List[np.ndarray] = []
        for s in range(nsup):
            w = int(starts[s + 1] - starts[s])
            nr = sn_rows[s].size
            F.append(np.zeros((nr, w)))
            G.append(np.zeros((w, nr - w)))

        # Scatter A into the panels — grouped by owning supernode so
        # each group lands with one bulk searchsorted + fancy store.
        acols = np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr))
        arows = M.indices
        avals = M.data
        scol = sn_of[acols]
        lower = arows >= starts[scol]
        # Column side: entry (r, j) with r >= c0 of j's supernode goes
        # to F[s].  ``scol`` is non-decreasing (columns scanned in
        # order), so group boundaries come straight from searchsorted.
        ls, lr, lc, lv = scol[lower], arows[lower], acols[lower], avals[lower]
        bounds = np.searchsorted(ls, np.arange(nsup + 1))
        for s in range(nsup):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if lo < hi:
                pos = np.searchsorted(sn_rows[s], lr[lo:hi])
                F[s][pos, lc[lo:hi] - int(starts[s])] = lv[lo:hi]
        # Row side: entry (r, j) above the diagonal block goes to the
        # G panel of r's supernode; sort (stably) by that supernode.
        upper = ~lower
        ur, uc, uv = arows[upper], acols[upper], avals[upper]
        us = sn_of[ur]
        order = np.argsort(us, kind="stable")
        us, ur, uc, uv = us[order], ur[order], uc[order], uv[order]
        bounds = np.searchsorted(us, np.arange(nsup + 1))
        for s in range(nsup):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if lo < hi:
                wr = int(starts[s + 1] - starts[s])
                pos = np.searchsorted(sn_rows[s][wr:], uc[lo:hi])
                G[s][ur[lo:hi] - int(starts[s]), pos] = uv[lo:hi]

        total = CostLedger()
        total.mem_words += A.nnz
        tasks: List[SimTask] = []
        fac_tid: Dict[int, int] = {}
        upd_into: Dict[int, List[int]] = {s: [] for s in range(nsup)}
        perturbed = 0
        anorm = max(A.max_abs(), 1.0)
        eps = self.perturb_scale * anorm

        def new_task(ledger, deps, ws, reads=(), writes=()):
            tid = len(tasks)
            tasks.append(
                SimTask(
                    tid=tid,
                    ledger=ledger,
                    deps=deps,
                    thread=None,
                    working_set=ws,
                    reads=reads,
                    writes=writes,
                )
            )
            return tid

        # Work quantum for splitting large dense tasks: real supernodal
        # codes parallelize the panel solves and Schur GEMMs with
        # threaded BLAS; chunked subtasks let the list scheduler spread
        # that work the same way.
        FLOP_CHUNK = 150_000.0
        MAX_CHUNKS = 64

        def chunked(total_flops: float) -> int:
            return max(1, min(MAX_CHUNKS, int(np.ceil(total_flops / FLOP_CHUNK))))

        for s in range(nsup):
            c0, c1 = int(starts[s]), int(starts[s + 1])
            w = c1 - c0
            rows_s = sn_rows[s]
            beyond = rows_s[w:]
            nb = beyond.size
            ws_bytes = 8.0 * (F[s].size + G[s].size)

            # Dense LU of the diagonal block, no pivoting, perturbed.
            # Strictly sequential (w is capped at max_supernode).
            D = F[s][:w, :]
            for k in range(w):
                piv = D[k, k]
                if abs(piv) < eps or piv == 0.0:
                    if self.perturb_scale <= 0.0:
                        raise SolverFailure(
                            f"{self.name}: zero pivot at column {c0 + k} "
                            "(no matching, no perturbation)"
                        )
                    # Static pivot perturbation (Pardiso-style).
                    piv = eps if piv >= 0 else -eps
                    D[k, k] = piv
                    perturbed += 1
                if k + 1 < w:
                    D[k + 1 :, k] /= piv
                    D[k + 1 :, k + 1 :] -= np.outer(D[k + 1 :, k], D[k, k + 1 :])
            diag_led = CostLedger()
            diag_led.dense_flops += (w * w * w / 3.0 + w * w) * self.dense_cost_factor
            diag_led.columns += w
            tid_diag = new_task(
                diag_led,
                list(upd_into[s]),
                ws_bytes,
                reads=[("F", s), ("G", s)],
                writes=[("F", s)],
            )
            total.add(diag_led)

            if nb == 0:
                fac_tid[s] = tid_diag
                continue

            # Panel triangular solves (row-parallel in threaded BLAS):
            # L below: X * U_D = F_below;  U beyond: L_D * Y = G.
            Lsub = F[s][w:, :]
            for k in range(w):
                if k:
                    Lsub[:, k] -= Lsub[:, :k] @ D[:k, k]
                Lsub[:, k] /= D[k, k]
            Gs = G[s]
            for k in range(1, w):
                Gs[k, :] -= D[k, :k] @ Gs[:k, :]
            panel_flops = (2.0 * nb * w * w) * self.dense_cost_factor
            npanel = chunked(panel_flops)
            panel_led = CostLedger()
            panel_led.dense_flops += panel_flops / npanel
            panel_led.sparse_flops += self.pivot_overhead * nb * w / npanel
            # Panel chunks carve disjoint row ranges of F[s][w:]/G[s];
            # they all read the factored diagonal block, which gets the
            # reserved chunk id ``npanel`` (never a sibling's id), so
            # the chunk keys prove panels race-free among themselves
            # while still conflicting with whole-block F[s] accesses.
            panel_tids = []
            for pk in range(npanel):
                panel_tids.append(
                    new_task(
                        panel_led.copy(),
                        [tid_diag],
                        ws_bytes,
                        reads=[("F", s, "c", npanel)],
                        writes=[("F", s, "c", pk), ("G", s, "c", pk)],
                    )
                )
            total.add(panel_led.scaled(npanel))
            fac_tid[s] = tid_diag  # diag completion gates nothing extra

            # Right-looking Schur update: W = L_below @ U_beyond,
            # scattered into ancestor panels by the min(r, c) rule.
            W = F[s][w:, :] @ G[s]
            upd_led = CostLedger()
            upd_led.dense_flops += float(nb) * nb * w * self.dense_cost_factor
            upd_led.mem_words += float(nb) * nb

            seg_start = 0
            while seg_start < nb:
                t = int(sn_of[beyond[seg_start]])
                t0, t1 = int(starts[t]), int(starts[t + 1])
                seg_end = int(np.searchsorted(beyond, t1))
                cols_seg = beyond[seg_start:seg_end]          # columns of W in t's range
                ci = np.arange(seg_start, seg_end)
                rows_t = sn_rows[t]
                wt = t1 - t0
                # (a) column side: r >= c0_t, c in J_t.
                ri = np.arange(seg_start, nb)                 # rows beyond >= t0 (sorted)
                rpos = np.searchsorted(rows_t, beyond[seg_start:])
                F[t][np.ix_(rpos, cols_seg - t0)] -= W[np.ix_(ri, ci)]
                # (b) row side: r in J_t, c beyond t's columns.
                if seg_end < nb:
                    cbey = beyond[seg_end:]
                    cpos = np.searchsorted(rows_t[wt:], cbey)
                    G[t][np.ix_(cols_seg - t0, cpos)] -= W[np.ix_(ci, np.arange(seg_end, nb))]
                seg_start = seg_end

            # Update tasks: per (s -> target) edge, chunked so large
            # GEMMs spread over cores (threaded-BLAS model).
            targets = sorted({int(sn_of[r]) for r in beyond})
            share_flops = upd_led.dense_flops / len(targets)
            share = upd_led.scaled(1.0 / len(targets))
            for t in targets:
                nchunk = chunked(share_flops)
                piece = share.scaled(1.0 / nchunk)
                for _ in range(nchunk):
                    # All update chunks into the same target accumulate
                    # into the same F[t]/G[t] panels, so each chains on
                    # the previous one (ordered accumulation, like the
                    # real code's per-panel locks).
                    deps = list(panel_tids)
                    if upd_into[t]:
                        deps.append(upd_into[t][-1])
                    tid = new_task(
                        piece.copy(),
                        deps,
                        8.0 * nb * w,
                        reads=[("F", s), ("G", s)],
                        writes=[("F", t), ("G", t)],
                    )
                    upd_into[t].append(tid)
            total.add(upd_led)

        # Extract CSC factors — per-supernode bulk index arithmetic, in
        # the same column-by-column emission order as the scalar loops.
        _ei = np.zeros(0, dtype=np.int64)
        _ev = np.zeros(0, dtype=np.float64)
        Lr, Lc, Lv = [_ei], [_ei], [_ev]
        Ur, Uc, Uv = [_ei], [_ei], [_ev]
        for s in range(nsup):
            c0, c1 = int(starts[s]), int(starts[s + 1])
            w = c1 - c0
            rows_s = sn_rows[s]
            nr = rows_s.size
            beyond = rows_s[w:]
            nb = nr - w
            D = F[s][:w, :]
            # U: upper triangle of the diag block incl diagonal, col by
            # col (tril_indices read as (col, row) walks columns).
            ku, ru = np.tril_indices(w)
            Ur.append(c0 + ru)
            Uc.append(c0 + ku)
            Uv.append(D[ru, ku])
            # L: unit-diagonal trapezoid — for column k, rows rows_s[k:]
            # with values F[s][k:, k], the diagonal replaced by 1.0.
            kl, rl = np.nonzero(np.arange(w)[:, None] <= np.arange(nr)[None, :])
            lvals = F[s][rl, kl]
            lvals[rl == kl] = 1.0
            Lr.append(rows_s[rl])
            Lc.append(c0 + kl)
            Lv.append(lvals)
            # U beyond: rows c0..c1, columns = beyond.
            Ur.append(np.tile(np.arange(c0, c1, dtype=np.int64), nb))
            Uc.append(np.repeat(beyond, w))
            Uv.append(G[s].ravel(order="F"))
        L = CSC.from_coo(
            np.concatenate(Lr), np.concatenate(Lc), np.concatenate(Lv),
            (n, n), sum_duplicates=False,
        )
        U = CSC.from_coo(
            np.concatenate(Ur), np.concatenate(Uc), np.concatenate(Uv),
            (n, n), sum_duplicates=False,
        )
        total.mem_words += L.nnz + U.nnz

        return SupernodalNumeric(
            symbolic=sym,
            L=L,
            U=U,
            store=FactorStore.of_blocks([(L, U)], [total]),
            row_perm=sym.row_pre,
            col_perm=sym.col_perm,
            tasks=tasks,
            ledger=total,
            perturbed_pivots=perturbed,
        )

    # ------------------------------------------------------------------
    def refactor(self, A: CSC, numeric: SupernodalNumeric) -> SupernodalNumeric:
        return self.factor(A, symbolic=numeric.symbolic)

    # ------------------------------------------------------------------
    def refactor_fast(self, A: CSC, numeric: SupernodalNumeric) -> SupernodalNumeric:
        """Values-only refactorization on the fixed supernodal pattern.

        Replays the whole factor as one block of the shared
        :class:`~repro.sparse.schedule.RefactorPlan` — pure value
        gathers plus level-scheduled vectorized elimination.  Falls back
        to :meth:`refactor` (full factor, static pivoting re-applied),
        counted as ``supernodal.refactor.fallback``, when the prior
        factor relied on perturbed pivots, a reused pivot falls to zero,
        or the amalgamated pattern cannot be scheduled.
        The result carries no task DAG (modelled parallel times come
        from :meth:`refactor`); this is the wall-clock sequence path.
        """
        # Perturbed pivots mean the stored factors are not an exact LU
        # of M; an exact replay would divide by near-zero pivots.
        if numeric.perturbed_pivots:
            get_tracer().metrics.incr("supernodal.refactor.fallback")
            return self.refactor(A, numeric)
        n = numeric.symbolic.n
        # row_perm is pre-applied in M, so the pivot order is the
        # identity (static pivoting: no numeric pivoting).
        plan = refactor_plan(numeric.refactor_plan, "supernodal", A, numeric.row_perm,
                             numeric.col_perm, np.array([0, n], dtype=np.int64))
        numeric.refactor_plan = plan
        try:
            store, factor_led = plan.replay(A.data[plan.m_gather], numeric.store.pattern)
        except (SingularMatrixError, ScheduleCompileError):
            get_tracer().metrics.incr("supernodal.refactor.fallback")
            return self.refactor(A, numeric)
        led = CostLedger()
        led.mem_words += A.nnz  # permutation / scatter traffic
        led.add(factor_led)
        L, U = store.block(0)
        return SupernodalNumeric(
            symbolic=numeric.symbolic,
            L=L,
            U=U,
            store=store,
            row_perm=numeric.row_perm,
            col_perm=numeric.col_perm,
            tasks=[],
            ledger=led,
            perturbed_pivots=0,
            refactor_plan=plan,
            solve_plan=numeric.solve_plan,
        )

    def solve(self, numeric: SupernodalNumeric, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b``; ``b`` is ``(n,)`` or ``(n, k)``."""
        return btf_solve(numeric, b)


def slu_mt(fill_cap: Optional[float] = 60.0) -> SupernodalLU:
    """SuperLU-MT cost variant: 1-D layout, partial pivoting overhead,
    weaker BLAS utilization, fails past a fill cap (Fig. 5 behaviour)."""
    return SupernodalLU(
        relax=1,
        dense_cost_factor=1.8,
        pivot_overhead=0.6,
        fill_cap=fill_cap,
        use_mwcm=False,
        perturb_scale=0.0,
        name="SLU-MT",
    )
