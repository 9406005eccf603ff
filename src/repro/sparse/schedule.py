"""Elimination schedule compiler: level-scheduled vectorized kernels.

The numeric hot paths of this package — values-only refactorization on a
fixed L/U pattern (``gp_refactor``) and the dense-RHS triangular solves
— are per-column Python loops in their reference form.  On a *fixed*
pattern all of their control flow is known ahead of time, so it can be
compiled once into flat gather/scatter/segment index arrays and replayed
with whole-level NumPy operations (GLU-style level scheduling: group
columns into dependency levels from the factor patterns, then execute
one level per vector operation batch).

Two compiled objects are produced:

* :class:`TriangularSchedule` — levels of a triangular matrix for the
  dense-RHS solves :func:`~repro.sparse.ops.lower_solve` /
  :func:`~repro.sparse.ops.upper_solve`.  Cached on the
  :class:`~repro.sparse.csc.CSC` object itself (patterns are immutable
  by convention), so repeated solves against the same factor compile
  once.
* :class:`RefactorSchedule` — the full elimination schedule for
  values-only refactorization against fixed ``L``/``U`` factors, a
  fixed input pattern and a fixed pivot order.  Levels are computed on
  the union graph of L's below-diagonal and U's above-diagonal
  patterns: an edge ``j -> k`` (``j < k``) exists when ``L[k, j] != 0``
  or ``U[j, k] != 0``.  That graph dominates *both* the cross-column
  dependencies (column ``k`` consumes finished L columns ``j`` with
  ``U[j, k] != 0``) and the within-column read-after-write ordering of
  the sparse triangular solve (``x[j]`` is read after updates through
  ``L[j, j'']``), so one level sweep — finalize this level's columns,
  then apply every update they source — replays the reference
  column-by-column loop exactly.

:class:`BTFSolveSchedule` builds on the first: it rewrites a whole BTF
block back-substitution (every diagonal block's ``L``/``U`` solves plus
the off-block coupling) as one triangular system of size ``2n`` and
levels it with :func:`compile_triangular_schedule`, so KLU, Basker and
the supernodal solver solve any number of right-hand sides, in either
direction, in one replay.

:class:`RefactorPlan` builds on the second: the value gathers plus one
:class:`BlockedRefactorSchedule` over every diagonal block, the single
values-only refactorization step behind ``refactor_fast`` of KLU, Basker
and the supernodal solver.  Its replay writes a :class:`FactorStore`,
every block's factor values in two flat arrays, which the BTF solve
reads; so neither step does per-block Python work.

Every :class:`~repro.parallel.ledger.CostLedger` count follows from the
patterns alone: an update costs ``|L(:, j)| - 1`` multiply-adds whatever
its source value (the reference loops skip the arithmetic of an exactly
zero source, never its count), as in a fresh factorization.  So the
refactor schedule fixes each column group's ledger when it is compiled
and a replay books it unchanged; the reference implementations remain
available as ``*_reference`` oracles.

Compilation is pattern-only and costs one pass over the factors;
sequences of same-pattern matrices (the Xyce transient workload) compile
once and replay vectorized for every subsequent matrix.

Plans are deep and narrow (hundreds of levels of a few columns), so a
replay costs about one fixed numpy call overhead per call per level,
not arithmetic.  Every permutation the pattern fixes is therefore folded
into the compiled arrays: a refactor stage reads its pivots, multipliers
and sources in segment order directly (``l_piv``, ``ent_lval``,
``ent_src``), and a triangular schedule works on the unknowns renumbered
in level order, where a level's divisions are one slice and each of its
update groups one scatter, for one right-hand side or a block alike; it
gathers its diagonals and update values once per solve.  The refactor
replay checks its pivots once, after the sweep (see
:meth:`RefactorSchedule.run`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..contracts import domains, shapes
from ..errors import SingularMatrixError, StructureError, ZeroPivotError
from ..obs.tracer import get_tracer
from ..parallel.ledger import CostLedger
from ..resilience.faults import active_plan as _fault_plan
from .csc import CSC, _concat_ranges

__all__ = [
    "ScheduleCompileError",
    "TriangularSchedule",
    "compile_triangular_schedule",
    "triangular_schedule",
    "RefactorSchedule",
    "compile_refactor_schedule",
    "FactorPattern",
    "FactorStore",
    "BTFSolveSchedule",
    "permutation_gather",
    "diagonal_block_gathers",
    "RefactorPlan",
    "refactor_plan",
]


class ScheduleCompileError(StructureError):
    """The given pattern cannot be compiled into an elimination schedule
    (missing structural diagonal, pattern not closed under the update
    paths, or input entries outside the factor pattern)."""


@shapes(positions="i8[k]")
def _segment(positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort scatter targets and mark segment boundaries for reduceat.

    Returns ``(order, seg_starts, seg_tgt)`` such that accumulating
    ``vals`` into ``positions`` is ``x[seg_tgt] -=
    add.reduceat(vals[order], seg_starts)``.
    """
    order = np.argsort(positions, kind="stable")
    srt = positions[order]
    if srt.size == 0:
        return order, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    new = np.empty(srt.size, dtype=bool)
    new[0] = True
    new[1:] = srt[1:] != srt[:-1]
    seg_starts = np.flatnonzero(new)
    return order, seg_starts, srt[seg_starts]


# ======================================================================
# Triangular solve schedules
# ======================================================================


# A level of at most this many columns applies each row's updates one
# at a time, in column order (one update group per round); a wider level
# sums a row's updates first (one segmented group).  The two rules round
# differently, so moving the bound changes solutions in the last bits.
_SCALAR_LEVEL_WIDTH = 4


@dataclass
class TriangularSchedule:
    """Level schedule of a triangular CSC pattern for dense-RHS solves,
    on the unknowns renumbered in level order.

    Packed row ``p`` holds unknown ``order[p]`` (``pos`` is the
    inverse), so every level's unknowns are one slice and its divisions
    one call.  ``levels[s]`` is ``(lo, hi, groups)``: packed rows
    ``lo:hi`` and the level's update groups ``(v0, v1, src, seg, tgt)``,
    each one scatter with distinct packed targets ``tgt``: values
    ``v0:v1`` of the ``ent_gather`` order times the rows ``src``, summed
    over the segments starting at ``seg`` first (None when every target
    takes one update).  A level wider than ``_SCALAR_LEVEL_WIDTH``
    columns is one group; a narrower one is one group per round, round
    ``r`` applying the ``r``-th update of every target row.
    """

    kind: str               # "lower" or "upper"
    n: int
    nnz: int
    order: np.ndarray
    pos: np.ndarray
    # Per packed row, the data index of its diagonal (-1 when the column
    # stores none); ``all_diagonals`` is False when any is missing.
    diag_gather: np.ndarray
    all_diagonals: bool
    ent_gather: np.ndarray  # data index of every update value, group by group
    levels: list
    col_empty: np.ndarray   # per column, True when the column stores nothing

    def matches(self, M: CSC) -> bool:
        """Cheap pattern identity check (patterns are immutable by
        convention; a different object with the same shape/nnz would
        need :func:`compile_triangular_schedule` anew)."""
        return M.n_rows == self.n and M.n_cols == self.n and M.nnz == self.nnz

    # ------------------------------------------------------------------
    @shapes(M="csc[n,n]")
    def solve(self, M: CSC, b: np.ndarray, unit_diag: bool = False) -> np.ndarray:
        """Replay the schedule: solve ``M x = b`` level by level.

        ``b`` is one right-hand side ``(n,)`` or a block ``(n, k)``; a
        block runs every level once for all ``k`` columns.
        """
        return self.replay(M.data, b, unit_diag=unit_diag)

    def replay(self, data: np.ndarray, b: np.ndarray, unit_diag: bool = False) -> np.ndarray:
        """:meth:`solve` on the compiled pattern with values ``data``
        (indexed like the pattern's CSC data array)."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2):
            raise StructureError(
                f"right-hand side must be (n,) or (n, k), got shape {b.shape}"
            )
        if b.shape[0] != self.n:
            raise StructureError("dimension mismatch")
        diag = None if unit_diag else self._diagonals(data)
        x = b.take(self.order, axis=0)  # a C-ordered copy in level order
        vals = data[self.ent_gather]
        rows = None
        if x.ndim == 2:
            if not x.shape[1]:
                return x
            # Every row of x as one item: a scatter of whole rows is a
            # 1-D fancy assignment, several times cheaper than a 2-D one.
            rows = x.view(np.dtype((np.void, x.itemsize * x.shape[1])))
            vals = vals[:, None]
            if diag is not None:
                diag = diag[:, None]
        take, divide, reduceat = x.take, np.divide, np.add.reduceat
        for lo, hi, groups in self.levels:
            if diag is not None:
                xs = x[lo:hi]
                divide(xs, diag[lo:hi], out=xs)
            # A group's targets are distinct, so its row assignment is
            # ``x[tgt] -= prods`` too.
            for v0, v1, src, seg, tgt in groups:
                prods = vals[v0:v1] * take(src, 0)
                if seg is not None:
                    prods = reduceat(prods, seg, 0)
                if rows is None:
                    x[tgt] -= prods
                else:
                    rows[tgt] = (take(tgt, 0) - prods).view(rows.dtype)
        return x.take(self.pos, axis=0)

    def _diagonals(self, data: np.ndarray) -> np.ndarray:
        """The diagonals in packed order.  Raises
        :class:`~repro.errors.ZeroPivotError` when one is zero or not
        stored, at the column the reference sweep would hit first."""
        if self.all_diagonals:
            diag = data[self.diag_gather]
            if diag.all():
                return diag
        stored = self.diag_gather >= 0
        bad = np.ones(self.n, dtype=bool)
        bad[self.order[stored]] = data[self.diag_gather[stored]] == 0.0
        which = np.flatnonzero(bad)
        j = int(which.max() if self.kind == "upper" else which.min())
        if self.kind == "lower" and self.col_empty[j]:
            raise ZeroPivotError(f"empty column {j} in lower solve", column=j)
        raise ZeroPivotError(f"zero diagonal at column {j}", column=j)


@shapes(M="csc[n,n]")
def compile_triangular_schedule(M: CSC, kind: str) -> TriangularSchedule:
    """Compile the level schedule of a triangular CSC pattern.

    ``kind`` is ``"lower"`` (forward sweep; entries strictly below the
    diagonal propagate) or ``"upper"`` (backward sweep; entries strictly
    above propagate).  Entries on the wrong side of the diagonal are
    ignored, exactly as the reference loops ignore them.
    """
    if kind not in ("lower", "upper"):
        raise StructureError("kind must be 'lower' or 'upper'")
    if M.n_rows != M.n_cols:
        raise StructureError("triangular schedule requires a square matrix")
    n = M.n_cols
    indptr, indices = M.indptr, M.indices
    # Per column: the first entry at or past the diagonal (rows are
    # sorted, so it follows the entries above the diagonal), whether it
    # is the diagonal, and the data range of the propagating entries.
    col_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    first = indptr[:-1] + np.bincount(col_of[indices < col_of], minlength=n)
    del col_of  # the update arrays below set the compile's peak memory
    has_diag = first < indptr[1:]
    has_diag[has_diag] = indices[first[has_diag]] == np.flatnonzero(has_diag)
    if kind == "lower":
        off_lo, off_hi = first + has_diag, indptr[1:]
    else:
        off_lo, off_hi = indptr[:-1], first

    # Longest path, one column at a time in sweep order, on Python lists
    # (numpy scalar access would cost more than the work).  The rows are
    # read through a memoryview: no list of nnz ints is built.
    lev_l = [0] * n
    rows_mv = memoryview(indices)
    lo_l, hi_l = off_lo.tolist(), off_hi.tolist()
    for j in (range(n) if kind == "lower" else range(n - 1, -1, -1)):
        lo, hi = lo_l[j], hi_l[j]
        if lo < hi:
            nxt = lev_l[j] + 1
            for i in rows_mv[lo:hi]:
                if lev_l[i] < nxt:
                    lev_l[i] = nxt
    lev = np.array(lev_l, dtype=np.int64)

    order = np.argsort(lev, kind="stable")
    n_levels = int(lev.max()) + 1 if n else 0
    sizes = np.bincount(lev, minlength=n_levels) if n else np.empty(0, dtype=np.int64)
    metrics = get_tracer().metrics
    if metrics.enabled:
        metrics.set_gauge(f"schedule.tri.{kind}.n_levels", n_levels)
        for width in sizes:
            metrics.observe("schedule.tri.level_width", int(width))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    ptr = np.concatenate(([0], np.cumsum(sizes)))

    # Every update, column by column in packed order, sorted stably by
    # level and target row: a row's updates from one level keep their
    # column order, and a run of equal keys is one segment.  Each
    # temporary is released once used: these arrays are nnz-sized.
    cnt = (off_hi - off_lo)[order]
    ent = _concat_ranges(off_lo[order], cnt)
    m = ent.size
    key = np.repeat(lev[order] * n, cnt)
    key += indices[ent]
    by = np.argsort(key, kind="stable")
    key = key[by]
    new_seg = np.ones(m, dtype=bool)
    new_seg[1:] = key[1:] != key[:-1]
    del key
    ent = ent[by]
    src = np.repeat(np.arange(n, dtype=np.int64), cnt)[by]
    del by
    e_ptr = np.concatenate(([0], np.cumsum(cnt)))[ptr]  # each level's first entry
    e_cnt = np.diff(e_ptr)
    new_grp = np.zeros(m, dtype=bool)
    new_grp[e_ptr[:-1][e_cnt > 0]] = True
    # A narrow level where a row takes several updates runs in rounds:
    # round r, one group, applies the r-th update of every target row.
    dup = np.zeros(n_levels, dtype=bool)
    dup[np.searchsorted(e_ptr, np.flatnonzero(~new_seg), side="right") - 1] = True
    rounds = np.flatnonzero(dup & (sizes <= _SCALAR_LEVEL_WIDTH))
    if rounds.size:
        sub = _concat_ranges(e_ptr[rounds], e_cnt[rounds])
        k = np.arange(sub.size, dtype=np.int64)
        rank = k - np.maximum.accumulate(np.where(new_seg[sub], k, 0))
        by = np.argsort(np.repeat(rounds, e_cnt[rounds]) * (int(rank.max()) + 1) + rank,
                        kind="stable")
        ent[sub], src[sub] = ent[sub[by]], src[sub[by]]
        rank = rank[by]
        new_grp[sub[1:][rank[1:] != rank[:-1]]] = True
        new_seg[sub] = True
    g_start = np.flatnonzero(new_grp)
    g_end = np.append(g_start[1:], m)
    s_start = np.flatnonzero(new_seg)
    s_lo = np.searchsorted(s_start, g_start)
    s_hi = np.append(s_lo[1:], s_start.size)
    seg_tgt = pos[indices[ent[s_start]]]
    groups = [(v0, v1, src[v0:v1],
               np.flatnonzero(new_seg[v0:v1]) if b - a < v1 - v0 else None, seg_tgt[a:b])
              for v0, v1, a, b in zip(g_start.tolist(), g_end.tolist(),
                                      s_lo.tolist(), s_hi.tolist())]
    g_ptr = np.searchsorted(g_start, e_ptr).tolist()
    ptr = ptr.tolist()
    diag_gather = np.where(has_diag, first, -1)[order]
    return TriangularSchedule(
        kind=kind,
        n=n,
        nnz=M.nnz,
        order=order,
        pos=pos,
        diag_gather=diag_gather,
        all_diagonals=bool(has_diag.all()),
        ent_gather=ent,
        levels=[(ptr[s], ptr[s + 1], groups[g_ptr[s] : g_ptr[s + 1]])
                for s in range(n_levels)],
        col_empty=np.diff(indptr) == 0,
    )


@shapes(M="csc[n,n]")
def triangular_schedule(M: CSC, kind: str) -> TriangularSchedule:
    """Compiled schedule for ``M``, cached on the matrix object.

    CSC patterns are immutable by convention in this package (every
    structural operation returns a new object), so the cache lives for
    the lifetime of the matrix; new objects start cold.
    """
    cache = getattr(M, "_solve_schedules", None)
    if cache is None:
        cache = {}
        M._solve_schedules = cache
    metrics = get_tracer().metrics
    sched = cache.get(kind)
    if sched is None:
        metrics.incr("schedule.tri.miss")
    elif not sched.matches(M):
        metrics.incr("schedule.tri.invalidate")
        sched = None
    else:
        metrics.incr("schedule.tri.hit")
    if sched is None:
        sched = compile_triangular_schedule(M, kind)
        cache[kind] = sched
    return sched


# ======================================================================
# Refactorization schedules
# ======================================================================


@dataclass
class _RefactorStage:
    cols: np.ndarray        # columns finalized at this stage
    l_dst: np.ndarray       # indices into Lx for the below-diagonal values
    l_src: np.ndarray       # workspace positions of those values
    l_piv: np.ndarray       # workspace position of each value's pivot
    # Per update entry ``x_k[i] -= L[i, j] * x_k[j]``, in segment order:
    ent_lval: np.ndarray    # index into Lx of L[i, j]
    ent_src: np.ndarray     # workspace position of x_k[j]
    seg_starts: np.ndarray
    seg_tgt: np.ndarray     # workspace positions receiving the sums


def _same_pattern(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    """Array equality with an identity fast path (None equals only None).

    Patterns are immutable by convention and shared across the objects
    of a fixed-pattern sequence, so ``a is b`` almost always decides.
    """
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


@dataclass
class RefactorSchedule:
    """Compiled elimination schedule for values-only refactorization.

    Bound to one (L pattern, U pattern, input pattern, row permutation)
    quadruple; :meth:`matches` re-validates all four so a pattern change
    forces recompilation.
    """

    n: int
    l_indptr: np.ndarray
    l_indices: np.ndarray
    u_indptr: np.ndarray
    u_indices: np.ndarray
    a_indptr: np.ndarray
    a_indices: np.ndarray
    row_perm: np.ndarray
    wtotal: int
    a_scatter: np.ndarray   # A data index -> workspace position
    ux_src: np.ndarray      # workspace position of every U value
    l_diag_dst: np.ndarray  # Lx indices of the unit diagonal
    # Workspace position of every column's pivot, in stage order.
    piv_wpos: np.ndarray
    # Costs fixed by the patterns at compile time, one ledger per column
    # group; a replay books them unchanged.
    ledgers: List[CostLedger]
    stages: List[_RefactorStage] = field(default_factory=list)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    # ------------------------------------------------------------------
    def matches(self, L: CSC, U: CSC, A: CSC, row_perm: np.ndarray) -> bool:
        """True when the schedule was compiled for exactly these
        patterns and this pivot order."""
        return (
            L.shape == (self.n, self.n)
            and U.shape == (self.n, self.n)
            and A.shape == (self.n, self.n)
            and _same_pattern(L.indptr, self.l_indptr)
            and _same_pattern(L.indices, self.l_indices)
            and _same_pattern(U.indptr, self.u_indptr)
            and _same_pattern(U.indices, self.u_indices)
            and _same_pattern(A.indptr, self.a_indptr)
            and _same_pattern(A.indices, self.a_indices)
            and _same_pattern(np.asarray(row_perm, dtype=np.int64), self.row_perm)
        )

    # ------------------------------------------------------------------
    @shapes(a_data="f8[k]")
    def run(
        self,
        a_data: np.ndarray,
        ledger: Optional[CostLedger],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replay the schedule on new values; returns ``(Lx, Ux)``.

        Books the compiled :attr:`ledgers` into ``ledger`` (None books
        nothing): the counts of the reference column loop
        (:func:`~repro.solvers.gp.gp_refactor_reference`) and of a fresh
        factorization with these pivots, whatever the values.

        Pivots are checked once, after the sweep: the sweep runs past a
        zero pivot (its infinities and NaNs unreported), then every
        pivot in :attr:`piv_wpos` is read.  No stage writes a pivot
        slot after that pivot's own stage, so each pivot is read with
        the value its stage divided by.  Raises
        :class:`~repro.errors.SingularMatrixError` when a reused pivot
        is 0.0; with several zero pivots the reported column is the
        first one *in schedule order*, which may differ from the
        reference loop's (always the smallest failing column).
        """
        xwork = np.zeros(self.wtotal, dtype=np.float64)
        xwork[self.a_scatter] = a_data
        plan = _fault_plan()
        zeroed = None
        if plan is not None:  # fault-injection harness only; free when idle
            zeroed = plan.apply_workspace("schedule.replay.workspace", xwork, self.piv_wpos)
        Lx = np.empty(self.l_indices.size, dtype=np.float64)
        Ux = np.empty(self.u_indices.size, dtype=np.float64)
        Lx[self.l_diag_dst] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for stage in self.stages:
                if stage.l_dst.size:
                    Lx[stage.l_dst] = xwork[stage.l_src] / xwork[stage.l_piv]
                if stage.seg_starts.size:
                    prods = Lx[stage.ent_lval] * xwork[stage.ent_src]
                    xwork[stage.seg_tgt] -= np.add.reduceat(prods, stage.seg_starts)
        if zeroed:
            # The stage updates may have refilled a zeroed pivot slot:
            # the fault lands where the check below reads it.
            xwork[zeroed] = 0.0
        piv = xwork[self.piv_wpos]
        bad = np.flatnonzero(piv == 0.0)
        if bad.size:
            i = bad[0]
            k = int(np.concatenate([st.cols for st in self.stages])[i])
            raise SingularMatrixError(
                f"refactor: reused pivot at column {k} is unusable "
                f"({piv[i]!r}); refactor with fresh pivoting",
                column=k,
            )
        Ux[:] = xwork[self.ux_src]
        if ledger is not None:
            for led in self.ledgers:
                ledger.add(led)
        return Lx, Ux


@domains(A="matrix[S]", row_perm="perm[A->B]")
@shapes(L="csc[n,n]", U="csc[n,n]", A="csc[n,n]", row_perm="i8[n] unique < n")
def compile_refactor_schedule(
    L: CSC,
    U: CSC,
    A: CSC,
    row_perm: np.ndarray,
    col_group: Optional[np.ndarray] = None,
    n_groups: Optional[int] = None,
) -> RefactorSchedule:
    """Compile the elimination schedule for refactoring matrices with
    ``A``'s pattern against the fixed factors ``L``/``U`` and pivot
    order ``row_perm``.

    ``col_group`` assigns every column to a group (default: all in one);
    the schedule's ``ledgers`` then hold each group's costs (see
    :class:`BlockedRefactorSchedule`).  Costs follow from the patterns
    alone: every update ``j -> k`` counts ``|L(:, j)| - 1`` to ``k``'s
    group and every column ``|L(:, k)| - 1`` divisions, ``1`` column
    and ``|L(:, k)| + |U(:, k)|`` words, whatever the values replayed.

    Requirements (all raised as :class:`ScheduleCompileError`):

    * every L column stores its unit diagonal first, every U column its
      diagonal last (the layout produced by every factorization here);
    * the factor patterns are closed under the update paths
      (``L[i, j] != 0`` and ``U[j, k] != 0`` implies ``(i, k)`` is in
      the pattern) — true for any pattern produced by a reach-based or
      symbolic factorization of the same input pattern;
    * every input entry lands inside the factor pattern after the row
      permutation.
    """
    n = L.n_cols
    if L.shape != (n, n) or U.shape != (n, n) or A.shape != (n, n):
        raise StructureError("refactor schedule requires square, same-shape factors")
    row_perm = np.asarray(row_perm, dtype=np.int64)
    if row_perm.shape != (n,):
        raise StructureError("row_perm has the wrong length")
    if col_group is None:
        col_group = np.zeros(n, dtype=np.int64)
    col_group = np.asarray(col_group, dtype=np.int64)
    if col_group.shape != (n,):
        raise StructureError("col_group has the wrong length")
    if n_groups is None:
        n_groups = int(col_group.max()) + 1 if n else 1
    Lp, Li = L.indptr, L.indices
    Up, Ui = U.indptr, U.indices
    lcnt = np.diff(Lp)
    ucnt = np.diff(Up)
    if n:
        if np.any(lcnt < 1) or not np.array_equal(Li[Lp[:-1]], np.arange(n)):
            raise ScheduleCompileError(
                "L must store the unit diagonal as the first entry of every column"
            )
        if np.any(ucnt < 1) or not np.array_equal(Ui[Up[1:] - 1], np.arange(n)):
            raise ScheduleCompileError(
                "U must store the diagonal as the last entry of every column"
            )

    # Workspace layout: column k's slice holds its above-diagonal U rows
    # followed by its L rows (pivot first) — the union pattern in
    # ascending row order.
    wcnt = ucnt - 1 + lcnt
    wptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(wcnt, out=wptr[1:])
    wtotal = int(wptr[-1])
    union_rows = np.empty(wtotal, dtype=np.int64)
    col_of_u = np.repeat(np.arange(n), ucnt)
    pos_u = np.arange(Ui.size, dtype=np.int64) - np.repeat(Up[:-1], ucnt)
    above = pos_u < (ucnt[col_of_u] - 1)
    union_rows[wptr[col_of_u[above]] + pos_u[above]] = Ui[above]
    col_of_l = np.repeat(np.arange(n), lcnt)
    pos_l = np.arange(Li.size, dtype=np.int64) - np.repeat(Lp[:-1], lcnt)
    union_rows[wptr[col_of_l] + (ucnt[col_of_l] - 1) + pos_l] = Li
    union_key = np.repeat(np.arange(n), wcnt) * n + union_rows
    if union_key.size > 1 and not np.all(np.diff(union_key) > 0):
        raise ScheduleCompileError("factor columns are not sorted triangular patterns")

    # Input scatter: A entry (r, k) lands at pivot row inv[r] of column k.
    inv = np.empty(n, dtype=np.int64)
    inv[row_perm] = np.arange(n, dtype=np.int64)
    col_of_a = np.repeat(np.arange(n), np.diff(A.indptr))
    a_key = col_of_a * n + inv[A.indices]
    a_scatter = np.searchsorted(union_key, a_key)
    if a_scatter.size and (
        np.any(a_scatter >= wtotal)
        or not np.array_equal(union_key[np.minimum(a_scatter, wtotal - 1)], a_key)
    ):
        raise ScheduleCompileError(
            "input entries fall outside the factor pattern (pattern changed?)"
        )

    # Levels on the union graph of L-below and U-above edges: longest
    # path on Python lists, as in compile_triangular_schedule, with the
    # rows read through memoryviews.
    lev_l = [0] * n
    ui_mv, li_mv = memoryview(np.ascontiguousarray(Ui)), memoryview(np.ascontiguousarray(Li))
    up_l, lp_l = Up.tolist(), Lp.tolist()
    for k in range(n):
        lk = lev_l[k]
        for j in ui_mv[up_l[k] : up_l[k + 1] - 1]:
            if lev_l[j] >= lk:
                lk = lev_l[j] + 1
        lev_l[k] = lk
        lk += 1
        for i in li_mv[lp_l[k] + 1 : lp_l[k + 1]]:
            if lev_l[i] < lk:
                lev_l[i] = lk
    lev = np.array(lev_l, dtype=np.int64)
    n_stages = int(lev.max()) + 1 if n else 0
    col_order = np.argsort(lev, kind="stable")
    stage_sizes = np.bincount(lev, minlength=n_stages) if n else np.empty(0, dtype=np.int64)
    col_ptr = np.concatenate(([0], np.cumsum(stage_sizes)))

    # One update op per above-diagonal U entry; grouped by source level.
    op_src = Ui[above]
    op_tgt = col_of_u[above]
    op_wpos = (wptr[col_of_u] + pos_u)[above]
    op_stage = lev[op_src]
    op_order = np.argsort(op_stage, kind="stable")
    op_sizes = np.bincount(op_stage, minlength=n_stages) if op_src.size else np.zeros(
        n_stages, dtype=np.int64
    )
    op_ptr = np.concatenate(([0], np.cumsum(op_sizes)))

    piv_wpos = wptr[col_order] + ucnt[col_order] - 1
    stages: List[_RefactorStage] = []
    for s in range(n_stages):
        cols = col_order[col_ptr[s] : col_ptr[s + 1]]
        l_counts = lcnt[cols] - 1
        l_dst = _concat_ranges(Lp[cols] + 1, l_counts)
        l_src = _concat_ranges(wptr[cols] + ucnt[cols], l_counts)

        ops = op_order[op_ptr[s] : op_ptr[s + 1]]
        src = op_src[ops]
        tgt = op_tgt[ops]
        op_len = lcnt[src] - 1
        ent_lval_idx = _concat_ranges(Lp[src] + 1, op_len)
        ent_row = Li[ent_lval_idx]
        ent_key = np.repeat(tgt, op_len) * n + ent_row
        ent_pos = np.searchsorted(union_key, ent_key)
        if ent_pos.size and (
            np.any(ent_pos >= wtotal)
            or not np.array_equal(union_key[np.minimum(ent_pos, wtotal - 1)], ent_key)
        ):
            raise ScheduleCompileError(
                "factor pattern is not closed under the update paths"
            )
        ent_order, seg_starts, seg_tgt = _segment(ent_pos)
        stages.append(_RefactorStage(
            cols=cols,
            l_dst=l_dst,
            l_src=l_src,
            l_piv=np.repeat(piv_wpos[col_ptr[s] : col_ptr[s + 1]], l_counts),
            ent_lval=ent_lval_idx[ent_order],
            ent_src=np.repeat(op_wpos[ops], op_len)[ent_order],
            seg_starts=seg_starts,
            seg_tgt=seg_tgt,
        ))

    flops = (np.bincount(col_group[op_tgt], weights=lcnt[op_src] - 1, minlength=n_groups)
             + np.bincount(col_group, weights=lcnt - 1, minlength=n_groups))
    columns = np.bincount(col_group, minlength=n_groups)
    words = np.bincount(col_group, weights=lcnt + ucnt, minlength=n_groups)
    ledgers = [CostLedger(sparse_flops=float(f), columns=float(c), mem_words=float(w))
               for f, c, w in zip(flops, columns, words)]

    ux_src = wptr[col_of_u] + pos_u
    return RefactorSchedule(
        n=n,
        l_indptr=Lp,
        l_indices=Li,
        u_indptr=Up,
        u_indices=Ui,
        a_indptr=A.indptr,
        a_indices=A.indices,
        # Stored without copying: patterns and permutations are
        # immutable by convention, and keeping the caller's objects
        # lets matches() succeed on identity across a sequence.
        row_perm=row_perm,
        wtotal=wtotal,
        a_scatter=a_scatter,
        ux_src=ux_src,
        l_diag_dst=Lp[:-1].copy(),
        piv_wpos=piv_wpos,
        ledgers=ledgers,
        stages=stages,
    )


class BlockedRefactorSchedule:
    """One flattened schedule replaying every diagonal block at once.

    A BTF decomposition of a circuit matrix yields hundreds of tiny
    diagonal blocks; refactoring them one Python call at a time costs
    more in interpreter overhead than in arithmetic.  This compiles the
    *block-diagonal* union of all per-block factor patterns into a
    single :class:`RefactorSchedule` — independent blocks share level
    stages, so one sequence step is a handful of whole-matrix numpy
    calls regardless of the block count.  Each block is one column
    group, so ``schedule.ledgers[k]`` is block ``k``'s ledger, identical
    to running :func:`~repro.solvers.gp.gp_refactor` block by block.

    Parameters
    ----------
    splits
        Block boundaries (``nblocks + 1`` entries, as in BTF).
    block_patterns
        Per block, ``(Lp, Li, Up, Ui)`` of its fixed factors.
    block_gathers
        Per block, ``(indptr, indices, gather)`` from
        :func:`diagonal_block_gathers` — the gather maps the permuted
        matrix's data array onto the block's values.
    """

    def __init__(self, splits, block_patterns, block_gathers) -> None:
        splits = np.asarray(splits, dtype=np.int64)
        nb = splits.size - 1
        base = int(splits[0])
        n = int(splits[-1]) - base
        lcols, lrows, ucols, urows = [], [], [], []
        dcols, drows, dgather = [], [], []
        l_nnz = np.zeros(nb + 1, dtype=np.int64)
        u_nnz = np.zeros(nb + 1, dtype=np.int64)
        for k in range(nb):
            lo = int(splits[k]) - base
            Lp, Li, Up, Ui = block_patterns[k]
            bptr, brows, bg = block_gathers[k]
            lcols.append(np.diff(Lp))
            lrows.append(Li + lo)
            ucols.append(np.diff(Up))
            urows.append(Ui + lo)
            dcols.append(np.diff(bptr))
            drows.append(brows + lo)
            dgather.append(bg)
            l_nnz[k + 1] = Li.size
            u_nnz[k + 1] = Ui.size

        def _cat(parts):
            return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

        def _ptr(count_parts):
            ptr = np.zeros(n + 1, dtype=np.int64)
            if count_parts:
                np.cumsum(_cat(count_parts), out=ptr[1:])
            return ptr

        zeros = np.zeros  # values are irrelevant for pattern-only compile
        L = CSC(n, n, _ptr(lcols), _cat(lrows), zeros(int(l_nnz.sum())))
        U = CSC(n, n, _ptr(ucols), _cat(urows), zeros(int(u_nnz.sum())))
        dr = _cat(drows)
        D = CSC(n, n, _ptr(dcols), dr, zeros(dr.size))
        col_group = np.repeat(np.arange(nb), np.diff(splits))
        self.schedule = compile_refactor_schedule(
            L, U, D, np.arange(n, dtype=np.int64),
            col_group=col_group, n_groups=nb,
        )
        self.d_gather = _cat(dgather)
        # Per-block slices of the flattened factor values.
        self.l_ptr = np.cumsum(l_nnz)
        self.u_ptr = np.cumsum(u_nnz)

    # ------------------------------------------------------------------
    def run(self, m_data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Replay on the permuted matrix's values.

        Returns ``(Lx, Ux)``: block ``k``'s factor values are
        ``Lx[l_ptr[k]:l_ptr[k+1]]`` / ``Ux[u_ptr[k]:u_ptr[k+1]]``; its
        costs, fixed by the patterns, are ``schedule.ledgers[k]``.
        Raises :class:`~repro.errors.SingularMatrixError` as
        :meth:`RefactorSchedule.run` does; callers then refactor with
        fresh pivoting.
        """
        return self.schedule.run(m_data[self.d_gather], None)


# ======================================================================
# Factor stores
# ======================================================================


class FactorPattern:
    """The per-block ``L``/``U`` patterns a :class:`FactorStore` is laid
    out by.

    A fresh factorization builds one; every values-only refactorization
    of it passes the object on unchanged, so a whole sequence shares it
    and the compiled plans keyed on it revalidate by identity.

    ``blocks[k]`` is block ``k``'s ``(Lp, Li, Up, Ui)``, None for an
    empty block.  ``splits`` are the block boundaries, and block ``k``'s
    values sit at ``l_ptr[k]:l_ptr[k+1]`` of the store's ``Lx`` and
    ``u_ptr[k]:u_ptr[k+1]`` of its ``Ux``, the layout
    :meth:`BlockedRefactorSchedule.run` writes.
    """

    __slots__ = ("blocks", "splits", "l_ptr", "u_ptr")

    def __init__(self, blocks: List[Optional[Tuple[CSC, CSC]]]) -> None:
        self.blocks = [None if b is None else (b[0].indptr, b[0].indices, b[1].indptr,
                                               b[1].indices) for b in blocks]
        counts = [(0, 0, 0) if p is None else (p[0].size - 1, p[1].size, p[3].size)
                  for p in self.blocks]
        ptrs = np.zeros((3, len(blocks) + 1), dtype=np.int64)
        np.cumsum(np.array(counts, dtype=np.int64).reshape(-1, 3).T, axis=1, out=ptrs[:, 1:])
        self.splits, self.l_ptr, self.u_ptr = ptrs

    @property
    def n(self) -> int:
        return int(self.splits[-1])

    def same(self, other: "FactorPattern") -> bool:
        """True when ``other`` is this object or holds equal patterns."""
        return other is self or (
            len(other.blocks) == len(self.blocks)
            and all(a is b or (a is not None and b is not None
                               and all(map(_same_pattern, a, b)))
                    for a, b in zip(self.blocks, other.blocks)))


class FactorStore:
    """Every diagonal block's factor values in two flat arrays.

    ``Lx`` and ``Ux`` are laid out by :attr:`pattern` (see
    :class:`FactorPattern`); ``ledgers[k]`` is the cost of block ``k``'s
    values.  :meth:`RefactorPlan.replay` returns a new store, a fresh
    factorization builds one with :meth:`of_blocks`, and the BTF solve
    reads its values from the two arrays.  :meth:`block` views one
    block as CSC factors sharing the store's memory, so a write through
    a view is a write to the store.
    """

    __slots__ = ("Lx", "Ux", "pattern", "ledgers")

    def __init__(self, Lx: np.ndarray, Ux: np.ndarray, pattern: FactorPattern,
                 ledgers: List[Optional[CostLedger]]) -> None:
        self.Lx, self.Ux, self.pattern, self.ledgers = Lx, Ux, pattern, ledgers

    @classmethod
    def of_blocks(cls, blocks: List[Optional[Tuple[CSC, CSC]]],
                  ledgers: List[Optional[CostLedger]]) -> "FactorStore":
        """The store of freshly factored ``blocks`` (per block ``(L, U)``,
        None when empty) costing ``ledgers``.  Every block's ``data``
        arrays are rebound to views of the store."""
        pattern = FactorPattern(blocks)
        full = [b for b in blocks if b is not None]
        Lx = np.concatenate([np.empty(0)] + [b[0].data for b in full])
        Ux = np.concatenate([np.empty(0)] + [b[1].data for b in full])
        lp, up = pattern.l_ptr.tolist(), pattern.u_ptr.tolist()
        for k, b in enumerate(blocks):
            if b is not None:
                b[0].data = Lx[lp[k] : lp[k + 1]]
                b[1].data = Ux[up[k] : up[k + 1]]
        return cls(Lx, Ux, pattern, ledgers)

    def block(self, k: int) -> Optional[Tuple[CSC, CSC]]:
        """Block ``k``'s ``(L, U)`` as views of the store, None when empty."""
        pat = self.pattern.blocks[k]
        if pat is None:
            return None
        Lp, Li, Up, Ui = pat
        n = Lp.size - 1
        lp, up = self.pattern.l_ptr, self.pattern.u_ptr
        return (CSC(n, n, Lp, Li, self.Lx[lp[k] : lp[k + 1]]),
                CSC(n, n, Up, Ui, self.Ux[up[k] : up[k + 1]]))

    def blocks(self) -> List[Optional[Tuple[CSC, CSC]]]:
        return [self.block(k) for k in range(len(self.pattern.blocks))]

    @property
    def factor_nnz(self) -> int:
        """|L + U| over every block, each unit diagonal of L counted once."""
        return self.Lx.size + self.Ux.size - self.pattern.n

    @property
    def factor_bytes(self) -> int:
        """CSC bytes of every block's factors: 16 B per stored entry
        (value and index), 16 B per column pointer of L and U."""
        full = sum(b is not None for b in self.pattern.blocks)
        return 16 * (self.Lx.size + self.Ux.size) + 16 * (self.pattern.n + full)


# ======================================================================
# Whole-BTF solve schedules
# ======================================================================


def _btf_system(pattern: FactorPattern, m_indptr, m_indices):
    """Pattern of the ``2n`` system ``T`` of a BTF back-substitution.

    Returns ``(T, gather, ypos, zpos, src_size)``: ``T`` with zero
    values, ``gather`` mapping its data array into the value source
    ``[Lx, Ux, M.data, 1, -1]`` of length ``src_size`` (``Lx``/``Ux`` of
    a :class:`FactorStore` laid out by ``pattern``), and the positions
    of every ``y`` and ``z`` unknown (see :class:`BTFSolveSchedule`).
    ``m_indices`` None means no coupling.
    """
    splits = pattern.splits
    n = pattern.n
    if m_indices is None:
        m_indptr, m_indices = np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    blk = np.repeat(np.arange(splits.size - 1), np.diff(splits))
    lo, hi = splits[:-1][blk], splits[1:][blk]
    loc = np.arange(n, dtype=np.int64) - lo
    ypos = 2 * (n - hi) + loc           # position of y for index g
    zpos = 2 * (n - lo) - 1 - loc       # position of z for index g

    # Factor entries in global coordinates; entry e of the concatenated
    # L (U) patterns is Lx[e] (Ux[e]) of the store.
    lcnt, lrow, ucnt, urow = [], [], [], []
    for base, pat in zip(splits.tolist(), pattern.blocks):
        if pat is not None:
            Lp, Li, Up, Ui = pat
            lcnt.append(np.diff(Lp))
            lrow.append(Li + base)
            ucnt.append(np.diff(Up))
            urow.append(Ui + base)
    u_off = int(pattern.l_ptr[-1])
    m_off = u_off + int(pattern.u_ptr[-1])
    one, neg_one = m_off + m_indices.size, m_off + m_indices.size + 1

    def _cat(parts):
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    lcol = np.repeat(np.arange(n), _cat(lcnt))
    lrow_g = _cat(lrow)
    ucol = np.repeat(np.arange(n), _cat(ucnt))
    urow_g = _cat(urow)
    mcol = np.repeat(np.arange(n), np.diff(m_indptr))
    below = np.flatnonzero(lrow_g > lcol)        # L strictly below: y rows
    upper = np.flatnonzero(urow_g <= ucol)       # U on/above: z rows
    coupling = np.flatnonzero(m_indices < lo[mcol])  # M above its block
    n_lb = np.bincount(lcol[below], minlength=n)
    n_ua = np.bincount(ucol[upper], minlength=n)
    n_e = np.bincount(mcol[coupling], minlength=n)

    cnt = np.empty(2 * n, dtype=np.int64)
    cnt[ypos] = n_lb + 2
    cnt[zpos] = n_ua + n_e
    tptr = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum(cnt, out=tptr[1:])
    t_rows = np.empty(int(tptr[-1]), dtype=np.int64)
    gather = np.empty(int(tptr[-1]), dtype=np.int64)

    def _rank(cols, counts):
        """Rank of each entry within its column (entries in CSC order)."""
        start = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return np.arange(cols.size, dtype=np.int64) - start[cols]

    # y_g's column: unit diagonal, L's below-diagonal entries, -1 at z_g.
    head = tptr[ypos]
    t_rows[head] = ypos
    gather[head] = one
    cols = lcol[below]
    dst = tptr[ypos[cols]] + 1 + _rank(cols, n_lb)
    t_rows[dst] = ypos[lrow_g[below]]
    gather[dst] = below
    dst = head + 1 + n_lb
    t_rows[dst] = zpos
    gather[dst] = neg_one

    # z_g's column: U's column reversed (z runs descending), then the
    # coupling entries of M grouped by row block, later blocks first.
    cols = ucol[upper]
    dst = tptr[zpos[cols]] + n_ua[cols] - 1 - _rank(cols, n_ua)
    t_rows[dst] = zpos[urow_g[upper]]
    gather[dst] = u_off + upper
    cols = mcol[coupling]
    rows = m_indices[coupling]
    if coupling.size:
        new = np.ones(coupling.size, dtype=bool)
        new[1:] = (cols[1:] != cols[:-1]) | (blk[rows[1:]] != blk[rows[:-1]])
        g_first = np.flatnonzero(new)
        gid = np.cumsum(new) - 1
        g_start = g_first[gid]
        g_end = np.append(g_first[1:], coupling.size)[gid]
        c_end = np.cumsum(n_e)[cols]
        dst = (tptr[zpos[cols]] + n_ua[cols]
               + (c_end - g_end) + (np.arange(coupling.size) - g_start))
        t_rows[dst] = ypos[rows]
        gather[dst] = m_off + coupling

    # Every factorization here stores sorted columns; the level
    # compiler relies on it, so check rather than trust.
    first = np.zeros(t_rows.size, dtype=bool)
    first[tptr[:-1][cnt > 0]] = True
    if np.any(np.diff(t_rows)[~first[1:]] <= 0):
        raise ScheduleCompileError("factor columns are not sorted")

    T = CSC(2 * n, 2 * n, tptr, t_rows, np.broadcast_to(0.0, t_rows.shape))
    return T, gather, ypos, zpos, neg_one + 1


class BTFSolveSchedule:
    """The whole BTF block back-substitution as one triangular replay.

    A block upper triangular ``M`` whose diagonal blocks factor as
    ``M_kk = L_k U_k`` is solved from the last block to the first:
    ``z_k = U_k^{-1} L_k^{-1} (c_k - sum_{j>k} M_kj z_j)``.  Run as a
    Python loop over blocks (and over right-hand-side columns), that
    costs far more interpreter time than arithmetic on circuit matrices
    with hundreds of tiny blocks.  With ``y_k = L_k^{-1}(...)`` as extra
    unknowns, the loop is one lower triangular system ``T u = d`` of
    size ``2n``:

    * unknowns run from the last block to the first: each block's
      ``y_k`` ascending, then its ``z_k`` descending;
    * the rows are ``L_k y_k + sum_{j>k} M_kj z_j = c_k`` (L's unit
      diagonal stored as a constant) and ``-y_k + U_k z_k = 0``.

    ``T``'s pattern is levelled once by
    :func:`compile_triangular_schedule`, so independent blocks share
    levels and each level is a few vector operations for all columns of
    the right-hand side.  ``T``'s values are never stored as a matrix:
    :meth:`values` reads them through one composed gather from the
    factors' and ``M``'s data arrays.  Only the pattern-keyed parts are
    held: the schedule, the gather, and the right-hand-side and
    solution permutations.

    The transpose ``A.T x = b`` is the transposed system ``T.T w = d``,
    upper triangular: ``b`` enters at the z positions and the answer
    leaves from the y positions.  ``T.T`` is levelled on the first
    transpose solve, from the patterns in :attr:`key`, and replays
    ``T``'s values in row-major order (``t_order``).

    A single factor pair with no coupling (the supernodal solver) is a
    one-block BTF with ``m_indices`` None.

    Parameters
    ----------
    pattern
        The :class:`FactorPattern` of the factors' :class:`FactorStore`
        (block boundaries and per-block patterns).  Columns must be
        sorted (every factorization here stores them so).
    m_indptr, m_indices
        Pattern of ``M = A[row_perm][:, col_perm]``, or None for no
        coupling.
    row_perm, col_perm
        The factorization's final permutations.
    """

    def __init__(self, pattern: FactorPattern, m_indptr, m_indices,
                 row_perm, col_perm) -> None:
        T, self.gather, self.y_pos, zpos, self.src_size = _btf_system(
            pattern, m_indptr, m_indices)
        self.schedule = compile_triangular_schedule(T, "lower")
        self.n = n = pattern.n
        self.row_perm = row_perm
        self.x_src = np.empty(n, dtype=np.int64)
        self.x_src[np.asarray(col_perm, dtype=np.int64)] = zpos
        # ``T.T``'s schedule and value order, set by the first transpose.
        self.t_schedule: Optional[TriangularSchedule] = None
        self.t_order: Optional[np.ndarray] = None
        # What this plan was compiled for, revalidated by object
        # identity first (see :meth:`matches`).
        self.key = (pattern, m_indptr, m_indices, row_perm, col_perm)

    # ------------------------------------------------------------------
    def matches(self, key: tuple) -> bool:
        """True when compiled for ``key``: ``(pattern, m_indptr,
        m_indices, row_perm, col_perm)`` as passed to the constructor.

        Object identity decides along a refactorization sequence, which
        passes the pattern and permutations on unchanged.  Equal but
        distinct ones (a fresh factorization with the same pivots) are
        adopted, so the next check is by identity again.
        """
        held = self.key
        if not (held[0].same(key[0]) and all(map(_same_pattern, key[1:], held[1:]))):
            return False
        self.key = key
        return True

    def values(self, store: FactorStore, m_data: Optional[np.ndarray]) -> np.ndarray:
        """``T``'s data array from the factor values of ``store`` and
        ``m_data`` (``M.data``, None without coupling)."""
        consts = (1.0, -1.0)  # L's unit diagonal and the -1 linking y to z
        src = (store.Lx, store.Ux, consts) if m_data is None else (
            store.Lx, store.Ux, m_data, consts)
        return np.concatenate(src)[self.gather]

    def solve(self, t_data: np.ndarray, b: np.ndarray,
              transpose: bool = False) -> np.ndarray:
        """``x`` with ``A x = b``, or ``A.T x = b`` with ``transpose``, for
        ``b`` of shape ``(n,)`` or ``(n, k)``; ``t_data`` comes from
        :meth:`values`."""
        d = np.zeros((2 * self.n,) + b.shape[1:], dtype=np.float64)
        if transpose:
            if self.t_schedule is None:
                self._compile_transpose()
            d[self.x_src] = b
            w = self._replay(self.t_schedule, t_data[self.t_order], d)
            x = np.empty(b.shape, dtype=np.float64)
            x[self.row_perm] = w[self.y_pos]
            return x
        d[self.y_pos] = b[self.row_perm]
        return self._replay(self.schedule, t_data, d)[self.x_src]

    def _replay(self, schedule: TriangularSchedule, data: np.ndarray,
                d: np.ndarray) -> np.ndarray:
        try:
            return schedule.replay(data, d)
        except ZeroPivotError as exc:
            # Only z unknowns have a variable diagonal (U's): report the
            # column of A it belongs to.
            col = int(np.flatnonzero(self.x_src == exc.column)[0])
            raise ZeroPivotError(f"zero U diagonal in the factors of column {col}",
                                 column=col) from exc

    def _compile_transpose(self) -> None:
        """Level ``T.T`` from the patterns in :attr:`key`."""
        T = _btf_system(*self.key[:3])[0]
        # Numbered in T's CSC order, the entries of T.T carry the
        # numbers to their row-major places.
        Tt = CSC(T.n_rows, T.n_cols, T.indptr, T.indices,
                 np.arange(T.nnz, dtype=np.float64)).transpose()
        self.t_schedule = compile_triangular_schedule(Tt, "upper")
        self.t_order = Tt.data.astype(np.int64)


# ======================================================================
# Fixed-pattern value gathers (sequence replay helpers)
# ======================================================================


@domains(row_perm="perm[A->B]", col_perm="perm[C->D]")
@shapes(A="csc[r,c]")
def permutation_gather(
    A: CSC,
    row_perm: Optional[np.ndarray] = None,
    col_perm: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pattern and value-gather of ``A.permute(row_perm, col_perm)``.

    Returns ``(indptr, indices, gather)`` such that for any matrix ``B``
    with ``A``'s pattern, ``CSC(n_rows, n_cols, indptr, indices,
    B.data[gather])`` equals ``B.permute(row_perm, col_perm)`` — a
    values-only permutation with no per-step CSC reconstruction.
    """
    n_rows, n_cols = A.n_rows, A.n_cols
    col_of = np.repeat(np.arange(n_cols), np.diff(A.indptr))
    if col_perm is not None:
        invc = np.empty(n_cols, dtype=np.int64)
        invc[np.asarray(col_perm, dtype=np.int64)] = np.arange(n_cols, dtype=np.int64)
        newcol = invc[col_of]
    else:
        newcol = col_of
    if row_perm is not None:
        invr = np.empty(n_rows, dtype=np.int64)
        invr[np.asarray(row_perm, dtype=np.int64)] = np.arange(n_rows, dtype=np.int64)
        newrow = invr[A.indices]
    else:
        newrow = A.indices
    gather = np.lexsort((newrow, newcol))
    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(newcol, minlength=n_cols), out=indptr[1:])
    return indptr, newrow[gather], gather


@shapes(indptr="i8[q] sorted", indices="i8[m]", splits="i8[s] sorted")
def diagonal_block_gathers(
    indptr: np.ndarray, indices: np.ndarray, splits: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-diagonal-block patterns and value gathers of a blocked matrix.

    ``splits`` are the block boundaries (as in a BTF decomposition).
    For block ``b`` spanning ``lo:hi``, the returned ``(indptr, indices,
    gather)`` satisfies ``M.submatrix(lo, hi, lo, hi).data ==
    M.data[gather]`` for any matrix ``M`` with this pattern, with
    ``indptr``/``indices`` the (fixed) local block pattern.
    """
    n = indptr.size - 1
    splits = np.asarray(splits, dtype=np.int64)
    nblocks = splits.size - 1
    col_of = np.repeat(np.arange(n), np.diff(indptr))
    blk_of_col = np.searchsorted(splits, col_of, side="right") - 1
    blk_of_row = np.searchsorted(splits, indices, side="right") - 1
    on_diag = blk_of_col == blk_of_row
    didx = np.flatnonzero(on_diag)           # CSC order preserved per block
    dblk = blk_of_col[didx]
    bounds = np.searchsorted(dblk, np.arange(nblocks + 1))
    out: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for b in range(nblocks):
        lo, hi = int(splits[b]), int(splits[b + 1])
        gather = didx[bounds[b] : bounds[b + 1]]
        local_rows = indices[gather] - lo
        local_cols = col_of[gather] - lo
        bptr = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(np.bincount(local_cols, minlength=hi - lo), out=bptr[1:])
        out.append((bptr, local_rows, gather))
    return out


# ======================================================================
# The values-only refactorization plan
# ======================================================================


class RefactorPlan:
    """Everything a values-only refactorization step reuses.

    KLU, Basker and the supernodal solver refactor a fixed pattern with
    fixed pivots through this one object.  Keyed on the input pattern
    and the factorization's final row permutation, it holds:

    * the :func:`permutation_gather` of ``A`` into ``M =
      A[row_perm][:, col_perm]`` (:meth:`permute`);
    * every diagonal block's :func:`diagonal_block_gathers` map into
      ``M.data`` (``blocks``);
    * the :class:`BlockedRefactorSchedule` that replays all blocks at
      once, compiled on the first :meth:`replay` for the factors'
      :class:`FactorPattern` and revalidated against it, by object
      identity first, and the sum of its per-block ledgers (``ledger``).

    ``M`` already holds the pivoting, so each replayed block keeps its
    rows in place (identity pivot order).

    Lookups count as ``<prefix>.refactor.gather.{hit,miss,invalidate}``
    (:func:`refactor_plan`) and ``<prefix>.refactor.schedule.*``
    (:meth:`replay`).
    """

    def __init__(self, prefix: str, A: CSC, row_perm: np.ndarray,
                 col_perm: np.ndarray, splits: np.ndarray) -> None:
        self.prefix = prefix
        self.a_indptr = A.indptr
        self.a_indices = A.indices
        self.row_perm = row_perm
        self.splits = splits
        self.m_indptr, self.m_indices, self.m_gather = permutation_gather(
            A, row_perm, col_perm
        )
        self.blocks = diagonal_block_gathers(self.m_indptr, self.m_indices, splits)
        # Set when ``schedule`` compiles: the pattern it was compiled for
        # and the sum of its per-block ledgers.
        self.schedule: Optional[BlockedRefactorSchedule] = None
        self.pattern: Optional[FactorPattern] = None
        self.ledger: Optional[CostLedger] = None

    def matches(self, A: CSC, row_perm: np.ndarray) -> bool:
        """True when built for ``A``'s pattern and this row permutation."""
        return (_same_pattern(A.indptr, self.a_indptr)
                and _same_pattern(A.indices, self.a_indices)
                and _same_pattern(row_perm, self.row_perm))

    def permute(self, a_data: np.ndarray) -> CSC:
        """``M`` for values ``a_data`` on ``A``'s pattern."""
        n = self.m_indptr.size - 1
        return CSC(n, n, self.m_indptr, self.m_indices, a_data[self.m_gather])

    def replay(self, m_data: np.ndarray,
               pattern: FactorPattern) -> Tuple[FactorStore, CostLedger]:
        """Refactor every diagonal block of ``M`` (data ``m_data``) on the
        prior factors' ``pattern`` and identity pivot orders.

        Returns the new :class:`FactorStore`, laid out by ``pattern``
        itself, and the sum of its per-block ledgers, fixed when the
        schedule was compiled (shared: add it, do not change it).
        Values and ledgers are identical to running
        :func:`~repro.solvers.gp.gp_refactor` block by block.  Raises
        :class:`ScheduleCompileError` when the patterns cannot be
        scheduled and :class:`~repro.errors.SingularMatrixError` when a
        reused pivot is unusable.
        """
        family = self.prefix + ".refactor.schedule"
        if self.schedule is not None and self.pattern.same(pattern):
            get_tracer().metrics.incr(family + ".hit")
        else:
            get_tracer().metrics.incr(
                family + (".miss" if self.schedule is None else ".invalidate"))
            self.schedule = None  # a failed compile leaves no stale schedule
            empty = (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)) * 2
            blocked = BlockedRefactorSchedule(
                self.splits, [pat or empty for pat in pattern.blocks], self.blocks)
            self.ledger = CostLedger()
            for led in blocked.schedule.ledgers:
                self.ledger.add(led)
            self.schedule = blocked
        self.pattern = pattern
        blocked = self.schedule
        Lx, Ux = blocked.run(m_data)
        return FactorStore(Lx, Ux, pattern, blocked.schedule.ledgers), self.ledger


def refactor_plan(prior: Optional[RefactorPlan], prefix: str, A: CSC,
                  row_perm: np.ndarray, col_perm: np.ndarray,
                  splits: np.ndarray) -> RefactorPlan:
    """``prior`` when it still fits ``A``'s pattern and ``row_perm``,
    else a new :class:`RefactorPlan`; counts the lookup as
    ``<prefix>.refactor.gather.{hit,miss,invalidate}``."""
    family = prefix + ".refactor.gather"
    if prior is not None and prior.matches(A, row_perm):
        get_tracer().metrics.incr(family + ".hit")
        return prior
    get_tracer().metrics.incr(family + (".miss" if prior is None else ".invalidate"))
    return RefactorPlan(prefix, A, row_perm, col_perm, splits)
