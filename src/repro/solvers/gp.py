"""The Gilbert–Peierls sparse LU kernel (Algorithm 1 of the paper).

Left-looking column factorization with partial pivoting whose total
work is proportional to the arithmetic operations performed (Gilbert &
Peierls, SISSC 1988).  For every column ``k``:

1.  the fill pattern of column ``k`` is the reach of ``pattern(A(:,k))``
    in the graph of the partially built L (a stamped DFS emitting
    topological order — :func:`repro.graph.dfs.topo_reach`);
2.  a sparse lower-triangular solve updates the column values in that
    order;
3.  a pivot is chosen (threshold partial pivoting with diagonal
    preference, KLU-style) and the column is split into L and U.

The implementation mirrors CSparse's ``cs_lu``: L's row indices stay in
*original* numbering during factorization (``pinv`` maps a row to the
column it became pivot of) and are renumbered at the end.  Every
operation is counted into a :class:`~repro.parallel.ledger.CostLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..contracts import domains, effects, shapes
from ..errors import SingularMatrixError, StructureError
from ..graph.dfs import ReachGraph, ReachWorkspace, topo_reach
from ..obs.tracer import get_tracer
from ..parallel.ledger import CostLedger
from ..resilience.faults import fault_values as _fault_values
from ..sparse.blocking import DensePlan, detect_dense_tail
from ..sparse.csc import CSC
from ..sparse.schedule import RefactorSchedule, compile_refactor_schedule

__all__ = [
    "GPResult",
    "gp_factor",
    "gp_factor_reference",
    "gp_refactor",
    "gp_refactor_reference",
    "ensure_refactor_schedule",
    "GP_DEFAULT_PIVOT_TOL",
]

GP_DEFAULT_PIVOT_TOL = 0.001  # KLU's default diagonal-preference threshold


@dataclass
class GPResult:
    """LU factorization ``A[row_perm, :] = L @ U``.

    ``L`` is unit lower triangular (unit diagonal stored explicitly),
    ``U`` upper triangular.  ``row_perm`` follows the fancy-index
    convention: row ``i`` of the factored matrix is row ``row_perm[i]``
    of the input.
    """

    L: CSC
    U: CSC
    row_perm: np.ndarray
    ledger: CostLedger
    # Compiled elimination schedule for values-only refactorization on
    # this pattern (see :mod:`repro.sparse.schedule`).  Populated lazily
    # by :func:`ensure_refactor_schedule` and propagated to the results
    # of :func:`gp_refactor`, so a sequence of same-pattern matrices
    # compiles once and replays vectorized thereafter.
    schedule: Optional[RefactorSchedule] = None
    # Dense-tail blocking plan used (or detected) by :func:`gp_factor`;
    # pattern-only, so callers holding a fixed pattern (KLU's per-block
    # symbolic) can cache and resupply it across factorizations.
    dense_plan: Optional[DensePlan] = None

    @property
    def n(self) -> int:
        return self.L.n_rows

    @property
    def factor_nnz(self) -> int:
        return self.L.nnz + self.U.nnz


def _no_pivot(k: int) -> SingularMatrixError:
    return SingularMatrixError(
        f"no usable pivot in column {k} (structurally or numerically singular)",
        column=k,
    )


def _grow(arr: np.ndarray, needed: int) -> np.ndarray:
    if needed <= arr.size:
        return arr
    new = max(needed, 2 * arr.size, 16)
    out = np.empty(new, dtype=arr.dtype)
    out[: arr.size] = arr
    return out


@effects(mutates=("prior",))
@shapes(A="csc[n,n]")
def ensure_refactor_schedule(prior: GPResult, A: CSC) -> RefactorSchedule:
    """The compiled refactor schedule for ``prior``'s pattern against
    ``A``'s pattern, compiling and caching it on ``prior`` if absent or
    stale (pattern / pivot-order change ⇒ recompile)."""
    metrics = get_tracer().metrics
    sched = prior.schedule
    if sched is None:
        metrics.incr("schedule.refactor.miss")
    elif not sched.matches(prior.L, prior.U, A, prior.row_perm):
        metrics.incr("schedule.refactor.invalidate")
        sched = None
    else:
        metrics.incr("schedule.refactor.hit")
    if sched is None:
        sched = compile_refactor_schedule(prior.L, prior.U, A, prior.row_perm)
        prior.schedule = sched
    return sched


@domains(A="matrix[S]")
@effects(mutates=("ledger", "prior"))
@shapes(A="csc[n,n]")
def gp_refactor(
    A: CSC,
    prior: GPResult,
    ledger: CostLedger | None = None,
) -> GPResult:
    """Values-only refactorization on a fixed pattern and pivot order.

    The ``klu_refactor`` fast path: reuse the previous factorization's
    nonzero pattern *and* row permutation, recompute only the values —
    no reach DFS, no pivot search.  Raises
    :class:`SingularMatrixError` when a reused pivot falls to zero;
    callers then fall back to a full :func:`gp_factor` with fresh
    pivoting, exactly like KLU users do.

    Vectorized level-scheduled replay of :func:`gp_refactor_reference`
    through a compiled :class:`~repro.sparse.schedule.RefactorSchedule`
    (cached on ``prior`` and propagated to the result, so sequences of
    same-pattern matrices compile once).  Values match the reference up
    to summation order; ledger counts are identical, fixed by the
    pattern when the schedule is compiled.  Differences on
    *failure* only: the reported singular column is the first in
    schedule order (not necessarily the smallest), and no partial costs
    are recorded (the reference loop records the columns it completed).
    """
    n = A.n_cols
    if A.n_rows != n:
        raise StructureError("GP refactorization requires a square matrix")
    if prior.L.shape != (n, n):
        raise StructureError("prior factors have the wrong shape")
    led = ledger if ledger is not None else CostLedger()
    if n == 0:
        e = CSC.empty(0, 0)
        return GPResult(e, e, np.empty(0, dtype=np.int64), led)
    sched = ensure_refactor_schedule(prior, A)
    a_data = _fault_values("gp.refactor.values", A.data)
    Lx, Ux = sched.run(a_data, led)
    metrics = get_tracer().metrics
    if metrics.enabled:
        # Amortized health gauge: one vectorized pass per refactor step.
        amax = float(np.max(np.abs(a_data), initial=0.0))
        umax = float(np.max(np.abs(Ux), initial=0.0))
        metrics.set_gauge("gp.pivot_growth", umax / amax if amax else 0.0)
    L, U = prior.L, prior.U
    # Pattern arrays and the row permutation are shared with the prior
    # factors (immutable by convention): across a fixed-pattern
    # sequence, schedule revalidation then succeeds on object identity
    # instead of O(nnz) comparisons.
    Lnew = CSC(n, n, L.indptr, L.indices, Lx)
    Unew = CSC(n, n, U.indptr, U.indices, Ux)
    return GPResult(Lnew, Unew, prior.row_perm, led, schedule=sched)


@domains(A="matrix[S]")
@effects(mutates=("ledger",))
@shapes(A="csc[n,n]")
def gp_refactor_reference(
    A: CSC,
    prior: GPResult,
    ledger: CostLedger | None = None,
) -> GPResult:
    """Reference per-column loop for :func:`gp_refactor` (oracle)."""
    n = A.n_cols
    if A.n_rows != n:
        raise StructureError("GP refactorization requires a square matrix")
    if prior.L.shape != (n, n):
        raise StructureError("prior factors have the wrong shape")
    led = ledger if ledger is not None else CostLedger()
    if n == 0:
        e = CSC.empty(0, 0)
        return GPResult(e, e, np.empty(0, dtype=np.int64), led)

    L, U = prior.L, prior.U
    row_perm = prior.row_perm
    # A in pivot order: row i of B is row row_perm[i] of A.
    B = A.permute(row_perm=row_perm)

    Lx = np.zeros(L.nnz, dtype=np.float64)
    Ux = np.zeros(U.nnz, dtype=np.float64)
    x = np.zeros(n, dtype=np.float64)

    for k in range(n):
        lrows = L.indices[L.indptr[k] : L.indptr[k + 1]]
        urows = U.indices[U.indptr[k] : U.indptr[k + 1]]
        # Scatter column k of B onto the union pattern.
        x[lrows] = 0.0
        x[urows] = 0.0
        arows, avals = B.col(k)
        x[arows] = avals
        # Sparse triangular solve along the *known* pattern: the rows
        # of U(:, k) above the diagonal are exactly the pivotal columns
        # that update column k, already in increasing (= topological
        # for a fixed pivot order) order.  Every update is counted, zero
        # source or not (the pattern rule of gp_factor); a zero source
        # skips only the arithmetic.
        for t in range(urows.size - 1):  # last entry is the diagonal
            j = int(urows[t])
            lo, hi = int(L.indptr[j]), int(L.indptr[j + 1])
            led.sparse_flops += hi - lo - 1
            xj = x[j]
            if xj == 0.0:
                continue
            rows_view = L.indices[lo + 1 : hi]
            x[rows_view] -= Lx[lo + 1 : hi] * xj
        led.columns += 1
        # Split into U (pivotal rows) and L (below, divided by pivot).
        Ux[U.indptr[k] : U.indptr[k + 1]] = x[urows]
        piv = x[k]
        if piv == 0.0:
            raise SingularMatrixError(
                f"refactor: reused pivot at column {k} is unusable "
                f"({piv!r}); refactor with fresh pivoting",
                column=k,
            )
        lo, hi = int(L.indptr[k]), int(L.indptr[k + 1])
        Lx[lo] = 1.0
        Lx[lo + 1 : hi] = x[L.indices[lo + 1 : hi]] / piv
        led.sparse_flops += hi - lo - 1
    led.mem_words += L.nnz + U.nnz

    Lnew = CSC(n, n, L.indptr.copy(), L.indices.copy(), Lx)
    Unew = CSC(n, n, U.indptr.copy(), U.indices.copy(), Ux)
    return GPResult(Lnew, Unew, row_perm.copy(), led)


@domains(A="matrix[S]")
@effects(mutates=("ledger",))
@shapes(A="csc[n,n]")
def gp_factor_reference(
    A: CSC,
    pivot_tol: float = GP_DEFAULT_PIVOT_TOL,
    static_perturb: float = 0.0,
    ledger: CostLedger | None = None,
) -> GPResult:
    """Reference per-column loop for :func:`gp_factor` (oracle).

    The seed implementation: scalar reach + triangular solve + pivot
    search per column.  :func:`gp_factor` must reproduce its pattern,
    permutation and CostLedger bit-identically (values up to summation
    order inside the dense tail); the parity tests in
    ``tests/test_blocking.py`` enforce exactly that.  A pure oracle: it
    fires no fault site and records no metrics.

    Parameters
    ----------
    A
        Square CSC matrix.
    pivot_tol
        Diagonal-preference threshold in [0, 1]: the diagonal entry is
        kept as pivot when ``|A_kk| >= pivot_tol * max|column|``
        (KLU semantics; 1.0 = strict partial pivoting, 0 < tol << 1
        trusts the MWCM ordering and preserves sparsity).
    static_perturb
        If > 0 and a column has no usable pivot, a pivot of magnitude
        ``static_perturb`` is substituted instead of raising
        :class:`SingularMatrixError` (the static-pivoting escape hatch
        used by the supernodal baseline; Basker/KLU leave it at 0).
    ledger
        Optional ledger to accumulate into (a fresh one otherwise).
    """
    n = A.n_cols
    if A.n_rows != n:
        raise StructureError("GP factorization requires a square matrix")
    led = ledger if ledger is not None else CostLedger()
    if n == 0:
        e = CSC.empty(0, 0)
        return GPResult(e, e, np.empty(0, dtype=np.int64), led)

    # Growing factor storage.
    cap = max(4 * A.nnz + n, 16)
    Lp = np.zeros(n + 1, dtype=np.int64)
    Li = np.empty(cap, dtype=np.int64)
    Lx = np.empty(cap, dtype=np.float64)
    Up = np.zeros(n + 1, dtype=np.int64)
    Ui = np.empty(cap, dtype=np.int64)
    Ux = np.empty(cap, dtype=np.float64)
    lnz = unz = 0

    pinv = np.full(n, -1, dtype=np.int64)
    x = np.zeros(n, dtype=np.float64)
    ws = ReachWorkspace(n)
    xi = ws.xi

    for k in range(n):
        arows, avals = A.col(k)
        ws.next_stamp()
        top, steps = topo_reach(Lp, Li, arows, pinv, ws)
        led.dfs_steps += steps + arows.size
        led.columns += 1

        # Clear + scatter the column values onto the reach pattern.
        pat = xi[top:n]
        x[pat] = 0.0
        x[arows] = avals

        # Sparse triangular solve in topological order.  Every reached
        # pivotal column is counted, zero source or not: the count is
        # the pattern's work, so no summation order can change it.
        for t in range(top, n):
            j = int(xi[t])
            jcol = int(pinv[j])
            if jcol < 0:
                continue
            lo = int(Lp[jcol])
            hi = int(Lp[jcol + 1])
            led.sparse_flops += hi - lo - 1
            xj = x[j]
            if xj == 0.0:
                continue
            # First entry of each L column is its (unit) pivot row.
            rows_view = Li[lo + 1 : hi]
            x[rows_view] -= Lx[lo + 1 : hi] * xj

        # Pivot search among non-pivotal rows of the pattern.
        ipiv = -1
        pivmag = -1.0
        diag_val = None
        for t in range(top, n):
            i = int(xi[t])
            if pinv[i] >= 0:
                continue
            mag = abs(x[i])
            if mag > pivmag:
                pivmag = mag
                ipiv = i
            if i == k:
                diag_val = x[i]
        if diag_val is not None and pivmag > 0.0 and abs(diag_val) >= pivot_tol * pivmag:
            ipiv = k
        if ipiv < 0 or x[ipiv] == 0.0:
            if static_perturb > 0.0:
                # Choose any non-pivotal row (prefer the diagonal row if
                # free) and install a tiny pivot.
                if ipiv < 0:
                    if pinv[k] < 0:
                        ipiv = k
                    else:
                        free = np.flatnonzero(pinv < 0)
                        ipiv = int(free[0])
                    # ensure ipiv is in the pattern for the stores below
                    if ws.mark[ipiv] != ws.stamp:
                        ws.mark[ipiv] = ws.stamp
                        top -= 1
                        xi[top] = ipiv
                        x[ipiv] = 0.0
                x[ipiv] = static_perturb if x[ipiv] == 0.0 else x[ipiv]
            else:
                raise _no_pivot(k)
        pivval = x[ipiv]
        pinv[ipiv] = k

        # Store U column k (rows already pivotal, in pivot numbering).
        ucount = 1
        for t in range(top, n):
            i = int(xi[t])
            if pinv[i] >= 0 and i != ipiv:
                ucount += 1
        Ui = _grow(Ui, unz + ucount)
        Ux = _grow(Ux, unz + ucount)
        for t in range(top, n):
            i = int(xi[t])
            pi = int(pinv[i])
            if pi >= 0 and i != ipiv:
                Ui[unz] = pi
                Ux[unz] = x[i]
                unz += 1
        Ui[unz] = k
        Ux[unz] = pivval
        unz += 1
        Up[k + 1] = unz

        # Store L column k (non-pivotal rows, original numbering),
        # pivot first with value 1.
        lcount = 1
        for t in range(top, n):
            i = int(xi[t])
            if pinv[i] < 0:
                lcount += 1
        Li = _grow(Li, lnz + lcount)
        Lx = _grow(Lx, lnz + lcount)
        Li[lnz] = ipiv
        Lx[lnz] = 1.0
        lnz += 1
        for t in range(top, n):
            i = int(xi[t])
            if pinv[i] < 0:
                Li[lnz] = i
                Lx[lnz] = x[i] / pivval
                lnz += 1
                led.sparse_flops += 1
        Lp[k + 1] = lnz
        led.mem_words += lcount + ucount

    # Renumber L's rows into pivot order and sort both factors.
    Lfinal = CSC(n, n, Lp, pinv[Li[:lnz]], Lx[:lnz].copy()).sort_indices()
    Ufinal = CSC(n, n, Up, Ui[:unz].copy(), Ux[:unz].copy()).sort_indices()
    row_perm = np.empty(n, dtype=np.int64)
    row_perm[pinv] = np.arange(n, dtype=np.int64)
    return GPResult(Lfinal, Ufinal, row_perm, led)


@domains(A="matrix[S]")
@effects(mutates=("ledger",))
@shapes(A="csc[n,n]")
def gp_factor(
    A: CSC,
    pivot_tol: float = GP_DEFAULT_PIVOT_TOL,
    static_perturb: float = 0.0,
    ledger: CostLedger | None = None,
    dense_plan: DensePlan | None = None,
) -> GPResult:
    """Factor a square sparse matrix with blocked Gilbert–Peierls LU.

    Structure-aware dense blocking over :func:`gp_factor_reference`:
    a pattern-only analysis (:func:`repro.sparse.blocking.detect_dense_tail`)
    splits the elimination at a switch column ``k*``.  Columns before
    the switch run the reference left-looking recipe with the list-based
    reach of :class:`~repro.graph.dfs.ReachGraph`; the trailing columns
    are gathered into one contiguous panel (U-top block over the Schur
    block) and eliminated with dense kernels — a bulk left-looking
    update by the leading columns followed by right-looking rank-1
    updates with LAPACK-style partial pivoting confined to the panel.

    Contract versus the reference oracle, for every pivoting mode:

    * identical nonzero patterns and row permutation (pivot choice uses
      the same threshold rule, the same reach-order tie-break, and NaNs
      can never win a pivot search);
    * bit-identical :class:`~repro.parallel.ledger.CostLedger` — both
      count ``|L(:,j)|-1`` multiply-adds for every reached pivotal
      ``j``, zero source value or not, so the counts follow from the
      pattern alone (a cancellation that lands on exactly 0.0 in one
      summation order and on 1e-17 in the other changes no count);
    * values equal up to floating-point summation order inside the
      dense tail, bit-identical before the switch;
    * singular input: before the switch both kernels raise the same
      :class:`SingularMatrixError` at the same column, and from the
      switch on both raise at a column with no unpivoted row in its
      reach (structural singularity).  A best pivot that cancels to
      exactly 0.0 inside the dense tail is not covered: summation order
      can leave it near 1e-17 in one kernel, so on an input that is
      singular by cancellation one kernel may raise where the other
      returns factors with a tiny pivot.

    With ``static_perturb > 0`` (static pivoting) no column raises
    :class:`SingularMatrixError`; both phases apply the reference's rule
    instead: when no candidate has a non-NaN magnitude, row ``k`` is
    taken if unpivoted, else the smallest unpivoted row; a row outside
    the reach counts as 0.0, and an exact 0.0 pivot becomes
    ``static_perturb``.  Such a row joins only its own column's reach
    and is stored neither in U nor below L's diagonal, so the dense
    panel, which holds every unpivoted row, eliminates it like any
    other pivot.

    ``dense_plan`` lets callers with a fixed pattern (KLU's per-block
    symbolic) skip re-detection; a stale plan is re-detected, never
    trusted.  The dense phase is traced as a ``numeric.gp.panel`` span
    whose ledger, plus the scalar phase attached to the caller's span
    as overhead, conserves against the total.
    """
    n = A.n_cols
    if A.n_rows != n:
        raise StructureError("GP factorization requires a square matrix")
    led = ledger if ledger is not None else CostLedger()
    a_fault = _fault_values("gp.factor.values", A.data)
    if a_fault is not A.data:
        A = CSC(n, n, A.indptr, A.indices, a_fault)

    if n == 0:
        e = CSC.empty(0, 0)
        return GPResult(e, e, np.empty(0, dtype=np.int64), led)

    if dense_plan is None or not dense_plan.matches(A):
        dense_plan = detect_dense_tail(A)
    ks = dense_plan.switch

    # Phase ledgers: scalar head (caller-span overhead) and dense tail
    # (the numeric.gp.panel span); both fold into the caller's ledger.
    lscal = CostLedger()
    lpan = CostLedger()

    cap = max(4 * A.nnz + n, 16)
    Lp = np.zeros(n + 1, dtype=np.int64)
    Li = np.empty(cap, dtype=np.int64)
    Lx = np.empty(cap, dtype=np.float64)
    Up = np.zeros(n + 1, dtype=np.int64)
    Ui = np.empty(cap, dtype=np.int64)
    Ux = np.empty(cap, dtype=np.float64)
    lnz = unz = 0

    pinv = np.full(n, -1, dtype=np.int64)
    pinv_l = [-1] * n          # Python mirror, read by the list DFS
    lp_l = [0] * (n + 1)       # Python mirror of Lp
    x = np.zeros(n, dtype=np.float64)
    graph = ReachGraph(n)
    xi = graph.xi
    Ap, Ai, Ax = A.indptr, A.indices, A.data
    offdiag_swaps = 0

    # ---- Scalar head: left-looking columns [0, ks), reference recipe
    # with the list-based reach (same traversal, same counts).
    for k in range(ks):
        p0, p1 = int(Ap[k]), int(Ap[k + 1])
        arows = Ai[p0:p1]
        graph.stamp += 1
        top, steps = graph.reach(arows.tolist(), pinv_l)
        lscal.dfs_steps += steps + (p1 - p0)
        lscal.columns += 1

        pat = xi[top:n]
        x[pat] = 0.0
        x[arows] = Ax[p0:p1]

        # Sparse triangular solve in topological order.
        for j in pat:
            jc = pinv_l[j]
            if jc < 0:
                continue
            lo = lp_l[jc] + 1
            hi = lp_l[jc + 1]
            lscal.sparse_flops += hi - lo
            xj = x[j]
            if xj == 0.0:
                continue
            x[Li[lo:hi]] -= Lx[lo:hi] * xj

        # Pivot search among non-pivotal rows of the pattern.
        ipiv = -1
        pivmag = -1.0
        diag_val = None
        for i in pat:
            if pinv_l[i] >= 0:
                continue
            mag = abs(x[i])
            if mag > pivmag:
                pivmag = mag
                ipiv = i
            if i == k:
                diag_val = x[i]
        if diag_val is not None and pivmag > 0.0 and abs(diag_val) >= pivot_tol * pivmag:
            ipiv = k
        pivval = x[ipiv] if ipiv >= 0 else 0.0
        if pivval == 0.0:
            if static_perturb <= 0.0:
                raise _no_pivot(k)
            if ipiv < 0:
                # Row k if unpivoted, else the smallest unpivoted row;
                # outside the reach its value is 0.0.
                ipiv = k if pinv_l[k] < 0 else pinv_l.index(-1)
                if graph.mark[ipiv] == graph.stamp:
                    pivval = x[ipiv]
            if pivval == 0.0:
                pivval = static_perturb
        if ipiv != k:
            offdiag_swaps += 1
        pinv[ipiv] = k
        pinv_l[ipiv] = k

        # Store U column k (rows already pivotal, in pivot numbering).
        # A perturbed pivot row outside the reach makes either column
        # one entry longer than the reach.
        psz = len(pat) + 1
        Ui = _grow(Ui, unz + psz)
        Ux = _grow(Ux, unz + psz)
        ucount = 1
        for i in pat:
            pi = pinv_l[i]
            if pi >= 0 and i != ipiv:
                Ui[unz] = pi
                Ux[unz] = x[i]
                unz += 1
                ucount += 1
        Ui[unz] = k
        Ux[unz] = pivval
        unz += 1
        Up[k + 1] = unz

        # Store L column k (non-pivotal rows, original numbering),
        # pivot first with value 1.
        Li = _grow(Li, lnz + psz)
        Lx = _grow(Lx, lnz + psz)
        Li[lnz] = ipiv
        Lx[lnz] = 1.0
        lnz += 1
        lcol = [ipiv]
        for i in pat:
            if pinv_l[i] < 0:
                Li[lnz] = i
                Lx[lnz] = x[i] / pivval
                lnz += 1
                lcol.append(i)
                lscal.sparse_flops += 1
        Lp[k + 1] = lnz
        lp_l[k + 1] = lnz
        graph.append_column(lcol)
        lscal.mem_words += len(lcol) + ucount

    # ---- Dense tail: columns [ks, n) as one gathered panel.
    tr = get_tracer()
    if ks < n:
        with tr.span("numeric.gp.panel") as psp:
            m = n - ks
            free = np.flatnonzero(pinv < 0)            # the m unpivoted rows
            slot_of = np.full(n, -1, dtype=np.int64)   # row -> panel slot
            slot_of[free] = np.arange(m, dtype=np.int64)
            slot2row = free.copy()

            # Combined panel P: rows [0, ks) are pivotal rows in pivot
            # numbering (the U top block), rows [ks, n) the not-yet-
            # pivotal rows in slot numbering (the Schur block S).
            p0, p1 = int(Ap[ks]), int(Ap[n])
            arows_t = Ai[p0:p1]
            avals_t = _fault_values("gp.panel", Ax[p0:p1])
            acols_t = np.repeat(np.arange(m, dtype=np.int64), np.diff(Ap[ks:]))
            P = np.zeros((n, m), dtype=np.float64)
            comb = np.where(pinv[arows_t] >= 0,
                            pinv[arows_t], ks + slot_of[arows_t])
            P[comb, acols_t] = avals_t

            # Bulk left-looking update by the leading columns in pivot
            # (= topological) order, each vectorized across the tail.
            # Exact zeros propagate exactly (x - l*0 == x), so entries
            # outside a column's reach stay 0.0.
            liL = Li[:lnz]
            tgt = np.where(pinv[liL] >= 0, pinv[liL], ks + slot_of[liL])
            for j in range(ks):
                lo = lp_l[j] + 1
                hi = lp_l[j + 1]
                if lo < hi:
                    P[tgt[lo:hi]] -= Lx[lo:hi, None] * P[j]
            S = P[ks:]

            for t in range(m):
                k = ks + t
                graph.stamp += 1
                brows = Ai[int(Ap[k]): int(Ap[k + 1])].tolist()
                top, steps = graph.reach(brows, pinv_l)
                lpan.dfs_steps += steps + len(brows)
                lpan.columns += 1
                pat = np.array(xi[top:n], dtype=np.int64)
                pivotal = pinv[pat] >= 0
                upat = pat[pivotal]          # reach order, like the oracle
                cand = pat[~pivotal]

                # Pivot search: argmax keeps the first maximum, which is
                # the reference's strict-greater scan in reach order;
                # NaN magnitudes are demoted so they can never win, and
                # an all-NaN candidate set counts as empty.
                ipiv = -1
                if cand.size:
                    mags = np.abs(S[slot_of[cand], t])
                    mags = np.where(np.isnan(mags), -1.0, mags)
                    am = int(np.argmax(mags))
                    pivmag = float(mags[am])
                    if pivmag >= 0.0:
                        ipiv = int(cand[am])
                    if graph.mark[k] == graph.stamp and pinv_l[k] < 0:
                        diag_val = float(S[slot_of[k], t])
                        if pivmag > 0.0 and abs(diag_val) >= pivot_tol * pivmag:
                            ipiv = k
                pivval = float(S[slot_of[ipiv], t]) if ipiv >= 0 else 0.0
                if pivval == 0.0:
                    if static_perturb <= 0.0:
                        raise _no_pivot(k)
                    if ipiv < 0:
                        # The scalar head's rule.  The panel holds every
                        # unpivoted row; one outside the reach counts as 0.0.
                        ipiv = k if pinv_l[k] < 0 else pinv_l.index(-1)
                        if graph.mark[ipiv] == graph.stamp:
                            pivval = float(S[slot_of[ipiv], t])
                    if pivval == 0.0:
                        pivval = static_perturb
                if ipiv != k:
                    offdiag_swaps += 1
                pinv[ipiv] = k
                pinv_l[ipiv] = k

                # Row swap confined to the panel: the pivot row moves to
                # slot t (columns before t are dead, already harvested).
                sp = int(slot_of[ipiv])
                if sp != t:
                    rt = int(slot2row[t])
                    S[[t, sp], t:] = S[[sp, t], t:]
                    slot2row[t], slot2row[sp] = ipiv, rt
                    slot_of[ipiv], slot_of[rt] = t, sp

                # Harvest U: pivotal pattern rows; a value lives at
                # combined row pinv[r] for the top block and for
                # already-eliminated tail rows alike (the swap parked
                # tail pivot j at slot j - ks).
                ucols = pinv[upat]
                uvals = P[ucols, t]
                usz = int(ucols.size)
                Ui = _grow(Ui, unz + usz + 1)
                Ux = _grow(Ux, unz + usz + 1)
                Ui[unz: unz + usz] = ucols
                Ux[unz: unz + usz] = uvals
                unz += usz
                Ui[unz] = k
                Ux[unz] = pivval
                unz += 1
                Up[k + 1] = unz

                # Ledger, bit-identical to the oracle: |L(:,j)|-1
                # multiply-adds for every reached pivotal j.
                if usz:
                    lpan.sparse_flops += float(
                        np.sum(Lp[ucols + 1] - Lp[ucols] - 1)
                    )

                # Harvest L: remaining pattern rows in reach order,
                # divided by the pivot (the panel division also feeds
                # the rank-1 update below).
                lrows = cand[cand != ipiv]
                lsz = int(lrows.size)
                S[t + 1:, t] /= pivval
                lvals = S[slot_of[lrows], t]
                Li = _grow(Li, lnz + lsz + 1)
                Lx = _grow(Lx, lnz + lsz + 1)
                Li[lnz] = ipiv
                Lx[lnz] = 1.0
                lnz += 1
                Li[lnz: lnz + lsz] = lrows
                Lx[lnz: lnz + lsz] = lvals
                lnz += lsz
                Lp[k + 1] = lnz
                lp_l[k + 1] = lnz
                graph.append_column([ipiv] + lrows.tolist())
                lpan.sparse_flops += lsz
                lpan.mem_words += lsz + usz + 2

                # Right-looking rank-1 update of the remaining block.
                if t + 1 < m:
                    S[t + 1:, t + 1:] -= np.outer(S[t + 1:, t], S[t, t + 1:])

            psp.attach(lpan)
            if tr.enabled:
                psp.set(switch=ks, cols=m,
                        predicted_density=dense_plan.density)
        if tr.enabled:
            parent = tr.current()
            if parent is not None:
                # Conservation: caller attaches the inclusive ledger;
                # the scalar head is its own-work not covered by the
                # panel child span.
                parent.attach_overhead(lscal)

    led.add(lscal)
    led.add(lpan)

    metrics = tr.metrics
    if metrics.enabled:
        metrics.incr("gp.offdiag_pivots", offdiag_swaps)
        metrics.incr("gp.fill_nnz", max(0, lnz + unz - A.nnz))
        if ks < n:
            metrics.incr("gp.panel.cols", n - ks)
        amax = float(np.max(np.abs(A.data), initial=0.0))
        umax = float(np.max(np.abs(Ux[:unz]), initial=0.0))
        metrics.set_gauge("gp.pivot_growth", umax / amax if amax else 0.0)

    # Renumber L's rows into pivot order and sort both factors.
    Lfinal = CSC(n, n, Lp, pinv[Li[:lnz]], Lx[:lnz].copy()).sort_indices()
    Ufinal = CSC(n, n, Up, Ui[:unz].copy(), Ux[:unz].copy()).sort_indices()
    row_perm = np.empty(n, dtype=np.int64)
    row_perm[pinv] = np.arange(n, dtype=np.int64)
    return GPResult(Lfinal, Ufinal, row_perm, led, dense_plan=dense_plan)
