"""Solve phase shared by the LU solvers.

All factorizations in this package expose ``A[row_perm][:, col_perm] =
L U``; this module turns that into ``x`` for ``A x = b`` and counts the
solve-phase work (the paper only times numeric factorization, but the
solve path is exercised by the examples and the Xyce transient loop).

Every solve takes one right-hand side ``(n,)`` or a block ``(n, k)``.
KLU, Basker and the supernodal solver share :func:`btf_solve`, forward
and transposed: the whole block back-substitution replays one compiled
:class:`~repro.sparse.schedule.BTFSolveSchedule`, cached on the numeric
object next to its refactorization caches, which reads every block's
factor values from the numeric's
:class:`~repro.sparse.schedule.FactorStore`.  The supernodal factors
are one block with no coupling.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..contracts import domains, shapes
from ..errors import StructureError
from ..obs.tracer import get_tracer
from ..parallel.ledger import CostLedger
from ..sparse.csc import CSC
from ..sparse.schedule import BTFSolveSchedule, triangular_schedule

__all__ = [
    "lu_solve_factors", "btf_factors", "btf_solve", "btf_solve_plan",
    "drop_solve_plan",
]


@domains(L="matrix[S]", U="matrix[S]", b_perm="vec[S]", returns="vec[S]")
@shapes(L="csc[n,n]", U="csc[n,n]")
def lu_solve_factors(
    L: CSC,
    U: CSC,
    b_perm: np.ndarray,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Solve ``L U z = b_perm`` (b already row-permuted), ``L`` unit
    lower triangular.

    ``b_perm`` is ``(n,)`` or ``(n, k)``; the ledger books the work of
    all ``k`` columns.
    """
    y = triangular_schedule(L, "lower").solve(L, b_perm, unit_diag=True)
    z = triangular_schedule(U, "upper").solve(U, y)
    if ledger is not None:
        k = 1 if z.ndim == 1 else z.shape[1]
        ledger.sparse_flops += k * (L.nnz + U.nnz)
        ledger.columns += k * 2 * L.n_cols
    return z


BlockFactors = List[Optional[Tuple[CSC, CSC]]]


def btf_factors(numeric) -> Tuple[np.ndarray, BlockFactors, Optional[CSC]]:
    """``(splits, blocks, M)`` of a KLU, Basker or supernodal numeric.

    ``blocks[k]`` is block ``k``'s ``(L, U)``, views of the numeric's
    :class:`~repro.sparse.schedule.FactorStore` (None when the block is
    empty); ``M = A[row_perm][:, col_perm]`` holds the coupling above the
    diagonal blocks, None for the supernodal solver's single block.
    """
    store = numeric.store
    return store.pattern.splits, store.blocks(), numeric.M


def btf_solve_plan(numeric) -> BTFSolveSchedule:
    """The compiled BTF solve of ``numeric``, compiled on first use.

    The plan is keyed on the factor store's pattern object, ``M``'s
    pattern and both permutations.  It is carried across values-only
    refactorizations, which pass all of them on unchanged, and
    revalidated by object identity first; a pivot fallback changes them
    and so recompiles it.  Lookups count as ``schedule.tri.hit`` /
    ``.miss`` / ``.invalidate``.
    """
    M = numeric.M
    key = (numeric.store.pattern, None if M is None else M.indptr,
           None if M is None else M.indices, numeric.row_perm, numeric.col_perm)
    metrics = get_tracer().metrics
    plan = numeric.solve_plan
    if plan is None:
        metrics.incr("schedule.tri.miss")
    elif not plan.matches(key):
        metrics.incr("schedule.tri.invalidate")
        plan = None
    else:
        metrics.incr("schedule.tri.hit")
    if plan is None:
        plan = BTFSolveSchedule(*key)
        numeric.solve_plan = plan
    return plan


def drop_solve_plan(numeric) -> int:
    """Eviction hook: release ``numeric``'s compiled BTF solve plan.

    Returns the number of plans dropped (0 or 1).  Each counts as a
    ``schedule.tri.evictions`` event, the counter family the flight
    recorder's ``cache_hit_drop`` detector scans.
    """
    if numeric.solve_plan is None:
        return 0
    numeric.solve_plan = None
    get_tracer().metrics.incr("schedule.tri.evictions")
    return 1


@domains(b="vec[global]", returns="vec[global]")
def btf_solve(numeric, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve ``A x = b`` (``A.T x = b`` with ``transpose``) by block
    back-substitution over the BTF.

    ``numeric`` is a KLU, Basker or supernodal numeric object (its
    ``store``, ``M``, ``row_perm``, ``col_perm`` and ``solve_plan``).
    ``b`` is ``(n,)`` or ``(n, k)``.
    """
    b = np.asarray(b, dtype=np.float64)
    n = numeric.store.pattern.n
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise StructureError(
            f"right-hand side has shape {b.shape}, expected ({n},) or ({n}, k)"
        )
    with get_tracer().span("solve.tri"):
        plan = btf_solve_plan(numeric)
        M = numeric.M
        t_data = plan.values(numeric.store, None if M is None else M.data)
        return plan.solve(t_data, b, transpose)
