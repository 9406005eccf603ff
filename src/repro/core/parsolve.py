"""Parallel sparse triangular solve with level scheduling.

The paper's point-to-point synchronization story (§IV) builds on Park
et al.'s sparsifying-synchronization triangular solve (ref. [18]); the
solve phase also matters to Basker's users because a transient run does
at least one solve per factorization.  This module models the classic
level-scheduled parallel triangular solve on the level sets of the
compiled solve (:func:`~repro.sparse.schedule.triangular_schedule`):

* rows are grouped into *levels* — row ``i``'s level is one more than
  the deepest level among the rows its off-diagonal entries reference —
  so all rows in one level are independent; the numbers come from the
  compiled schedule's replay;
* for the performance model, each level is split into per-thread row
  chunks whose dependency edges are *sparsified*: a chunk depends only
  on the previous-level chunks that actually produced one of its
  operands (the ref. [18] point-to-point structure), not on a full
  barrier.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import StructureError
from ..parallel.ledger import CostLedger
from ..parallel.machine import MachineModel
from ..parallel.sim import Schedule, SimTask, simulate
from ..sparse.csc import CSC
from ..sparse.schedule import TriangularSchedule, triangular_schedule

__all__ = ["parallel_lower_solve", "parallel_upper_solve"]


def _chunk_tasks(T: CSC, sched: TriangularSchedule, n_threads: int) -> List[SimTask]:
    """One task per thread chunk of every level, with p2p dependencies."""
    n = T.n_cols
    keys: List[Tuple[int, int]] = []  # task id -> (level, chunk)
    chunks: List[np.ndarray] = []
    task_of = np.empty(n, dtype=np.int64)  # row -> producing task id
    for lv, (lo, hi, _) in enumerate(sched.levels):
        # Static chunking of the level's columns across threads.
        cols = sched.order[lo:hi]
        for ci, chunk in enumerate(np.array_split(cols, min(n_threads, cols.size))):
            task_of[chunk] = len(keys)
            keys.append((lv, ci))
            chunks.append(chunk)
    if not keys:
        return []
    # Row i waits for the task that finalized x[j] for every stored
    # off-diagonal T[i, j]: one (consumer, producer) pair per task pair.
    col = np.repeat(np.arange(n), np.diff(T.indptr))
    off = T.indices > col if sched.kind == "lower" else T.indices < col
    nt = len(keys)
    pairs = np.unique(task_of[T.indices[off]] * nt + task_of[col[off]])
    bounds = np.searchsorted(pairs // nt, np.arange(nt + 1))
    row_nnz = np.bincount(T.indices, minlength=n)
    tasks: List[SimTask] = []
    for tid, ((lv, ci), chunk) in enumerate(zip(keys, chunks)):
        deps = (pairs[bounds[tid] : bounds[tid + 1]] % nt).tolist()
        led = CostLedger(sparse_flops=float(row_nnz[chunk].sum()), columns=float(chunk.size))
        # Declared effect sets: this chunk finalizes its own x rows and
        # reads exactly the chunks it synchronizes with — the hazard
        # checker then proves the sparsified point-to-point edges
        # sufficient.
        tasks.append(
            SimTask(
                tid=tid,
                ledger=led,
                deps=deps,
                thread=ci % n_threads,
                p2p_syncs=len(deps),
                label=f"lv{lv}/c{ci}",
                reads=[("x",) + keys[t] for t in deps],
                writes=[("x", lv, ci)],
            )
        )
    return tasks


def _solve(
    T: CSC,
    kind: str,
    b: np.ndarray,
    unit_diag: bool,
    n_threads: int,
    machine: Optional[MachineModel],
) -> Tuple[np.ndarray, Optional[Schedule]]:
    if T.n_rows != T.n_cols or np.shape(b) != (T.n_cols,):
        raise StructureError("dimension mismatch")
    sched = triangular_schedule(T, kind)
    x = sched.solve(T, b, unit_diag=unit_diag)
    if machine is None:
        return x, None
    return x, simulate(_chunk_tasks(T, sched, n_threads), machine, n_threads)


def parallel_lower_solve(
    L: CSC,
    b: np.ndarray,
    n_threads: int = 1,
    machine: Optional[MachineModel] = None,
    unit_diag: bool = True,
) -> Tuple[np.ndarray, Optional[Schedule]]:
    """Level-scheduled solve of ``L x = b``.

    Returns ``(x, schedule)``; the schedule is None unless a machine
    model is supplied.  The levels are compiled once per factor object
    and cached on it.
    """
    return _solve(L, "lower", b, unit_diag, n_threads, machine)


def parallel_upper_solve(
    U: CSC,
    b: np.ndarray,
    n_threads: int = 1,
    machine: Optional[MachineModel] = None,
) -> Tuple[np.ndarray, Optional[Schedule]]:
    """Level-scheduled solve of ``U x = b`` (non-unit diagonal)."""
    return _solve(U, "upper", b, False, n_threads, machine)
