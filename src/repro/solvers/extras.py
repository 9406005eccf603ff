"""Solver amenities matching the real KLU/Basker user API.

The reference KLU exposes more than plain solve: ``klu_tsolve``
(transpose solves, needed by adjoint/sensitivity analysis in circuit
simulators), iterative refinement, and the numerical-quality
diagnostics ``klu_rgrowth`` / ``klu_condest``.  These work uniformly on
this package's KLU, Basker and supernodal numeric objects through
:func:`~repro.solvers.triangular.btf_factors`.  (Multiple right-hand
sides need no helper: every solver's ``solve`` takes an ``(n, k)``
block.)
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import RefinementDivergedError, StructureError
from ..sparse.csc import CSC
from ..sparse.verify import validate_rhs
from .triangular import btf_factors, btf_solve

__all__ = [
    "refine_solve",
    "solve_transpose",
    "rgrowth",
    "condest",
]


def solve_transpose(numeric, b: np.ndarray) -> np.ndarray:
    """Solve ``A.T x = b`` from the factors of ``A``.

    Replays the transposed system of the numeric's compiled BTF solve
    plan (:func:`~repro.solvers.triangular.btf_solve` with
    ``transpose``), for KLU, Basker and the supernodal solver alike.
    ``b`` is one right-hand side ``(n,)``.
    """
    b = np.asarray(b, dtype=np.float64)
    n = numeric.row_perm.size
    if b.shape != (n,):
        raise StructureError("right-hand side has wrong length")
    return btf_solve(numeric, b, transpose=True)


def refine_solve(
    solver,
    numeric,
    A: CSC,
    b: np.ndarray,
    max_steps: int = 3,
    tol: float = 1e-14,
) -> Tuple[np.ndarray, List[float]]:
    """Iterative refinement: repeat ``x += A_fact^{-1} (b - A x)``.

    Returns the refined solution and the history of scaled residual
    norms (one entry per evaluation, including the initial solve).
    Stops early once the residual stagnates (shrinking by less than
    10% per step) and raises
    :class:`~repro.errors.RefinementDivergedError` when it grows past
    10x the initial residual or turns non-finite — a diverging
    correction means the factorization is too inaccurate to refine.
    """
    b = validate_rhs(b, A.n_rows)
    x = solver.solve(numeric, b)
    denom = A.one_norm() * max(float(np.max(np.abs(x), initial=0.0)), 1e-300) + float(
        np.max(np.abs(b), initial=0.0)
    )
    history: List[float] = []
    best_x, best_res = x, float("inf")
    for _ in range(max_steps + 1):
        r = b - A.matvec(x)
        res = float(np.max(np.abs(r), initial=0.0)) / denom
        if not np.isfinite(res):
            raise RefinementDivergedError(
                "iterative refinement produced a non-finite residual",
                history=history + [res],
            )
        history.append(res)
        if res < best_res:
            best_res, best_x = res, x
        if res <= tol:
            break
        if len(history) > 1:
            if res > 2.0 * history[-2] and res > history[0]:
                raise RefinementDivergedError(
                    f"iterative refinement diverged: residual "
                    f"{history[0]:.3e} -> {res:.3e}",
                    history=history,
                )
            if res > 0.9 * history[-2]:
                break  # stagnated: further corrections are noise
        x = x + solver.solve(numeric, r)
    return best_x, history


# ----------------------------------------------------------------------
# Diagnostics (klu_rgrowth / klu_condest analogues)
# ----------------------------------------------------------------------


def rgrowth(A: CSC, numeric) -> float:
    """Reciprocal pivot growth, KLU-style.

    ``min_j ( max_i |A(:, j)| / max_i |U(:, j)| )`` over the factored
    columns, computed in the factorization's permuted coordinates.
    Values near 1 mean no element growth; tiny values signal numerical
    trouble.
    """
    splits, blocks, _M = btf_factors(numeric)
    Aperm = A.permute(numeric.row_perm, numeric.col_perm)
    worst = np.inf
    for k, blk in enumerate(blocks):
        if blk is None:
            continue
        lo = int(splits[k])
        U = blk[1]
        for j in range(U.n_cols):
            arows, avals = Aperm.col(lo + j)
            urows, uvals = U.col(j)
            amax = float(np.max(np.abs(avals), initial=0.0))
            umax = float(np.max(np.abs(uvals), initial=0.0))
            if umax > 0.0 and amax > 0.0:
                worst = min(worst, amax / umax)
    return worst if np.isfinite(worst) else 1.0


def condest(solver, numeric, A: CSC, maxiter: int = 5) -> float:
    """1-norm condition estimate ``||A||_1 * est(||A^{-1}||_1)``.

    Hager/Higham power iteration on ``|A^{-1}|`` using one solve and
    one transpose solve per step — the same algorithm as
    ``klu_condest``.
    """
    n = A.n_cols
    if n == 0:
        return 0.0
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(maxiter):
        y = solver.solve(numeric, x)
        new_est = float(np.abs(y).sum())
        xi = np.sign(y)
        xi[xi == 0.0] = 1.0
        z = solve_transpose(numeric, xi)
        j = int(np.argmax(np.abs(z)))
        if new_est <= est or float(np.abs(z[j])) <= float(z @ x):
            est = max(est, new_est)
            break
        est = new_est
        x = np.zeros(n)
        x[j] = 1.0
    return est * A.one_norm()
