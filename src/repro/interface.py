"""Amesos2-style unified solver interface.

Basker ships inside Trilinos behind the Amesos2 adapter layer, which
gives every direct solver the same four-phase contract:
``preOrdering -> symbolicFactorization -> numericFactorization ->
solve``.  :class:`DirectSolver` reproduces that contract over the three
solvers in this package, so downstream code (e.g. a Newton loop) can
switch solvers with a string.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Basker
from .errors import StructureError
from .parallel.machine import MachineModel, SANDY_BRIDGE
from .solvers import KLU, SupernodalLU, slu_mt
from .solvers.extras import refine_solve, solve_transpose
from .sparse.csc import CSC
from .sparse.schedule import _same_pattern
from .sparse.verify import validate_rhs

__all__ = ["DirectSolver", "available_solvers"]

# Every option a registry solver reads, with its default.  A solver
# ignores the ones it has no use for, so one set of options can drive
# any of them.
_OPTIONS = {
    "n_threads": 8,
    "pivot_tol": 0.001,
    "supernodal_separators": False,
    "nd_leaves": None,
    "static_perturb": 0.0,
}

_REGISTRY = {
    "basker": lambda o: Basker(
        n_threads=o["n_threads"],
        pivot_tol=o["pivot_tol"],
        supernodal_separators=o["supernodal_separators"],
        nd_leaves=o["nd_leaves"],
        static_perturb=o["static_perturb"],
    ),
    "klu": lambda o: KLU(pivot_tol=o["pivot_tol"], static_perturb=o["static_perturb"]),
    "pardiso": lambda o: SupernodalLU(),
    "superlu_mt": lambda o: slu_mt(),
}


def available_solvers() -> list:
    return sorted(_REGISTRY)


def _one_rhs(b: np.ndarray, method: str) -> np.ndarray:
    if b.ndim != 1:
        raise StructureError(
            f"{method} takes one right-hand side of shape (n,), got a block "
            f"of shape {b.shape}; call it once per column"
        )
    return b


class DirectSolver:
    """Four-phase Amesos2-like wrapper: analyze, factor, solve.

    >>> solver = DirectSolver("basker", n_threads=8)
    >>> solver.symbolic_factorization(A)
    >>> solver.numeric_factorization(A)
    >>> x = solver.solve(b)
    """

    def __init__(self, name: str, **options):
        key = name.lower()
        if key not in _REGISTRY:
            raise ValueError(f"unknown solver {name!r}; available: {available_solvers()}")
        unknown = sorted(set(options) - set(_OPTIONS))
        if unknown:
            raise ValueError(f"unknown option(s) {unknown} for solver {name!r}; "
                             f"accepted: {sorted(_OPTIONS)}")
        self.name = key
        self.options = options
        self._impl = _REGISTRY[key]({**_OPTIONS, **options})
        self._symbolic = None
        self._numeric = None
        self._n = None
        self._pattern = None  # (indptr, indices) of the analyzed matrix

    # ------------------------------------------------------------------
    def symbolic_factorization(self, A: CSC) -> "DirectSolver":
        self._symbolic = self._impl.analyze(A)
        self._n = A.n_rows
        self._numeric = None
        self._pattern = (A.indptr, A.indices)
        return self

    def _analyze_if_changed(self, A: CSC) -> None:
        """Analyze ``A`` unless it has the analyzed pattern, so every
        numeric factorization holds ``A``'s pattern."""
        p = self._pattern
        if p is None or not (_same_pattern(A.indptr, p[0])
                             and _same_pattern(A.indices, p[1])):
            self.symbolic_factorization(A)

    def numeric_factorization(self, A: CSC) -> "DirectSolver":
        """Factor (or refactor when the pattern was already factored).

        ``A`` is analyzed first when its pattern differs from the one
        :meth:`symbolic_factorization` analyzed.  When a prior numeric
        factorization of that pattern exists, the solver's values-only
        ``refactor_fast`` path is taken (fixed pivot order, compiled
        elimination schedule).  Every solver's ``refactor_fast`` falls
        back to a full numeric factorization with fresh pivoting when a
        reused pivot degenerates — the standard klu_refactor/klu_factor
        usage pattern — so a :class:`~repro.errors.SingularMatrixError`
        raised here comes from that fresh factorization: ``A`` is
        singular.
        """
        self._analyze_if_changed(A)
        prior = self._numeric
        if prior is not None:
            self._numeric = self._impl.refactor_fast(A, prior)
        else:
            self._numeric = self._impl.factor(A, symbolic=self._symbolic)
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one right-hand side ``(n,)`` or a block
        ``(n, k)`` (all columns in one pass)."""
        self._require_numeric()
        b = validate_rhs(b, self._n)
        return self._impl.solve(self._numeric, b)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A.T x = b`` for one right-hand side ``(n,)``."""
        self._require_numeric()
        b = _one_rhs(validate_rhs(b, self._n), "solve_transpose")
        return solve_transpose(self._numeric, b)

    def solve_refined(self, A: CSC, b: np.ndarray, max_steps: int = 3):
        """Solve with iterative refinement.

        Returns ``(x, history)`` — the refined solution and the scaled
        residual after each refinement evaluation.  Raises
        :class:`~repro.errors.RefinementDivergedError` when the
        residual grows instead of shrinking.  ``b`` must be one
        right-hand side ``(n,)``.
        """
        self._require_numeric()
        b = _one_rhs(validate_rhs(b, self._n), "solve_refined")
        return refine_solve(self._impl, self._numeric, A, b, max_steps=max_steps)

    def solve_resilient(
        self,
        A: CSC,
        b: np.ndarray,
        tol: float = 1e-10,
        refine_steps: int = 4,
        label: str = "",
        before_rung=None,
    ):
        """Solve through the recovery ladder (see
        :func:`repro.resilience.recovery.run_ladder`).

        Starts from the cheap values-only replay when a prior numeric
        factorization with the same pattern exists (``A`` is analyzed
        anew when its pattern changed), escalating to full
        refactorization, strict re-pivoting, static perturbation +
        refinement, and finally a dense LU — each candidate verified by
        its componentwise backward error before acceptance.  Returns
        ``(x, report)``; raises
        :class:`~repro.errors.RecoveryExhaustedError` when every rung
        fails.  ``before_rung(rung, report)`` is forwarded to
        :func:`~repro.resilience.recovery.run_ladder` for deadline or
        lease checks between rungs.
        """
        from .resilience.recovery import run_ladder

        self._analyze_if_changed(A)

        def make_variant(**overrides):
            return _REGISTRY[self.name]({**_OPTIONS, **self.options, **overrides})

        x, numeric, report = run_ladder(
            self._impl,
            A,
            b,
            symbolic=self._symbolic,
            prior=self._numeric,
            make_variant=make_variant,
            tol=tol,
            refine_steps=refine_steps,
            label=label,
            before_rung=before_rung,
        )
        if numeric is not None:
            self._numeric = numeric
        return x, report

    def health_report(
        self,
        A: CSC,
        x: Optional[np.ndarray] = None,
        b: Optional[np.ndarray] = None,
        tol: float = 1e-10,
    ):
        """Numerical-health diagnostics of the current factorization
        (see :func:`repro.resilience.health.factor_health`)."""
        from .resilience.health import factor_health

        self._require_numeric()
        return factor_health(self._impl, self._numeric, A, x=x, b=b, tol=tol)

    # ------------------------------------------------------------------
    @property
    def factor_nnz(self) -> int:
        self._require_numeric()
        return self._numeric.factor_nnz

    def factor_seconds(
        self, machine: MachineModel = SANDY_BRIDGE, n_threads: Optional[int] = None
    ) -> float:
        """Modelled numeric-factorization time on a machine model."""
        self._require_numeric()
        num = self._numeric
        if hasattr(num, "schedule"):  # Basker / supernodal: parallel schedule
            if self.name == "basker":
                return num.factor_seconds(machine, n_threads=n_threads)
            return num.factor_seconds(machine, n_threads=n_threads or 1)
        return num.factor_seconds(machine)

    def _require_numeric(self) -> None:
        if self._numeric is None:
            raise RuntimeError("numeric_factorization has not been run")

    def __repr__(self) -> str:
        state = "numeric" if self._numeric is not None else (
            "symbolic" if self._symbolic is not None else "empty"
        )
        return f"DirectSolver({self.name!r}, state={state})"
