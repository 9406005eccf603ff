"""Numerical-health monitoring for factorizations and solves.

One :func:`factor_health` call per factorization *step* (never per
column) computes the classic direct-solver diagnostics —

* **reciprocal pivot growth** (``klu_rgrowth`` analogue): small values
  mean element growth ate the input's significant digits;
* **Hager/Higham 1-norm condition estimate** (``klu_condest``): one
  solve + one transpose solve per power step;
* **NaN/Inf scans** of the factor values and pivots;
* **pivot magnitude extremes** from the stored U diagonals;

and after a solve, the **componentwise (Oettli–Prager) backward
error** bounds how wrong the returned ``x`` can be.  Everything is
surfaced as a :class:`HealthReport` and recorded through the metrics
registry (``resilience.health.*`` gauges), so a transient run's health
is visible in any ``python -m repro trace`` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import NumericalHealthError
from ..obs.tracer import get_tracer
from ..solvers.extras import condest, rgrowth
from ..solvers.triangular import btf_factors
from ..sparse.csc import CSC
from ..sparse.verify import componentwise_backward_error

__all__ = [
    "HealthReport",
    "factor_health",
    "componentwise_backward_error",
]

# Diagnostics beyond these thresholds mark the report unhealthy.
RGROWTH_FLOOR = 1e-12          # reciprocal pivot growth below this is sick
CONDEST_CEILING = 1.0 / np.finfo(np.float64).eps


@dataclass
class HealthReport:
    """Diagnostics of one numeric factorization (plus optional solve)."""

    n: int
    nnz: int
    factor_nnz: int
    rgrowth: float                 # reciprocal pivot growth (1 = benign)
    condest: float                 # Hager/Higham 1-norm condition estimate
    min_pivot: float
    max_pivot: float
    nonfinite_factors: int         # NaN/Inf entries across L/U values
    nonfinite_input: int           # NaN/Inf entries in A
    backward_error: Optional[float] = None  # componentwise, when a solve ran
    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "nnz": self.nnz,
            "factor_nnz": self.factor_nnz,
            "rgrowth": self.rgrowth,
            "condest": self.condest,
            "min_pivot": self.min_pivot,
            "max_pivot": self.max_pivot,
            "nonfinite_factors": self.nonfinite_factors,
            "nonfinite_input": self.nonfinite_input,
            "backward_error": self.backward_error,
            "ok": self.ok,
            "issues": list(self.issues),
        }

    def raise_if_sick(self) -> None:
        if self.issues:
            raise NumericalHealthError(
                "; ".join(self.issues), what=self.issues[0].split(":")[0]
            )


def _pivot_extremes(numeric) -> tuple:
    """(min |U diagonal|, max |U diagonal|, non-finite factor count)
    across all diagonal blocks — vectorized over the stored factors
    (U's diagonal is the last entry of every column by layout)."""
    lo_piv, hi_piv = np.inf, 0.0
    nonfinite = 0
    for L, U in filter(None, btf_factors(numeric)[1]):
        nonfinite += int(np.count_nonzero(~np.isfinite(L.data)))
        nonfinite += int(np.count_nonzero(~np.isfinite(U.data)))
        if U.n_cols:
            diag = np.abs(U.data[U.indptr[1:] - 1])
            with np.errstate(invalid="ignore"):
                lo_piv = min(lo_piv, float(np.nanmin(diag))) if diag.size else lo_piv
                hi_piv = max(hi_piv, float(np.nanmax(diag))) if diag.size else hi_piv
    if not np.isfinite(lo_piv):
        lo_piv = 0.0
    return lo_piv, hi_piv, nonfinite


def factor_health(
    impl,
    numeric,
    A: CSC,
    x: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    condest_steps: int = 5,
    tol: float = 1e-10,
) -> HealthReport:
    """Health report for a numeric factorization of ``A``.

    ``impl`` is the solver (KLU/Basker/SupernodalLU instance) that
    produced ``numeric``.  When ``x``/``b`` are given, the
    componentwise backward error of the solve is included and checked
    against ``tol``.  Diagnostics are recorded as
    ``resilience.health.*`` gauges when metrics are enabled.
    """
    issues: List[str] = []
    nonfinite_input = int(np.count_nonzero(~np.isfinite(A.data)))
    if nonfinite_input:
        issues.append(f"input: {nonfinite_input} non-finite value(s)")
    min_piv, max_piv, nonfinite_fac = _pivot_extremes(numeric)
    if nonfinite_fac:
        issues.append(f"factors: {nonfinite_fac} non-finite value(s)")
    if min_piv == 0.0 and A.n_rows:
        issues.append("pivots: zero diagonal in U")

    if nonfinite_fac or nonfinite_input:
        # condest/rgrowth would only propagate the NaNs
        growth = 0.0
        cond = float("inf")
    else:
        growth = rgrowth(A, numeric)
        cond = condest(impl, numeric, A, maxiter=condest_steps)
        if not np.isfinite(growth) or growth < RGROWTH_FLOOR:
            issues.append(f"rgrowth: reciprocal pivot growth {growth:.3e}")
        if not np.isfinite(cond) or cond > CONDEST_CEILING:
            issues.append(f"condest: condition estimate {cond:.3e}")

    berr = None
    if x is not None and b is not None:
        berr = componentwise_backward_error(A, x, b)
        if not (berr <= tol):
            issues.append(f"backward_error: {berr:.3e} above tolerance {tol:.1e}")

    report = HealthReport(
        n=A.n_rows,
        nnz=A.nnz,
        factor_nnz=getattr(numeric, "factor_nnz", 0),
        rgrowth=growth,
        condest=cond,
        min_pivot=min_piv,
        max_pivot=max_piv,
        nonfinite_factors=nonfinite_fac,
        nonfinite_input=nonfinite_input,
        backward_error=berr,
        issues=issues,
    )
    metrics = get_tracer().metrics
    if metrics.enabled:
        metrics.set_gauge("resilience.health.rgrowth", growth)
        if np.isfinite(cond):
            metrics.set_gauge("resilience.health.condest", cond)
        if berr is not None and np.isfinite(berr):
            metrics.set_gauge("resilience.health.backward_error", berr)
        if not report.ok:
            metrics.incr("resilience.health.flagged")
    return report
