"""Deterministic, seeded fault injection for the solve/refactor kernels.

A :class:`FaultPlan` is a context manager that arms a set of
:class:`FaultSpec` corruptions at *named injection sites* compiled into
the GP/KLU/Basker kernels and the schedule replay.  While a plan is
active, each site calls back into the plan once per invocation; a spec
fires when its site's invocation counter reaches ``occurrence``, so a
given (plan, workload) pair always injects at exactly the same places —
failure paths become replayable tests instead of field anecdotes.

The hooks are free when no plan is active: one module-global ``is None``
check per kernel *step* (never per column), which keeps the PR-3
wall-clock floors intact.

Sites and the fault kinds they accept:

====================================  =========  ==========================
site                                  hook type  kinds
====================================  =========  ==========================
``gp.factor.values``                  values     perturb, nan
``gp.panel``                          values     perturb, nan
``gp.refactor.values``                values     perturb, nan
``klu.refactor.values``               values     perturb, nan
``basker.refactor.values``            values     perturb, nan
``schedule.replay.workspace``         workspace  pivot_zero, drop_update,
                                                 perturb, nan
``sequence.matrix``                   matrix     pattern_drift, perturb, nan
====================================  =========  ==========================

* ``perturb`` — multiply one entry by ``magnitude`` (default ``1e8``).
* ``nan`` — poison one entry with NaN.
* ``pivot_zero`` — zero one *pivot* workspace slot, chosen right after
  the input scatter and zero again when the replay checks its pivots
  (provokes :class:`~repro.errors.SingularMatrixError` in the replay).
* ``drop_update`` — zero one non-pivot workspace slot right after the
  input scatter, simulating a lost update/store.
* ``pattern_drift`` — insert a structurally new entry into a matrix
  (simulates the pattern changing between refactor steps).

Corruptions are applied to *internal copies*: a faulted kernel never
mutates its caller's arrays, so the recovery ladder can re-run from the
pristine input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FaultInjectionError
from ..obs.tracer import get_tracer

if TYPE_CHECKING:  # import-light: sparse imports this module at runtime
    from ..sparse.csc import CSC

__all__ = [
    "FAULT_KINDS",
    "KNOWN_SITES",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "active_plan",
    "fault_values",
    "fault_matrix",
]

FAULT_KINDS = ("perturb", "nan", "pivot_zero", "drop_update", "pattern_drift")

# site name -> (hook type, allowed kinds, description)
KNOWN_SITES: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "gp.factor.values": (
        "values", ("perturb", "nan"),
        "input values entering a fresh Gilbert-Peierls factorization",
    ),
    "gp.panel": (
        "values", ("perturb", "nan"),
        "trailing-column values gathered into the dense panel of the "
        "blocked gp_factor (fires only when a dense tail is detected)",
    ),
    "gp.refactor.values": (
        "values", ("perturb", "nan"),
        "input values entering the gp_refactor schedule replay",
    ),
    "klu.refactor.values": (
        "values", ("perturb", "nan"),
        "permuted matrix values inside KLU.refactor_fast",
    ),
    "basker.refactor.values": (
        "values", ("perturb", "nan"),
        "permuted matrix values inside Basker.refactor_fast",
    ),
    "schedule.replay.workspace": (
        "workspace", ("pivot_zero", "drop_update", "perturb", "nan"),
        "scattered workspace of RefactorSchedule.run (pivot slots known)",
    ),
    "sequence.matrix": (
        "matrix", ("pattern_drift", "perturb", "nan"),
        "assembled matrix between refactor steps (chaos/transient harness)",
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One armed corruption.

    ``occurrence`` counts invocations of the site (0 = first call);
    ``frac`` in ``[0, 1)`` selects the target index as
    ``int(frac * size)``, so a spec is meaningful for any matrix size.
    """

    site: str
    kind: str
    occurrence: int = 0
    frac: float = 0.5
    magnitude: float = 1e8

    def validate(self) -> None:
        if self.site not in KNOWN_SITES:
            raise FaultInjectionError(
                f"unknown fault site {self.site!r}; known: {sorted(KNOWN_SITES)}"
            )
        hook_type, allowed, _ = KNOWN_SITES[self.site]
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; known: {list(FAULT_KINDS)}"
            )
        if self.kind not in allowed:
            raise FaultInjectionError(
                f"fault kind {self.kind!r} is not injectable at site "
                f"{self.site!r} (a {hook_type} site accepts {list(allowed)})"
            )
        if not (0 <= self.occurrence):
            raise FaultInjectionError("occurrence must be >= 0")
        if not (0.0 <= self.frac < 1.0):
            raise FaultInjectionError("frac must be in [0, 1)")


@dataclass(frozen=True)
class FaultEvent:
    """Record of one corruption that actually fired."""

    site: str
    kind: str
    occurrence: int
    index: int
    detail: str


_ACTIVE: Optional["FaultPlan"] = None


def active_plan() -> Optional["FaultPlan"]:
    return _ACTIVE


class FaultPlan:
    """Context manager arming a deterministic set of fault specs.

    >>> plan = FaultPlan([FaultSpec("gp.refactor.values", "nan")])
    >>> with plan:
    ...     solver.refactor_fast(A, numeric)   # doctest: +SKIP
    >>> plan.events                            # what actually fired
    """

    def __init__(self, specs: Sequence[FaultSpec], label: str = ""):
        self.specs: List[FaultSpec] = list(specs)
        for spec in self.specs:
            spec.validate()
        self.label = label
        self.events: List[FaultEvent] = []
        self._counters: Dict[str, int] = {}
        # site -> occurrence -> [specs]
        self._by_site: Dict[str, Dict[int, List[FaultSpec]]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, {}).setdefault(
                spec.occurrence, []
            ).append(spec)

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        n_faults: int = 3,
        sites: Optional[Sequence[str]] = None,
        kinds: Optional[Sequence[str]] = None,
        max_occurrence: int = 3,
    ) -> "FaultPlan":
        """A deterministic plan drawn from ``seed``: same seed, same
        specs, same injected sites."""
        rng = np.random.default_rng(seed)
        pool: List[Tuple[str, str]] = []
        for site in (sites if sites is not None else sorted(KNOWN_SITES)):
            if site not in KNOWN_SITES:
                raise FaultInjectionError(f"unknown fault site {site!r}")
            _, allowed, _ = KNOWN_SITES[site]
            for kind in allowed:
                if kinds is None or kind in kinds:
                    pool.append((site, kind))
        if not pool:
            raise FaultInjectionError("no (site, kind) pairs match the filters")
        specs = []
        for _ in range(n_faults):
            site, kind = pool[int(rng.integers(len(pool)))]
            specs.append(FaultSpec(
                site=site,
                kind=kind,
                occurrence=int(rng.integers(max_occurrence)),
                frac=float(rng.random()),
            ))
        return cls(specs, label=f"random(seed={seed})")

    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultPlan":
        global _ACTIVE
        if _ACTIVE is not None:
            raise FaultInjectionError("a FaultPlan is already active (no nesting)")
        self.events = []
        self._counters = {}
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = None

    def unfired(self) -> List[FaultSpec]:
        """Specs whose (site, occurrence) was never reached."""
        fired = {(e.site, e.kind, e.occurrence) for e in self.events}
        return [s for s in self.specs
                if (s.site, s.kind, s.occurrence) not in fired]

    # ------------------------------------------------------------------
    def _due(self, site: str) -> List[FaultSpec]:
        count = self._counters.get(site, 0)
        self._counters[site] = count + 1
        per_site = self._by_site.get(site)
        if not per_site:
            return []
        return per_site.get(count, [])

    def _record(self, spec: FaultSpec, index: int, detail: str) -> None:
        self.events.append(FaultEvent(
            site=spec.site, kind=spec.kind, occurrence=spec.occurrence,
            index=index, detail=detail,
        ))
        metrics = get_tracer().metrics
        metrics.incr("resilience.faults.injected")
        metrics.incr(f"resilience.faults.{spec.kind}")

    # ------------------------------------------------------------------
    def apply_values(self, site: str, values: np.ndarray) -> np.ndarray:
        due = self._due(site)
        if not due or values.size == 0:
            return values
        out = np.array(values, dtype=np.float64, copy=True)
        for spec in due:
            idx = int(spec.frac * out.size)
            if spec.kind == "perturb":
                old = out[idx]
                out[idx] = (old if old != 0.0 else 1.0) * spec.magnitude
                self._record(spec, idx, f"scaled entry by {spec.magnitude:g}")
            elif spec.kind == "nan":
                out[idx] = np.nan
                self._record(spec, idx, "poisoned entry with NaN")
        return out

    def apply_workspace(
        self, site: str, xwork: np.ndarray, pivot_positions: np.ndarray
    ) -> List[int]:
        """Corrupt the (private, freshly scattered) replay workspace in
        place.  ``pivot_positions`` are the workspace slots holding the
        pivots, so ``pivot_zero`` can target a real pivot and
        ``drop_update`` a real update slot.

        Returns the pivot slots ``pivot_zero`` zeroed.  The stage
        updates of the sweep may write into them again, so the replay
        zeroes them once more where it checks its pivots."""
        due = self._due(site)
        zeroed: List[int] = []
        if not due or xwork.size == 0:
            return zeroed
        for spec in due:
            if spec.kind == "pivot_zero":
                if pivot_positions.size == 0:
                    continue
                # Prefer a pivot slot currently holding a nonzero value:
                # zeroing an already-zero slot would be a no-op fault.
                live = pivot_positions[xwork[pivot_positions] != 0.0]
                pool = live if live.size else pivot_positions
                pos = int(pool[int(spec.frac * pool.size)])
                xwork[pos] = 0.0
                zeroed.append(pos)
                self._record(spec, pos, "zeroed a pivot workspace slot")
                continue
            # The workspace spans the union factor pattern; fill-in
            # slots are still zero right after the input scatter, so
            # target a slot that actually carries an input value.
            nz = np.flatnonzero(xwork)
            idx = int(nz[int(spec.frac * nz.size)]) if nz.size else int(
                spec.frac * xwork.size
            )
            if spec.kind == "drop_update":
                # avoid the pivot slots: dropping a pivot is pivot_zero
                pivots = set(int(p) for p in pivot_positions)
                if idx in pivots:
                    for alt in nz:
                        if int(alt) not in pivots:
                            idx = int(alt)
                            break
                    else:
                        idx = (idx + 1) % xwork.size
                xwork[idx] = 0.0
                self._record(spec, idx, "zeroed an update workspace slot")
            elif spec.kind == "perturb":
                old = xwork[idx]
                xwork[idx] = (old if old != 0.0 else 1.0) * spec.magnitude
                self._record(spec, idx, f"scaled workspace slot by {spec.magnitude:g}")
            elif spec.kind == "nan":
                xwork[idx] = np.nan
                self._record(spec, idx, "poisoned workspace slot with NaN")
        return zeroed

    def apply_matrix(self, site: str, A: CSC) -> CSC:
        due = self._due(site)
        if not due or A.nnz == 0:
            return A
        for spec in due:
            if spec.kind == "pattern_drift":
                A = _insert_entry(A, spec, self)
            else:
                data = self.apply_values_single(spec, A.data)
                A = A.__class__(A.n_rows, A.n_cols, A.indptr, A.indices, data)
        return A

    def apply_values_single(self, spec: FaultSpec, values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=np.float64, copy=True)
        idx = int(spec.frac * out.size)
        if spec.kind == "perturb":
            old = out[idx]
            out[idx] = (old if old != 0.0 else 1.0) * spec.magnitude
            self._record(spec, idx, f"scaled entry by {spec.magnitude:g}")
        elif spec.kind == "nan":
            out[idx] = np.nan
            self._record(spec, idx, "poisoned entry with NaN")
        return out


def _insert_entry(A: CSC, spec: FaultSpec, plan: FaultPlan) -> CSC:
    """Insert one structurally new entry (pattern drift)."""
    n_rows, n_cols = A.n_rows, A.n_cols
    j = int(spec.frac * n_cols)
    lo, hi = int(A.indptr[j]), int(A.indptr[j + 1])
    present = set(int(r) for r in A.indices[lo:hi])
    row = -1
    for r in range(n_rows):
        if r not in present:
            row = r
            break
    if row < 0:  # column already dense; drift is impossible here
        return A
    pos = lo + int(np.searchsorted(A.indices[lo:hi], row))
    indptr = A.indptr.copy()
    indptr[j + 1:] += 1
    indices = np.insert(A.indices, pos, row)
    scale = float(np.max(np.abs(A.data), initial=1.0))
    data = np.insert(A.data, pos, 1e-3 * scale)
    plan._record(spec, pos, f"inserted entry ({row}, {j})")
    return A.__class__(n_rows, n_cols, indptr, indices, data)


# ----------------------------------------------------------------------
# Kernel-side hooks: one global check when inactive.
# ----------------------------------------------------------------------


def fault_values(site: str, values: np.ndarray) -> np.ndarray:
    """Hook for value-array sites; returns a corrupted copy or the
    input unchanged.  Zero-cost (one ``is None`` check) when no plan is
    active."""
    plan = _ACTIVE
    if plan is None:
        return values
    return plan.apply_values(site, values)


def fault_matrix(site: str, A: CSC) -> CSC:
    plan = _ACTIVE
    if plan is None:
        return A
    return plan.apply_matrix(site, A)
