"""Continuous profiling: per-span-name latency histograms over sequences.

:class:`ProfilingTracer` extends the span tracer with streaming
aggregation: every completed span is folded into a per-span-name
:class:`~repro.obs.hist.StreamingHistogram` of **modeled** seconds
(ledger × machine model — deterministic) and, when the tracer was given
a wall clock at the harness boundary, a second histogram of **wall**
seconds plus a ``(name, ledger, wall)`` calibration sample.  Harvesting
is on demand (:meth:`ProfilingTracer.harvest`) rather than on span
exit, because leaf spans are legal without ``with`` and ledgers may be
attached after exit; spans are processed in creation order up to the
first still-open span, so calling it at step boundaries (empty span
stack) sees every span exactly once.

:func:`run_profile` is the harness: it drives the §V-F same-pattern
matrix sequence (or any supplied matrix list) through
``DirectSolver.solve_resilient`` under a :class:`ProfilingTracer` and a
:class:`~repro.obs.flight.FlightRecorder`, optionally arms a seeded
:class:`~repro.resilience.faults.FaultPlan` over the replay phase,
optionally fits a calibrated MachineModel from the collected samples,
and returns the ``PROFILE.json``-shaped report the ``repro profile``
CLI serializes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..parallel.ledger import CostLedger
from ..parallel.machine import MachineModel, SANDY_BRIDGE
from .flight import FlightRecorder
from .hist import StreamingHistogram
from .metrics import Metrics
from .tracer import LEDGER_FIELDS, Span, Tracer, tracing

__all__ = ["ProfilingTracer", "run_profile", "PROFILE_SCHEMA"]

PROFILE_SCHEMA = "repro.profile.v1"


class ProfilingTracer(Tracer):
    """Tracer that folds completed spans into per-name histograms."""

    def __init__(
        self,
        machine: MachineModel = SANDY_BRIDGE,
        wall_clock: Optional[Callable[[], float]] = None,
        metrics: Optional[Metrics] = None,
        growth: Optional[float] = None,
        min_value: Optional[float] = None,
    ) -> None:
        super().__init__(wall_clock=wall_clock, metrics=metrics)
        self.machine = machine
        hist_kwargs = {}
        if growth is not None:
            hist_kwargs["growth"] = growth
        if min_value is not None:
            hist_kwargs["min_value"] = min_value
        self._hist_kwargs = hist_kwargs
        self.modeled_hist: Dict[str, StreamingHistogram] = {}
        self.wall_hist: Dict[str, StreamingHistogram] = {}
        # (span name, inclusive ledger, wall seconds) calibration pairs.
        self.samples: List[Tuple[str, CostLedger, float]] = []
        self._harvested = 0

    # ------------------------------------------------------------------
    def _hist(self, table: Dict[str, StreamingHistogram],
              name: str) -> StreamingHistogram:
        h = table.get(name)
        if h is None:
            h = table[name] = StreamingHistogram(**self._hist_kwargs)
        return h

    def _ingest(self, sp: Span) -> None:
        total = sp.ledger_total()
        self._hist(self.modeled_hist, sp.name).observe(
            self.machine.seconds(total))
        wall = sp.wall_seconds
        if wall is not None:
            self._hist(self.wall_hist, sp.name).observe(max(0.0, wall))
            if wall > 0.0 and not total.is_empty():
                self.samples.append((sp.name, total, wall))

    def harvest(self) -> int:
        """Fold spans completed since the last harvest; returns how many.

        Stops at the first span that is still open — spans are stored in
        creation (pre-)order, so an open ancestor always precedes its
        not-yet-finished descendants.  Call at step boundaries (or once
        at the end of the workload) for full coverage.
        """
        open_ids = {id(s) for s in self._stack}
        n = 0
        while self._harvested < len(self.spans):
            sp = self.spans[self._harvested]
            if id(sp) in open_ids:
                break
            self._ingest(sp)
            self._harvested += 1
            n += 1
        return n

    # ------------------------------------------------------------------
    def profile_snapshot(self) -> dict:
        """Per-span-name modeled/wall percentile summaries, sorted."""
        phases = {}
        for name in sorted(self.modeled_hist):
            phases[name] = {
                "modeled": self.modeled_hist[name].snapshot(),
                "wall": (self.wall_hist[name].snapshot()
                         if name in self.wall_hist else None),
            }
        return phases


# ----------------------------------------------------------------------
# The profiling harness.
# ----------------------------------------------------------------------

# Fault site carrying the values-only replay for each DirectSolver kind.
_REPLAY_FAULT_SITE = {
    "klu": "klu.refactor.values",
    "basker": "basker.refactor.values",
}


def _fault_plan(seed: int, solver: str, steps: int):
    """A seeded plan targeting the replay path of the profiled solver."""
    from ..resilience.faults import FaultPlan

    site = _REPLAY_FAULT_SITE.get(solver, "sequence.matrix")
    # The site is invoked once per post-warmup step, so keep every
    # occurrence reachable within the armed window.
    return FaultPlan.random(
        seed,
        n_faults=3,
        sites=[site],
        kinds=("nan", "perturb"),
        max_occurrence=max(1, min(3, steps - 2)),
    )


def run_profile(
    steps: int = 25,
    matrices: Optional[List] = None,
    circuit=None,
    solver: str = "klu",
    machine: MachineModel = SANDY_BRIDGE,
    calibrate: bool = False,
    wall_clock: Optional[Callable[[], float]] = None,
    fault_seed: Optional[int] = None,
    capacity: int = 256,
    tol: float = 1e-10,
    flag_factor: float = 2.0,
) -> dict:
    """Profile a same-pattern solve sequence; return the PROFILE report.

    The workload is the paper §V-F traffic shape: ``steps`` Jacobians
    of one circuit (default :func:`repro.xyce.circuits.xyce1_analog`),
    each solved through ``DirectSolver.solve_resilient`` so the cheap
    values-only replay runs every step and the recovery ladder absorbs
    injected faults.  ``wall_clock`` (e.g. ``time.perf_counter``) turns
    on wall histograms and enables ``calibrate=True``; without it the
    whole run — histograms, flight records, anomalies — is
    bit-deterministic.  ``fault_seed`` arms a seeded
    :class:`~repro.resilience.faults.FaultPlan` on the replay path from
    the second step onward (the clean warmup keeps detectors
    calibrated).
    """
    from ..interface import DirectSolver

    if matrices is None:
        if circuit is None:
            from ..xyce.circuits import xyce1_analog
            circuit = xyce1_analog()
        from ..xyce.transient import matrix_sequence
        matrices = matrix_sequence(circuit, steps)
    matrices = list(matrices)
    if not matrices:
        raise ValueError("run_profile needs at least one matrix")
    steps = len(matrices)

    tracer = ProfilingTracer(machine=machine, wall_clock=wall_clock)
    flight = FlightRecorder(capacity=capacity)
    plan = _fault_plan(fault_seed, solver, steps) if fault_seed is not None else None

    ds = DirectSolver(solver)
    rng = np.random.default_rng(2016)
    rhs = [rng.standard_normal(A.n_rows) for A in matrices]

    armed = False
    try:
        with tracing(tracer):
            for k, A in enumerate(matrices):
                # Arm the fault plan after the warmup step so detectors
                # have a clean baseline to drift from.
                if plan is not None and k == 1 and not armed:
                    plan.__enter__()
                    armed = True
                with tracer.span("profile.step", step=k) as step_span:
                    _x, report = ds.solve_resilient(
                        A, rhs[k], tol=tol, label=f"step{k}")
                tracer.harvest()
                phases: Dict[str, float] = {}
                for child in step_span.children:
                    sec = machine.seconds(child.ledger_total())
                    phases[child.name] = phases.get(child.name, 0.0) + sec
                events = [report.to_dict()] if len(report.attempts) > 1 else []
                flight.record_step(
                    step=k,
                    modeled_s=machine.seconds(step_span.ledger_total()),
                    wall_s=step_span.wall_seconds,
                    phases=phases,
                    events=events,
                    metrics=tracer.metrics,
                )
            tracer.harvest()
    finally:
        if armed:
            plan.__exit__(None, None, None)

    anomalies = flight.scan()

    calibration = None
    if calibrate:
        from .calibrate import fit_machine_model

        calibration = fit_machine_model(
            tracer.samples, base=machine, flag_factor=flag_factor)

    return {
        "schema": PROFILE_SCHEMA,
        "machine": machine.name,
        "solver": solver,
        "steps": steps,
        "n": int(matrices[0].n_rows),
        "fault": {
            "seed": fault_seed,
            "specs": [
                {"site": s.site, "kind": s.kind, "occurrence": s.occurrence,
                 "frac": s.frac}
                for s in plan.specs
            ],
            "fired": len(plan.events),
        } if plan is not None else None,
        "phases": tracer.profile_snapshot(),
        "anomalies": anomalies,
        "flight": {
            "capacity": flight.capacity,
            "dropped": flight.dropped,
            "total_steps": flight.total_steps,
            "records": flight.records,
        },
        "metrics": tracer.metrics.snapshot(),
        # (span name, ledger fields, wall seconds) calibration pairs —
        # JSON-ready so suite-level fits can pool samples across runs.
        "samples": [
            [name, {f: getattr(led, f) for f in LEDGER_FIELDS}, wall]
            for name, led, wall in tracer.samples
        ],
        "calibration": calibration.to_dict() if calibration is not None else None,
    }
