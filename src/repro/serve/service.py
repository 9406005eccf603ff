"""The fault-tolerant solve service.

:class:`SolverService` is a long-lived, multi-tenant front end over the
package's resilient direct solvers.  One instance owns:

* the **admission path** — per-tenant token buckets and a bounded
  FIFO queue simulated on the deterministic modeled clock
  (:mod:`repro.serve.admission`); overload is *refused*, typed, never
  queued unboundedly;
* the **shared pattern cache** — one symbolic analysis + last verified
  numeric factorization per sparsity pattern, leased to requests with
  generation checking (:mod:`repro.serve.cache`);
* **per-pattern circuit breakers** — patterns whose requests keep
  escalating the recovery ladder are quarantined onto an isolated,
  cache-free solve path (:mod:`repro.serve.breaker`);
* the **degradation ladder** — three tiers keyed on queue depth at
  arrival: ``full`` (entire recovery ladder available), ``replay_only``
  (only the cheap replay/refactor rungs; deep escalations are refused
  so a struggling pattern cannot eat the queue's headroom), ``shed``
  (typed rejection before any work).  Every tier transition is a
  counter bump and a flight-recorder event.

Determinism: all scheduling state — waits, service times, backoff,
token refill — advances on modeled seconds priced from exact
:class:`~repro.parallel.ledger.CostLedger` operation counts.  Requests
execute eagerly in-process; nothing reads a wall clock unless the
caller opts into the harness-boundary wall deadline
(:attr:`ServeConfig.wall_deadline_s`), which exists for real
deployments and stays off in reproducibility tests.

Thread safety: admission, queue accounting, cache, breakers, and the
flight recorder are all mutated under ``self._lock`` or their own
locks, so clients on many threads (a caller's own thread pool) can
drive one service instance.  Modeled *ordering* under threads follows
submission interleaving (not bit-reproducible); the single-threaded
simulator is the bit-deterministic configuration.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..contracts import effects
from ..errors import (
    AdmissionRejectedError,
    CacheInvalidatedError,
    CircuitOpenError,
    DeadlineExceededError,
    RecoveryExhaustedError,
    ReproError,
)
from ..interface import DirectSolver
from ..obs.flight import FlightRecorder
from ..obs.hist import StreamingHistogram
from ..obs.metrics import Metrics
from ..parallel.ledger import CostLedger
from ..parallel.machine import MachineModel, SANDY_BRIDGE
from ..sparse.csc import CSC
from ..sparse.verify import validate_rhs
from .admission import ModeledQueue, TokenBucket
from .breaker import BreakerConfig, CircuitBreaker
from .cache import PatternCache, pattern_key
from .policy import RetryPolicy, estimate_request_seconds

__all__ = [
    "REJECT_REASONS",
    "TIERS",
    "ServeConfig",
    "SolveRequest",
    "SolveResponse",
    "SolverService",
]

# Typed rejection slugs carried on AdmissionRejectedError.reason.
REJECT_REASONS = (
    "queue_full",          # bounded queue at capacity
    "tenant_rate",         # tenant token bucket empty
    "shed_overload",       # shed tier: depth past the shed threshold
    "breaker_open",        # pattern quarantined and tier cannot isolate
    "replay_only_escalation",  # degraded tier refused a deep ladder rung
)

# Degradation tiers, healthiest first.
TIERS = ("full", "replay_only", "shed")

# Rungs the replay_only tier may run: the values-only replay and one
# full refactorization.  Deeper rungs (repivot / perturb_refine /
# dense_fallback) are refused under degradation — they are exactly the
# expensive work an overloaded queue cannot afford.
_CHEAP_RUNGS = ("replay", "refactor")

# Winning one of these rungs (or exhausting the ladder) counts as an
# escalation for the pattern's circuit breaker.
_ESCALATION_RUNGS = ("repivot", "perturb_refine", "dense_fallback")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning for one :class:`SolverService` instance."""

    solver: str = "klu"
    machine: MachineModel = SANDY_BRIDGE
    tol: float = 1e-10
    refine_steps: int = 4
    # admission
    queue_depth: int = 16
    replay_only_depth: int = 8     # depth at/past this -> replay_only tier
    shed_depth: int = 14           # depth at/past this -> shed tier
    bucket_capacity: float = 8.0   # default per-tenant bucket
    bucket_refill_per_s: float = 200.0
    # cache
    cache_capacity: int = 8
    eviction_window: int = 4
    # breaker
    breaker_trip_threshold: int = 3
    breaker_cooldown_s: float = 0.05
    # retry
    max_retries: int = 2
    base_backoff_s: float = 0.002
    retry_jitter: float = 0.25
    seed: int = 0
    # deadline enforcement at the harness boundary (wall seconds per
    # request; None = modeled-only, the deterministic default)
    wall_deadline_s: Optional[float] = None
    # deterministic chaos: invalidate the borrowed cache entry under the
    # live lease every Nth shared-path request (0 = off) — exercises the
    # borrow/evict race and the retryable CacheInvalidatedError path
    chaos_invalidate_every: int = 0
    flight_capacity: int = 1024

    def validate(self) -> None:
        if not 0 < self.replay_only_depth <= self.shed_depth <= self.queue_depth:
            raise ValueError(
                "tier thresholds must satisfy 0 < replay_only_depth <= "
                "shed_depth <= queue_depth")
        BreakerConfig(self.breaker_trip_threshold,
                      self.breaker_cooldown_s).validate()
        if self.chaos_invalidate_every < 0:
            raise ValueError("chaos_invalidate_every must be >= 0")


@dataclass
class SolveRequest:
    """One tenant request: solve ``A x = b`` before ``deadline_s``."""

    tenant: str
    A: CSC
    b: np.ndarray
    arrival_s: float = 0.0        # modeled arrival instant
    deadline_s: Optional[float] = None  # modeled budget from arrival; None = none
    label: str = ""


@dataclass
class SolveResponse:
    """A verified answer plus its full serving account."""

    x: np.ndarray
    backward_error: float
    request_id: int
    tenant: str
    tier: str                     # tier the request was served under
    path: str                     # "shared" | "isolated"
    cache_hit: bool
    retries: int
    succeeded_rung: str
    wait_s: float                 # modeled queue wait
    service_s: float              # modeled service (incl. retries/backoff)
    latency_s: float              # wait + service
    finish_s: float               # modeled completion instant
    report: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "ok": True,
            "tier": self.tier,
            "path": self.path,
            "cache_hit": self.cache_hit,
            "retries": self.retries,
            "succeeded_rung": self.succeeded_rung,
            "backward_error": self.backward_error,
            "wait_s": self.wait_s,
            "service_s": self.service_s,
            "latency_s": self.latency_s,
        }


@dataclass
class _TenantAccount:
    """Per-tenant resource accounting."""

    bucket: TokenBucket
    ledger: CostLedger = field(default_factory=CostLedger)
    accepted: int = 0
    rejected: int = 0
    latency: StreamingHistogram = field(default_factory=StreamingHistogram)

    def to_dict(self, machine: MachineModel) -> dict:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "modeled_seconds": machine.seconds(self.ledger),
            "total_flops": self.ledger.total_flops,
            "latency": self.latency.snapshot(),
            "bucket": self.bucket.to_dict(),
        }


class SolverService:
    """Long-lived multi-tenant solve service (see module docstring)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.config.validate()
        self.machine = self.config.machine
        self.metrics = Metrics()
        self.queue = ModeledQueue(max_depth=self.config.queue_depth)
        self.cache = PatternCache(
            capacity=self.config.cache_capacity,
            machine=self.machine,
            metrics=self.metrics,
            eviction_window=self.config.eviction_window,
        )
        self.flight = FlightRecorder(capacity=self.config.flight_capacity)
        self.retry_policy = RetryPolicy(
            max_retries=self.config.max_retries,
            base_backoff_s=self.config.base_backoff_s,
            jitter=self.config.retry_jitter,
            seed=self.config.seed,
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._tenants: Dict[str, _TenantAccount] = {}
        self._lock = threading.RLock()
        self._next_id = 0
        self._shared_count = 0     # chaos-invalidation cadence
        self._tier = "full"
        self.latency = StreamingHistogram()
        self.wait = StreamingHistogram()

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        name: str,
        bucket_capacity: Optional[float] = None,
        bucket_refill_per_s: Optional[float] = None,
    ) -> None:
        """Register a tenant with an optional custom rate limit."""
        with self._lock:
            if name in self._tenants:
                return
            self._tenants[name] = _TenantAccount(bucket=TokenBucket(
                capacity=bucket_capacity if bucket_capacity is not None
                else self.config.bucket_capacity,
                refill_per_s=bucket_refill_per_s if bucket_refill_per_s is not None
                else self.config.bucket_refill_per_s,
            ))

    def _account(self, tenant: str) -> _TenantAccount:
        with self._lock:
            if tenant not in self._tenants:
                self.register_tenant(tenant)
            return self._tenants[tenant]

    # ------------------------------------------------------------------
    # tiers
    # ------------------------------------------------------------------
    def _tier_for_depth(self, depth: int) -> str:
        if depth >= self.config.shed_depth:
            return "shed"
        if depth >= self.config.replay_only_depth:
            return "replay_only"
        return "full"

    def _note_tier(self, tier: str, now_s: float, events: List[dict]) -> None:
        """Count + record a tier transition (idempotent per tier)."""
        if tier == self._tier:
            return
        events.append({
            "event": "serve.tier",
            "from": self._tier,
            "to": tier,
            "at_s": float(now_s),
        })
        self._tier = tier
        self.metrics.incr(f"serve.tier.{tier}")

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> SolveResponse:
        """Serve one request; raises typed errors on any refusal.

        Raises
        ------
        AdmissionRejectedError
            Queue full, tenant rate-limited, shed tier, breaker open in
            a degraded tier, or a degraded tier refusing a deep rung.
        DeadlineExceededError
            The modeled deadline cannot be met (at admission, with no
            factorization work started) or expired mid-ladder (with the
            partial recovery report attached).
        ReproError subclasses
            Whatever the final non-retryable solve failure was
            (StructureError, RecoveryExhaustedError, ...).
        """
        wall_start = time.monotonic() if self.config.wall_deadline_s else None
        with self._lock:
            return self._submit_locked(request, wall_start)

    # The whole request runs under the service lock: modeled-queue
    # accounting must observe requests in a single total order, and the
    # solver work itself is pure CPU (no IO to overlap).  Callers on
    # several threads therefore get safety, not speedup — see module
    # docstring.
    def _submit_locked(self, request: SolveRequest,
                       wall_start: Optional[float]) -> SolveResponse:
        cfg = self.config
        events: List[dict] = []
        now = float(request.arrival_s)
        account = self._account(request.tenant)
        self._next_id += 1
        rid = self._next_id
        modeled_s = None

        try:
            # ---- admission gates (no solver work yet) ------------------
            depth = self.queue.depth_at(now)
            self.metrics.set_gauge("serve.queue_depth", float(depth))
            tier = self._tier_for_depth(depth)
            self._note_tier(tier, now, events)

            if not account.bucket.try_take(now):
                self._reject(account, events, rid, request, now, "tenant_rate")
            # the hard bound outranks the shed tier: a full queue is
            # queue_full even when the shed threshold is also crossed
            if depth >= self.queue.max_depth:
                self.queue.rejected += 1
                self._reject(account, events, rid, request, now, "queue_full")
            if tier == "shed":
                self.metrics.incr("serve.shed_total")
                self._reject(account, events, rid, request, now, "shed_overload")
            ok, depth = self.queue.admit(now)
            if not ok:  # unreachable: the bound was checked above
                self._reject(account, events, rid, request, now, "queue_full")

            key = pattern_key(request.A)
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(config=BreakerConfig(
                    trip_threshold=cfg.breaker_trip_threshold,
                    cooldown_s=cfg.breaker_cooldown_s,
                ))
                self._breakers[key] = breaker

            shared = breaker.allows_shared(now)
            if not shared and tier != "full":
                # a degraded tier has no headroom for isolated re-analysis
                self.metrics.incr("serve.rejected.breaker_open")
                account.rejected += 1
                events.append({"event": "serve.reject", "request": rid,
                               "reason": "breaker_open", "tenant": request.tenant})
                raise CircuitOpenError(
                    f"pattern {key} circuit open and tier {tier!r} cannot "
                    "absorb an isolated solve",
                    key=key, trips=breaker.trips)

            wait_s = self.queue.start_service(now) - now
            self.metrics.incr("serve.admitted")

            # ---- serve -------------------------------------------------
            if shared:
                response = self._serve_shared(
                    rid, request, account, breaker, key, tier,
                    now, wait_s, events)
            else:
                self.metrics.incr("serve.isolated")
                events.append({"event": "serve.isolated", "request": rid,
                               "pattern": key})
                response = self._serve_isolated(
                    rid, request, account, key, tier, now, wait_s, events)

            self._check_wall_deadline(wall_start)
            account.accepted += 1
            account.latency.observe(response.latency_s)
            self.latency.observe(response.latency_s)
            self.wait.observe(response.wait_s)
            self.metrics.incr("serve.completed")
            modeled_s = response.service_s
            return response
        except ReproError as exc:
            self.metrics.incr(f"serve.error.{type(exc).__name__}")
            raise
        finally:
            for b in self._breakers.values():
                events.extend(self._drain(b))
            self.flight.record_step(
                step=rid,
                modeled_s=modeled_s,
                events=events,
                metrics=self.metrics,
            )

    @staticmethod
    def _drain(breaker: CircuitBreaker) -> List[dict]:
        out = breaker.transitions[:]
        breaker.transitions.clear()
        return out

    def _reject(self, account: _TenantAccount, events: List[dict], rid: int,
                request: SolveRequest, now_s: float, reason: str) -> None:
        self.metrics.incr(f"serve.rejected.{reason}")
        account.rejected += 1
        events.append({"event": "serve.reject", "request": rid,
                       "reason": reason, "tenant": request.tenant,
                       "at_s": float(now_s)})
        raise AdmissionRejectedError(
            f"request {rid} from {request.tenant!r} rejected: {reason}",
            reason=reason, tenant=request.tenant)

    def _check_completion_deadline(self, rid: int, request: SolveRequest,
                                   elapsed_s: float, report) -> None:
        """A verified answer delivered after the deadline is still a
        deadline failure — the caller has moved on.  The work stays
        accounted (the server really was occupied); the response is
        replaced by the typed error with the full report attached."""
        if request.deadline_s is None or elapsed_s <= request.deadline_s:
            return
        self.metrics.incr("serve.deadline.completion")
        raise DeadlineExceededError(
            f"request {rid}: completed at modeled {elapsed_s:.3e}s, past "
            f"deadline {request.deadline_s:.3e}s",
            deadline_s=request.deadline_s, elapsed_s=elapsed_s,
            report=report)

    def _check_wall_deadline(self, wall_start: Optional[float]) -> None:
        """Harness-boundary wall clock enforcement (opt-in, not modeled)."""
        if wall_start is None:
            return
        elapsed = time.monotonic() - wall_start
        if elapsed > self.config.wall_deadline_s:
            self.metrics.incr("serve.deadline.wall")
            raise DeadlineExceededError(
                f"wall deadline {self.config.wall_deadline_s}s exceeded "
                f"({elapsed:.3f}s elapsed)",
                deadline_s=self.config.wall_deadline_s, elapsed_s=elapsed)

    # ------------------------------------------------------------------
    def _serve_shared(self, rid: int, request: SolveRequest,
                      account: _TenantAccount, breaker: CircuitBreaker,
                      key: str, tier: str, now: float, wait_s: float,
                      events: List[dict]) -> SolveResponse:
        """The normal path: leased shared cache entry + recovery ladder."""
        cfg = self.config
        b = validate_rhs(request.b, request.A.n_rows)
        spent = CostLedger()      # everything this request burned so far

        def build():
            solver = DirectSolver(cfg.solver)
            solver.symbolic_factorization(request.A)
            sym_ledger = getattr(solver._symbolic, "ledger", None)
            led = sym_ledger.copy() if sym_ledger is not None else CostLedger()
            return solver, led

        lease, hit = self.cache.borrow(key, build)
        if not hit:
            spent.add(lease.entry.build_ledger)

        # ---- admission-time deadline check: the estimate comes from the
        # pattern's latency history or its symbolic ledger — no numeric
        # factorization has run yet when this rejects.
        if request.deadline_s is not None:
            estimate = estimate_request_seconds(
                self.machine,
                symbolic_ledger=lease.entry.build_ledger,
                observed_s=lease.entry.estimate_seconds(),
            )
            projected = wait_s + estimate
            if projected > request.deadline_s:
                self.cache.release(lease)
                self.metrics.incr("serve.deadline.admission")
                events.append({"event": "serve.deadline", "request": rid,
                               "where": "admission",
                               "projected_s": projected,
                               "deadline_s": request.deadline_s})
                raise DeadlineExceededError(
                    f"request {rid}: projected {projected:.3e}s exceeds "
                    f"deadline {request.deadline_s:.3e}s at admission",
                    deadline_s=request.deadline_s, elapsed_s=projected,
                    report=None)

        self._shared_count += 1
        if (cfg.chaos_invalidate_every
                and self._shared_count % cfg.chaos_invalidate_every == 0):
            # deterministic borrow/evict race: yank the entry under the
            # live lease; the next lease check fails retryable.
            self.cache.invalidate(key)
            events.append({"event": "serve.chaos.invalidate", "request": rid,
                           "pattern": key})

        retries = 0
        attempt = 0
        while True:
            holder = {}

            def before_rung(rung, report):
                holder["report"] = report
                lease.check()
                if tier == "replay_only" and rung not in _CHEAP_RUNGS:
                    self.metrics.incr("serve.rejected.replay_only_escalation")
                    raise AdmissionRejectedError(
                        f"request {rid}: tier replay_only refuses rung "
                        f"{rung!r}", reason="replay_only_escalation",
                        tenant=request.tenant)
                if request.deadline_s is not None:
                    elapsed = wait_s + self.machine.seconds(
                        spent) + self.machine.seconds(report.ledger)
                    if elapsed > request.deadline_s:
                        self.metrics.incr("serve.deadline.midflight")
                        raise DeadlineExceededError(
                            f"request {rid}: modeled elapsed {elapsed:.3e}s "
                            f"crossed deadline {request.deadline_s:.3e}s "
                            f"before rung {rung!r}",
                            deadline_s=request.deadline_s,
                            elapsed_s=elapsed, report=report)

            try:
                x, report = lease.entry.solver.solve_resilient(
                    request.A, b, tol=cfg.tol,
                    refine_steps=cfg.refine_steps,
                    label=request.label, before_rung=before_rung)
                lease.check()   # answer must come from a live generation
                spent.add(report.ledger)
                service_s = self.machine.seconds(spent)
                finish = self.queue.finish_service(
                    self.queue.start_service(now), service_s)
                self.cache.release(lease, service_seconds=service_s)
                account.ledger.add(spent)

                escalated = report.succeeded in _ESCALATION_RUNGS
                change = (breaker.record_escalation(finish) if escalated
                          else breaker.record_success(finish))
                if change:
                    self.metrics.incr(f"serve.breaker.{change}")
                    if change == "trip":
                        # quarantine: drop the thrashing entry so the
                        # half-open probe rebuilds from scratch
                        self.cache.invalidate(key)
                if escalated:
                    self.metrics.incr("serve.escalations")
                    events.append({"event": "serve.escalation",
                                   "request": rid,
                                   "rung": report.succeeded})
                self._check_completion_deadline(
                    rid, request, wait_s + service_s, report)
                return SolveResponse(
                    x=x, backward_error=float(report.backward_error),
                    request_id=rid, tenant=request.tenant, tier=tier,
                    path="shared", cache_hit=hit, retries=retries,
                    succeeded_rung=str(report.succeeded),
                    wait_s=wait_s, service_s=service_s,
                    latency_s=wait_s + service_s, finish_s=finish,
                    report=report.to_dict())
            except ReproError as exc:
                partial = holder.get("report")
                if partial is not None:
                    spent.add(partial.ledger)
                if isinstance(exc, RecoveryExhaustedError):
                    change = breaker.record_escalation(now)
                    if change:
                        self.metrics.incr(f"serve.breaker.{change}")
                        if change == "trip":
                            self.cache.invalidate(key)
                if not self.retry_policy.should_retry(exc, attempt):
                    service_s = self.machine.seconds(spent)
                    if service_s > 0.0:
                        self.queue.finish_service(
                            self.queue.start_service(now), service_s)
                        account.ledger.add(spent)
                    self.cache.release(lease)
                    raise
                backoff = self.retry_policy.backoff_s(attempt)
                spent.add(_backoff_ledger(self.machine, backoff))
                retries += 1
                attempt += 1
                self.metrics.incr("serve.retries")
                events.append({"event": "serve.retry", "request": rid,
                               "attempt": attempt,
                               "error": type(exc).__name__,
                               "backoff_s": backoff})
                self.cache.release(lease)
                lease, hit = self.cache.borrow(key, build)

    # ------------------------------------------------------------------
    def _serve_isolated(self, rid: int, request: SolveRequest,
                        account: _TenantAccount, key: str, tier: str,
                        now: float, wait_s: float,
                        events: List[dict]) -> SolveResponse:
        """Breaker-open path: private solver, no shared-cache traffic.

        The request pays full re-analysis every time — deliberately: a
        quarantined pattern must not touch (or repopulate) the shared
        entry other tenants depend on.
        """
        cfg = self.config
        b = validate_rhs(request.b, request.A.n_rows)
        solver = DirectSolver(cfg.solver)
        solver.symbolic_factorization(request.A)
        spent = CostLedger()
        sym_ledger = getattr(solver._symbolic, "ledger", None)
        if sym_ledger is not None:
            spent.add(sym_ledger)
        holder = {}

        def before_rung(rung, report):
            holder["report"] = report
            if request.deadline_s is not None:
                elapsed = wait_s + self.machine.seconds(
                    spent) + self.machine.seconds(report.ledger)
                if elapsed > request.deadline_s:
                    self.metrics.incr("serve.deadline.midflight")
                    raise DeadlineExceededError(
                        f"request {rid}: modeled elapsed {elapsed:.3e}s "
                        f"crossed deadline {request.deadline_s:.3e}s "
                        f"before rung {rung!r} (isolated)",
                        deadline_s=request.deadline_s,
                        elapsed_s=elapsed, report=report)

        try:
            x, report = solver.solve_resilient(
                request.A, b, tol=cfg.tol, refine_steps=cfg.refine_steps,
                label=request.label, before_rung=before_rung)
        except ReproError:
            partial = holder.get("report")
            if partial is not None:
                spent.add(partial.ledger)
            service_s = self.machine.seconds(spent)
            if service_s > 0.0:
                self.queue.finish_service(
                    self.queue.start_service(now), service_s)
                account.ledger.add(spent)
            raise
        spent.add(report.ledger)
        service_s = self.machine.seconds(spent)
        finish = self.queue.finish_service(
            self.queue.start_service(now), service_s)
        account.ledger.add(spent)
        self._check_completion_deadline(
            rid, request, wait_s + service_s, report)
        return SolveResponse(
            x=x, backward_error=float(report.backward_error),
            request_id=rid, tenant=request.tenant, tier=tier,
            path="isolated", cache_hit=False, retries=0,
            succeeded_rung=str(report.succeeded),
            wait_s=wait_s, service_s=service_s,
            latency_s=wait_s + service_s, finish_s=finish,
            report=report.to_dict())

    # ------------------------------------------------------------------
    def breaker_state(self, A_or_key) -> dict:
        """Breaker snapshot for a matrix or a pattern key."""
        key = A_or_key if isinstance(A_or_key, str) else pattern_key(A_or_key)
        with self._lock:
            breaker = self._breakers.get(key)
            return breaker.to_dict() if breaker is not None else {
                "state": "closed", "trips": 0, "resets": 0, "reopens": 0,
                "consecutive_escalations": 0}

    def snapshot(self) -> dict:
        """Deterministic JSON-ready service state summary."""
        with self._lock:
            return {
                "queue": self.queue.to_dict(),
                "cache": self.cache.snapshot(),
                "tier": self._tier,
                "breakers": {k: b.to_dict()
                             for k, b in sorted(self._breakers.items())},
                "tenants": {name: acct.to_dict(self.machine)
                            for name, acct in sorted(self._tenants.items())},
                "latency": self.latency.snapshot(),
                "wait": self.wait.snapshot(),
                "metrics": self.metrics.snapshot(),
            }


@effects(pure=True)
def _backoff_ledger(machine: MachineModel, backoff_s: float) -> CostLedger:
    """A ledger whose modeled price equals ``backoff_s`` of pure waiting.

    Backoff occupies the request's slot without doing flops; modeling it
    as memory traffic keeps all accounting in ledger currency so tenant
    totals and queue occupancy stay consistent.
    """
    one_word = machine.seconds(CostLedger(mem_words=1.0))
    return CostLedger(mem_words=backoff_s / one_word if one_word > 0.0 else 0.0)
