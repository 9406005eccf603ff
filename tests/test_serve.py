"""Tests for repro.serve: admission, deadlines, retries, cache leases,
circuit breaking, degradation tiers, and soak determinism."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import (
    AdmissionRejectedError,
    CacheInvalidatedError,
    CircuitOpenError,
    DeadlineExceededError,
    RecoveryExhaustedError,
    ReproError,
    StructureError,
)
from repro.obs.metrics import Metrics
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import SANDY_BRIDGE
from repro.serve import (
    BreakerConfig,
    CircuitBreaker,
    ModeledQueue,
    PatternCache,
    RetryPolicy,
    ServeClient,
    ServeConfig,
    SolveRequest,
    SolverService,
    TenantSpec,
    TokenBucket,
    pattern_key,
    run_soak,
)
from repro.serve.sim import report_to_json
from repro.sparse import CSC
from repro.sparse.verify import componentwise_backward_error

from .helpers import random_spd_like


def small_matrix(seed: int = 0, n: int = 12) -> CSC:
    return random_spd_like(n, 0.3, np.random.default_rng(seed))


def singular_matrix(n: int = 4) -> CSC:
    rr, cc = np.indices((n, n))
    return CSC.from_coo(rr.ravel(), cc.ravel(),
                        np.ones(n * n), shape=(n, n))


def make_request(A, seed=0, tenant="t0", arrival_s=0.0, deadline_s=None):
    b = np.random.default_rng(seed).standard_normal(A.n_rows)
    return SolveRequest(tenant=tenant, A=A, b=b, arrival_s=arrival_s,
                        deadline_s=deadline_s)


# ----------------------------------------------------------------------
# admission: token buckets and the bounded queue
# ----------------------------------------------------------------------

class TestAdmission:
    def test_token_bucket_drains_and_refills(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=1.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)          # drained
        assert bucket.try_take(1.0)              # one modeled second refills 1
        assert not bucket.try_take(1.0)

    def test_queue_depth_and_bound(self):
        q = ModeledQueue(max_depth=2)
        assert q.admit(0.0) == (True, 0)
        q.finish_service(q.start_service(0.0), 10.0)
        assert q.admit(0.0) == (True, 1)
        q.finish_service(q.start_service(0.0), 10.0)
        ok, depth = q.admit(0.0)
        assert not ok and depth == 2
        # after the completions drain, depth resets
        assert q.admit(100.0) == (True, 0)

    def test_tenant_rate_limit_rejects_typed(self):
        service = SolverService(ServeConfig(
            bucket_capacity=2.0, bucket_refill_per_s=0.001))
        A = small_matrix()
        for k in range(2):
            service.submit(make_request(A, seed=k, arrival_s=0.0))
        with pytest.raises(AdmissionRejectedError) as exc_info:
            service.submit(make_request(A, seed=9, arrival_s=0.0))
        assert exc_info.value.reason == "tenant_rate"
        assert exc_info.value.tenant == "t0"
        assert service.metrics.counter("serve.rejected.tenant_rate") == 1

    def test_queue_full_rejects_typed_and_bound_never_exceeded(self):
        # shed == queue depth so the hard bound fires first
        cfg = ServeConfig(queue_depth=3, replay_only_depth=3, shed_depth=3,
                          bucket_capacity=100.0)
        service = SolverService(cfg)
        A = small_matrix()
        accepted, rejected = 0, 0
        for k in range(6):   # all arrive at the same modeled instant
            try:
                service.submit(make_request(A, seed=k, arrival_s=0.0))
                accepted += 1
            except AdmissionRejectedError as exc:
                assert exc.reason == "queue_full"
                rejected += 1
        assert accepted == 3 and rejected == 3
        assert service.queue.peak_depth <= cfg.queue_depth

    def test_shed_tier_rejects_and_counts(self):
        cfg = ServeConfig(queue_depth=8, replay_only_depth=2, shed_depth=3,
                          bucket_capacity=100.0)
        service = SolverService(cfg)
        A = small_matrix()
        reasons = []
        for k in range(6):
            try:
                service.submit(make_request(A, seed=k, arrival_s=0.0))
            except AdmissionRejectedError as exc:
                reasons.append(exc.reason)
        assert reasons == ["shed_overload"] * 3
        assert service.metrics.counter("serve.shed_total") == 3

    def test_tier_transitions_emit_flight_events(self):
        cfg = ServeConfig(queue_depth=8, replay_only_depth=1, shed_depth=3,
                          bucket_capacity=100.0)
        service = SolverService(cfg)
        A = small_matrix()
        for k in range(5):
            try:
                service.submit(make_request(A, seed=k, arrival_s=0.0))
            except AdmissionRejectedError:
                pass
        events = [e for rec in service.flight.records
                  for e in rec["events"] if e["event"] == "serve.tier"]
        transitions = [(e["from"], e["to"]) for e in events]
        assert ("full", "replay_only") in transitions
        assert ("replay_only", "shed") in transitions
        assert service.metrics.counter("serve.tier.replay_only") >= 1
        assert service.metrics.counter("serve.tier.shed") >= 1


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------

class TestDeadlines:
    def test_admission_deadline_rejects_before_factorization(self):
        service = SolverService(ServeConfig())
        A = small_matrix()
        with pytest.raises(DeadlineExceededError) as exc_info:
            service.submit(make_request(A, deadline_s=1e-12))
        # rejected at admission: no recovery report, no numeric factor
        assert exc_info.value.report is None
        entry = service.cache.get(pattern_key(A))
        assert entry is not None
        assert entry.solver._numeric is None        # symbolic only
        assert service.metrics.counter("serve.deadline.admission") == 1
        # the queue never charged service time for it
        assert service.queue.busy_until_s == 0.0

    def test_mid_ladder_deadline_attaches_partial_report(self):
        from repro.resilience.faults import FaultPlan, FaultSpec

        service = SolverService(ServeConfig())
        A = small_matrix()
        # warm with many cheap replays so the observed p95 estimate is
        # the replay cost, not the cold full-factorization cost
        for k in range(30):
            service.submit(make_request(A, seed=k, arrival_s=10.0 * k))
        estimate = service.cache.get(pattern_key(A)).estimate_seconds()
        # passes admission (estimate < deadline) and survives the
        # pre-refactor check (one failed replay ~ estimate), but a failed
        # replay + a failed full refactor blows it before repivot.
        # "perturb" (not "nan") so each rung completes and its modeled
        # ledger accrues before the backward-error check rejects it.
        deadline = 1.5 * estimate
        plan = FaultPlan([
            FaultSpec(site="klu.refactor.values", kind="perturb",
                      occurrence=0),
            FaultSpec(site="gp.factor.values", kind="perturb", occurrence=0),
        ])
        with plan:
            with pytest.raises(DeadlineExceededError) as exc_info:
                service.submit(make_request(
                    A, seed=99, arrival_s=1e4, deadline_s=deadline))
        report = exc_info.value.report
        assert report is not None
        assert report.succeeded is None             # partial: no winner yet
        assert [a.rung for a in report.attempts] == ["replay", "refactor"]
        assert all(not a.ok for a in report.attempts)
        assert service.metrics.counter("serve.deadline.midflight") == 1

    def test_completion_past_deadline_is_typed(self):
        service = SolverService(ServeConfig())
        A = small_matrix()
        service.submit(make_request(A, seed=0, arrival_s=0.0))
        est = service.cache.get(pattern_key(A)).estimate_seconds()
        # passes admission (estimate is the cheap replay), but a queued
        # wait pushes completion past the deadline
        with pytest.raises(DeadlineExceededError):
            service.submit(make_request(
                A, seed=1, arrival_s=0.0, deadline_s=1.001 * est))


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------

class TestRetries:
    def test_policy_is_seeded_and_reproducible(self):
        a = RetryPolicy(max_retries=3, seed=5)
        b = RetryPolicy(max_retries=3, seed=5)
        assert [a.backoff_s(k) for k in range(3)] \
            == [b.backoff_s(k) for k in range(3)]
        c = RetryPolicy(max_retries=3, seed=6)
        assert [a.backoff_s(k) for k in range(3)] \
            != [c.backoff_s(k) for k in range(3)]

    def test_classification_is_type_driven(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(CacheInvalidatedError("x"), 0)
        assert not policy.should_retry(StructureError("x"), 0)
        assert not policy.should_retry(RecoveryExhaustedError("x"), 0)
        assert not policy.should_retry(CacheInvalidatedError("x"), 2)

    def test_cache_invalidation_is_retried_to_success(self):
        service = SolverService(ServeConfig(chaos_invalidate_every=1))
        A = small_matrix()
        resp = service.submit(make_request(A))
        assert resp.retries == 1
        berr = componentwise_backward_error(A, resp.x, make_request(A).b)
        assert berr <= 1e-10
        assert service.metrics.counter("serve.retries") == 1

    def test_structure_error_is_not_retried(self):
        service = SolverService(ServeConfig())
        A = small_matrix()
        req = make_request(A)
        req.b = np.ones(A.n_rows + 3)               # malformed RHS
        with pytest.raises(StructureError):
            service.submit(req)
        assert service.metrics.counter("serve.retries") == 0

    def test_exhausted_ladder_is_not_retried(self):
        service = SolverService(ServeConfig())
        with pytest.raises(RecoveryExhaustedError):
            service.submit(make_request(singular_matrix()))
        assert service.metrics.counter("serve.retries") == 0


# ----------------------------------------------------------------------
# shared pattern cache
# ----------------------------------------------------------------------

class TestPatternCache:
    def _factory(self, cost: float):
        def build():
            return object(), CostLedger(sparse_flops=cost)
        return build

    def test_pattern_key_is_values_blind(self):
        A = small_matrix(seed=0)
        B = CSC(A.n_rows, A.n_cols, A.indptr, A.indices, A.data * 3.0)
        C = small_matrix(seed=99, n=14)
        assert pattern_key(A) == pattern_key(B)
        assert pattern_key(A) != pattern_key(C)

    def test_hit_miss_eviction_counters(self):
        metrics = Metrics()
        cache = PatternCache(capacity=2, metrics=metrics)
        l1, hit1 = cache.borrow("k1", self._factory(1e9))
        cache.release(l1)
        l2, hit2 = cache.borrow("k1", self._factory(1e9))
        cache.release(l2)
        assert (hit1, hit2) == (False, True)
        assert metrics.counter("cache.hit") == 1
        assert metrics.counter("cache.miss") == 1

    def test_eviction_is_cost_aware_within_lru_window(self):
        cache = PatternCache(capacity=2, eviction_window=2)
        # k_cheap is older AND cheaper; k_costly older but expensive
        lc, _ = cache.borrow("k_costly", self._factory(1e12))
        cache.release(lc)
        lk, _ = cache.borrow("k_cheap", self._factory(1e3))
        cache.release(lk)
        ln, _ = cache.borrow("k_new", self._factory(1e6))
        cache.release(ln)
        # capacity 2: one eviction happened; the cheap rebuild lost
        assert cache.keys() == ["k_costly", "k_new"]
        assert cache.evictions == 1
        assert cache.metrics.counter("cache.evictions") == 1

    def test_borrow_evict_race_raises_typed_retryable(self):
        cache = PatternCache(capacity=4)
        lease, _ = cache.borrow("k1", self._factory(1.0))
        gen0 = lease.generation
        assert cache.invalidate("k1")
        with pytest.raises(CacheInvalidatedError) as exc_info:
            lease.check()
        assert exc_info.value.retryable
        assert exc_info.value.key == "k1"
        assert exc_info.value.generation == gen0 + 1

    def test_forced_eviction_under_full_lease_pressure(self):
        # every entry leased: the bound still holds, the LRU victim's
        # borrower fails typed at its next check
        cache = PatternCache(capacity=1, eviction_window=1)
        l1, _ = cache.borrow("k1", self._factory(1.0))  # never released
        l2, _ = cache.borrow("k2", self._factory(1.0))
        assert len(cache) == 1
        with pytest.raises(CacheInvalidatedError):
            l1.check()
        l2.check()                                   # the new lease is fine

    def test_klu_symbolic_generation_counter(self):
        from repro.solvers.klu import KLU

        A = small_matrix()
        sym = KLU().analyze(A)
        assert sym.generation == 0
        assert sym.invalidate() == 1
        assert sym.dense_plans is None
        assert sym.generation == 1


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------

class TestBreaker:
    def test_state_machine_trip_probe_reset(self):
        br = CircuitBreaker(config=BreakerConfig(trip_threshold=2,
                                                 cooldown_s=1.0))
        assert br.allows_shared(0.0)
        assert br.record_escalation(0.0) is None
        assert br.record_escalation(0.1) == "trip"
        assert br.state == "open"
        assert not br.allows_shared(0.5)             # cooling down
        assert br.allows_shared(1.2)                 # probe admitted
        assert br.state == "half_open"
        assert not br.allows_shared(1.2)             # only one probe
        assert br.record_success(1.3) == "reset"
        assert br.state == "closed" and br.resets == 1

    def test_probe_failure_reopens(self):
        br = CircuitBreaker(config=BreakerConfig(trip_threshold=1,
                                                 cooldown_s=1.0))
        assert br.record_escalation(0.0) == "trip"
        assert br.allows_shared(1.5)
        assert br.record_escalation(1.6) == "reopen"
        assert br.state == "open" and br.reopens == 1
        assert not br.allows_shared(2.0)             # cooldown restarted

    def test_service_trips_isolates_and_resets(self):
        cfg = ServeConfig(breaker_trip_threshold=2, breaker_cooldown_s=0.5,
                          bucket_capacity=100.0, bucket_refill_per_s=1e6)
        service = SolverService(cfg)
        bad = singular_matrix()
        key = pattern_key(bad)
        # consecutive exhausted ladders trip the breaker...
        for k in range(2):
            with pytest.raises(RecoveryExhaustedError):
                service.submit(make_request(bad, seed=k, arrival_s=k * 1.0))
        assert service.breaker_state(key)["state"] == "open"
        assert service.metrics.counter("serve.breaker.trip") == 1
        # ...inside the cooldown the pattern is served isolated
        # (breaker opened just after modeled t=1.0; cooldown is 0.5)
        with pytest.raises(RecoveryExhaustedError):
            service.submit(make_request(bad, seed=7, arrival_s=1.2))
        assert service.metrics.counter("serve.isolated") == 1
        # healthy values after the cooldown: the probe resets the breaker
        good = CSC(bad.n_rows, bad.n_cols, bad.indptr, bad.indices,
                   (np.eye(4) * 4.0 + np.ones((4, 4))).ravel().copy())
        resp = service.submit(make_request(good, seed=8, arrival_s=50.0))
        assert resp.path == "shared"
        assert service.breaker_state(key)["state"] == "closed"
        assert service.metrics.counter("serve.breaker.reset") == 1

    def test_breaker_open_in_degraded_tier_rejects_typed(self):
        cfg = ServeConfig(breaker_trip_threshold=1, breaker_cooldown_s=1e9,
                          queue_depth=8, replay_only_depth=1, shed_depth=8,
                          bucket_capacity=100.0, bucket_refill_per_s=1e6)
        service = SolverService(cfg)
        bad = singular_matrix()
        with pytest.raises(RecoveryExhaustedError):
            service.submit(make_request(bad, seed=0, arrival_s=0.0))
        assert service.breaker_state(pattern_key(bad))["state"] == "open"
        # park a healthy request so depth >= 1 -> replay_only tier
        A = small_matrix()
        service.submit(make_request(A, seed=1, arrival_s=0.0))
        with pytest.raises(CircuitOpenError) as exc_info:
            service.submit(make_request(bad, seed=2, arrival_s=0.0))
        assert exc_info.value.key == pattern_key(bad)

    def test_replay_only_tier_refuses_deep_rungs(self):
        cfg = ServeConfig(queue_depth=8, replay_only_depth=1, shed_depth=8,
                          bucket_capacity=100.0, bucket_refill_per_s=1e6)
        service = SolverService(cfg)
        A = small_matrix()
        service.submit(make_request(A, seed=0, arrival_s=0.0))  # depth -> 1
        with pytest.raises(AdmissionRejectedError) as exc_info:
            service.submit(make_request(singular_matrix(), arrival_s=0.0))
        assert exc_info.value.reason == "replay_only_escalation"


# ----------------------------------------------------------------------
# end-to-end: clients, soak determinism, thread safety
# ----------------------------------------------------------------------

class TestServiceEndToEnd:
    def test_client_solves_and_reuses_pattern(self):
        service = SolverService(ServeConfig())
        client = ServeClient(service, "acme")
        A = small_matrix()
        rng = np.random.default_rng(3)
        r1 = client.solve(A, rng.standard_normal(A.n_rows), arrival_s=0.0)
        r2 = client.solve(A, rng.standard_normal(A.n_rows), arrival_s=1.0)
        assert not r1.cache_hit and r2.cache_hit
        assert r2.succeeded_rung == "replay"
        assert r1.backward_error <= 1e-10 and r2.backward_error <= 1e-10
        snap = service.snapshot()
        assert snap["tenants"]["acme"]["accepted"] == 2
        assert snap["tenants"]["acme"]["modeled_seconds"] > 0.0

    def test_soak_is_byte_deterministic_and_invariant_clean(self):
        specs = [
            TenantSpec(name="transient", workload="xyce", n_requests=16,
                       mean_interarrival_s=2e-3),
            TenantSpec(name="sweep", workload="n1", n_requests=8,
                       mean_interarrival_s=1.5e-3, burst_every=4,
                       burst_len=3, deadline_s=0.5),
            TenantSpec(name="chaos", workload="poison", n_requests=8,
                       mean_interarrival_s=4e-3, poison_until=4),
        ]
        rep1 = run_soak(specs=specs, seed=11, n_faults=2)
        rep2 = run_soak(specs=specs, seed=11, n_faults=2)
        assert report_to_json(rep1) == report_to_json(rep2)
        assert rep1["ok"]
        assert rep1["invariants"]["untyped_escapes"] == []
        assert rep1["invariants"]["unverified_answers"] == []
        assert rep1["invariants"]["queue_bound_respected"]
        assert rep1["accepted"] + rep1["rejected"] == rep1["n_requests"]
        assert rep1["breaker_totals"]["trips"] >= 1
        # a different seed genuinely changes the traffic
        rep3 = run_soak(specs=specs, seed=12, n_faults=2)
        assert report_to_json(rep3) != report_to_json(rep1)

    def test_threaded_client_keeps_invariants(self):
        cfg = ServeConfig(queue_depth=6, replay_only_depth=4, shed_depth=5,
                          bucket_capacity=1000.0, bucket_refill_per_s=1e6,
                          chaos_invalidate_every=5)
        service = SolverService(cfg)
        mats = [small_matrix(seed=s, n=10 + s % 3) for s in range(4)]
        outcomes = []
        lock = threading.Lock()

        def worker(tenant, k):
            A = mats[k % len(mats)]
            b = np.random.default_rng(k).standard_normal(A.n_rows)
            try:
                resp = service.submit(SolveRequest(
                    tenant=tenant, A=A, b=b, arrival_s=0.001 * k))
                berr = componentwise_backward_error(A, resp.x, b)
                with lock:
                    outcomes.append(("ok", berr))
            except ReproError as exc:
                with lock:
                    outcomes.append(("typed", type(exc).__name__))
            except Exception as exc:  # noqa: BLE001 - the invariant under test
                with lock:
                    outcomes.append(("untyped", repr(exc)))

        service.register_tenant("threads")
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(worker, "threads", k) for k in range(24)]
            for f in futures:
                f.result()
        assert len(outcomes) == 24
        assert not [o for o in outcomes if o[0] == "untyped"]
        assert all(berr <= 1e-10 for kind, berr in outcomes if kind == "ok")
        assert service.queue.peak_depth <= cfg.queue_depth


# ----------------------------------------------------------------------
# metrics registry concurrency (satellite: Metrics.merge/observe races)
# ----------------------------------------------------------------------

class TestMetricsConcurrency:
    def test_concurrent_incr_observe_merge_lose_nothing(self):
        target = Metrics()
        n_threads, n_ops = 8, 500

        def hammer(tid):
            local = Metrics()
            for k in range(n_ops):
                target.incr("serve.hammer")
                target.observe("serve.obs", float(k))
                local.incr("local.count")
            target.merge(local)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.counter("serve.hammer") == n_threads * n_ops
        assert target.counter("local.count") == n_threads * n_ops
        snap = target.snapshot()
        assert snap["stats"]["serve.obs"]["count"] == n_threads * n_ops
        assert snap["stats"]["serve.obs"]["total"] == \
            n_threads * sum(range(n_ops))

    def test_flight_detector_scans_cache_evictions(self):
        from repro.obs.flight import detect_cache_hit_drop

        records = [
            {"step": 0, "deltas": {"cache.hit": 1}, "events": []},
            {"step": 1, "deltas": {"cache.hit": 2}, "events": []},
            {"step": 2, "deltas": {"cache.evictions": 1}, "events": []},
        ]
        anomalies = detect_cache_hit_drop(records)
        assert len(anomalies) == 1
        assert anomalies[0]["family"] == "cache"
        assert anomalies[0]["step"] == 2
