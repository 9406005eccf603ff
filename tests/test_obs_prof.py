"""Tests for the continuous profiling layer: histograms, flight
recorder + drift detectors, MachineModel calibration, and the
``run_profile`` harness."""

import json
import math
import random

import numpy as np
import pytest

from repro.obs import (
    FlightRecorder,
    Metrics,
    ProfilingTracer,
    StreamingHistogram,
    Tracer,
    detect_cache_hit_drop,
    detect_pivot_growth_trend,
    detect_recovery_events,
    detect_step_cost_spike,
    fit_machine_model,
    run_profile,
    scan_anomalies,
    top_spans,
    tracing,
)
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import SANDY_BRIDGE


# ----------------------------------------------------------------------
# streaming histograms


def test_histogram_basic_moments():
    h = StreamingHistogram()
    h.observe_many([1.0, 2.0, 4.0])
    assert h.count == 3
    assert h.total == 7.0
    assert h.min == 1.0 and h.max == 4.0
    assert h.mean() == pytest.approx(7.0 / 3.0)
    assert h.stddev() == pytest.approx(
        math.sqrt(21.0 / 3.0 - (7.0 / 3.0) ** 2))


def test_histogram_rejects_bad_values():
    h = StreamingHistogram()
    with pytest.raises(ValueError):
        h.observe(-1.0)
    with pytest.raises(ValueError):
        h.observe(float("nan"))
    with pytest.raises(ValueError):
        h.quantile(1.5)
    with pytest.raises(ValueError):
        StreamingHistogram(growth=1.0)
    with pytest.raises(ValueError):
        StreamingHistogram(min_value=0.0)


def test_histogram_empty_quantiles_none():
    h = StreamingHistogram()
    assert h.quantile(0.5) is None
    assert h.mean() is None
    assert h.stddev() is None
    snap = h.snapshot()
    assert snap["count"] == 0 and snap["p99"] is None


def test_histogram_bucket_index_boundaries():
    h = StreamingHistogram()
    # Exact zero and sub-min values land in the underflow bucket.
    assert h.bucket_index(0.0) == -1
    assert h.bucket_index(h.min_value) == -1
    # The bucket invariant holds across many magnitudes despite float
    # rounding in the log.
    for exp in range(-11, 3):
        for frac in (1.0, 1.37, 2.71, 9.9):
            v = frac * 10.0 ** exp
            idx = h.bucket_index(v)
            lo, hi = h.bucket_bounds(idx)
            assert lo <= v < hi


def test_histogram_insertion_order_invariant():
    rng = random.Random(20)
    values = [rng.expovariate(1000.0) for _ in range(500)]
    orders = [
        list(values),
        sorted(values),
        sorted(values, reverse=True),
    ]
    shuffled = list(values)
    random.Random(7).shuffle(shuffled)
    orders.append(shuffled)

    hists = []
    for order in orders:
        h = StreamingHistogram()
        h.observe_many(order)
        hists.append(h)
    ref = hists[0]
    for h in hists[1:]:
        # Buckets and every percentile are bit-identical regardless of
        # insertion order (exact float totals may differ in the last
        # ulp, which is why percentiles are bucket- not sum-derived).
        assert h.counts == ref.counts
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert h.quantile(q) == ref.quantile(q)
        assert h.min == ref.min and h.max == ref.max
        assert h.count == ref.count


def test_histogram_merge_matches_single_stream():
    rng = random.Random(3)
    values = [rng.expovariate(100.0) for _ in range(200)]
    whole = StreamingHistogram()
    whole.observe_many(values)
    a = StreamingHistogram()
    b = StreamingHistogram()
    a.observe_many(values[:77])
    b.observe_many(values[77:])
    a.merge(b)
    assert a.counts == whole.counts
    assert a.count == whole.count
    assert a.min == whole.min and a.max == whole.max
    for q in (0.5, 0.95, 0.99):
        assert a.quantile(q) == whole.quantile(q)


def test_histogram_merge_rejects_different_family():
    a = StreamingHistogram()
    b = StreamingHistogram(growth=2.0)
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_json_round_trip():
    h = StreamingHistogram()
    h.observe_many([0.0, 1e-9, 3.4e-6, 0.25, 7.0])
    back = StreamingHistogram.from_dict(json.loads(json.dumps(h.to_dict())))
    assert back.counts == h.counts
    assert back.count == h.count
    assert back.total == h.total
    assert back.sum_sq == h.sum_sq
    assert back.to_dict() == h.to_dict()


def test_histogram_quantiles_within_observed_range():
    h = StreamingHistogram()
    h.observe_many([5e-4, 2e-3])
    for q in (0.0, 0.5, 0.99, 1.0):
        v = h.quantile(q)
        assert h.min <= v <= h.max


# ----------------------------------------------------------------------
# metrics: variance + merge


def test_metrics_observe_tracks_sum_sq():
    m = Metrics()
    for v in (2.0, 3.0, 7.0):
        m.observe("w", v)
    st = m.snapshot()["stats"]["w"]
    assert st["sum_sq"] == pytest.approx(4.0 + 9.0 + 49.0)
    assert st["mean"] == pytest.approx(4.0)
    assert st["stddev"] == pytest.approx(math.sqrt(62.0 / 3.0 - 16.0))


def test_metrics_merge():
    a = Metrics()
    b = Metrics()
    a.incr("hits", 2)
    b.incr("hits", 3)
    b.incr("misses")
    a.set_gauge("g", 1.0)
    b.set_gauge("g", 5.0)
    a.observe("w", 1.0)
    a.observe("w", 3.0)
    b.observe("w", 9.0)
    b.observe("v", 4.0)
    a.merge(b)
    snap = a.snapshot()
    assert snap["counters"] == {"hits": 5, "misses": 1}
    assert snap["gauges"] == {"g": 5.0}
    w = snap["stats"]["w"]
    assert w["count"] == 3 and w["total"] == 13.0
    assert w["min"] == 1.0 and w["max"] == 9.0
    assert w["sum_sq"] == pytest.approx(1.0 + 9.0 + 81.0)
    assert snap["stats"]["v"]["count"] == 1


# ----------------------------------------------------------------------
# MachineModel.calibrated


def test_machine_model_calibrated():
    m = SANDY_BRIDGE.calibrated(t_sparse_flop=1e-9, t_column=2e-8)
    assert m.t_sparse_flop == 1e-9
    assert m.t_column == 2e-8
    assert m.t_dense_flop == SANDY_BRIDGE.t_dense_flop
    assert m.name == SANDY_BRIDGE.name + "+calibrated"
    named = SANDY_BRIDGE.calibrated(name="lab", t_mem_word=1e-10)
    assert named.name == "lab"


def test_machine_model_calibrated_rejects_bad_input():
    with pytest.raises(ValueError):
        SANDY_BRIDGE.calibrated(n_cores=4)          # not a cost coefficient
    with pytest.raises(ValueError):
        SANDY_BRIDGE.calibrated(t_column=-1.0)      # negative
    with pytest.raises(ValueError):
        SANDY_BRIDGE.calibrated(t_column=float("nan"))


# ----------------------------------------------------------------------
# flight recorder


def _mk_metrics(counters=None, gauges=None):
    m = Metrics()
    for k, v in (counters or {}).items():
        m.incr(k, v)
    for k, v in (gauges or {}).items():
        m.set_gauge(k, v)
    return m


def test_flight_recorder_ring_and_deltas():
    rec = FlightRecorder(capacity=3)
    m = Metrics()
    for k in range(5):
        m.incr("schedule.tri.hit")
        rec.record_step(step=k, modeled_s=1.0, metrics=m)
    assert len(rec) == 3
    assert rec.total_steps == 5
    assert rec.dropped == 2
    assert [r["step"] for r in rec.records] == [2, 3, 4]
    # Deltas are per-step, not cumulative.
    assert all(r["deltas"] == {"schedule.tri.hit": 1} for r in rec.records)


def test_flight_recorder_capacity_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_flight_jsonl_round_trip(tmp_path):
    rec = FlightRecorder(capacity=4)
    m = _mk_metrics(gauges={"gp.pivot_growth": 2.5})
    rec.record_step(step=0, modeled_s=0.5, wall_s=0.01,
                    phases={"numeric.gp": 0.4}, metrics=m)
    m.incr("schedule.tri.miss", 3)
    rec.record_step(step=1, modeled_s=0.6,
                    events=[{"succeeded": "refactor"}], metrics=m)
    back = FlightRecorder.from_jsonl(rec.to_jsonl())
    assert back.records == rec.records
    assert back.capacity == rec.capacity
    assert back.total_steps == rec.total_steps
    assert back.dropped == rec.dropped

    path = tmp_path / "flight.jsonl"
    rec.dump(str(path))
    assert FlightRecorder.load(str(path)).records == rec.records


def test_flight_jsonl_rejects_garbage():
    with pytest.raises(ValueError):
        FlightRecorder.from_jsonl("")
    with pytest.raises(ValueError):
        FlightRecorder.from_jsonl('{"type": "flight_step", "step": 0}\n')
    with pytest.raises(ValueError):
        FlightRecorder.from_jsonl('{"type": "nonsense"}\n')


def _steps(costs, **extra):
    return [{"step": i, "modeled_s": c, "gauges": {}, "deltas": {},
             "events": [], **extra} for i, c in enumerate(costs)]


def test_detect_step_cost_spike():
    clean = _steps([1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0])
    assert detect_step_cost_spike(clean) == []
    spiky = _steps([1.0, 1.1, 0.9, 1.0, 1.05, 9.0, 1.0])
    events = detect_step_cost_spike(spiky)
    assert len(events) == 1
    ev = events[0]
    assert ev["event"] == "obs.anomaly.step_cost_spike"
    assert ev["step"] == 5
    assert ev["ratio"] > 3.0
    # Needs min_history priors: an early spike can't fire.
    early = _steps([9.0, 1.0, 1.0, 1.0])
    assert detect_step_cost_spike(early) == []


def test_detect_cache_hit_drop():
    records = _steps([1.0] * 6)
    # Warmup misses, settle into hits, then regress at step 4.
    records[0]["deltas"] = {"schedule.tri.miss": 2}
    records[1]["deltas"] = {"schedule.tri.hit": 2}
    records[2]["deltas"] = {"schedule.tri.hit": 2}
    records[3]["deltas"] = {"schedule.tri.hit": 2}
    records[4]["deltas"] = {"schedule.tri.miss": 2}
    records[5]["deltas"] = {"schedule.tri.hit": 2}
    events = detect_cache_hit_drop(records)
    assert [e["step"] for e in events] == [4]
    assert events[0]["family"] == "schedule.tri"
    # A cold family that never hits (full-factor loop) stays silent.
    cold = _steps([1.0] * 6)
    for r in cold:
        r["deltas"] = {"other.cache.miss": 1}
    assert detect_cache_hit_drop(cold) == []


def test_detect_pivot_growth():
    records = _steps([1.0] * 8)
    for r in records:
        r["gauges"] = {"gp.pivot_growth": 3.0}
    assert detect_pivot_growth_trend(records) == []
    records[6]["gauges"] = {"gp.pivot_growth": 1e7}      # over the ceiling
    records[7]["gauges"] = {"gp.pivot_growth": 500.0}    # 100x the median
    events = detect_pivot_growth_trend(records)
    assert [(e["step"], e["reason"]) for e in events] == [
        (6, "ceiling"), (7, "trend")]


def test_detect_recovery_events_and_scan_order():
    records = _steps([1.0] * 5)
    records[3]["events"] = [{"succeeded": "repivot", "ok": True}]
    events = detect_recovery_events(records)
    assert events == [{
        "event": "obs.anomaly.recovery", "step": 3,
        "count": 1, "rungs": ["repivot"],
    }]
    # scan_anomalies output is ordered by (step, event).
    records[4]["modeled_s"] = 50.0
    allev = scan_anomalies(records)
    assert [(e["step"], e["event"]) for e in allev] == sorted(
        (e["step"], e["event"]) for e in allev)


# ----------------------------------------------------------------------
# calibration


def test_calibration_recovers_known_coefficients():
    target = SANDY_BRIDGE.calibrated(
        t_sparse_flop=2.5e-9, t_dfs_step=8e-9, t_mem_word=3e-10,
        t_column=5e-8, t_dense_flop=1.25e-9)
    rng = np.random.default_rng(11)
    samples = []
    for k in range(40):
        led = CostLedger(
            sparse_flops=int(rng.integers(100, 100000)),
            dense_flops=int(rng.integers(100, 50000)),
            dfs_steps=int(rng.integers(10, 5000)),
            mem_words=int(rng.integers(1000, 200000)),
            columns=int(rng.integers(1, 500)),
        )
        samples.append((f"kind{k % 3}", led, target.seconds(led)))
    result = fit_machine_model(samples, base=SANDY_BRIDGE)
    assert result.n_samples == 40
    assert result.r2 == pytest.approx(1.0, abs=1e-9)
    assert result.coefficients["t_sparse_flop"] == pytest.approx(2.5e-9)
    assert result.coefficients["t_dfs_step"] == pytest.approx(8e-9)
    assert result.coefficients["t_mem_word"] == pytest.approx(3e-10)
    assert result.coefficients["t_column"] == pytest.approx(5e-8)
    assert result.coefficients["t_dense_flop"] == pytest.approx(1.25e-9)
    # Walls match the model exactly, so nothing diverges > 2x.
    assert result.flagged == []
    doc = result.to_dict()
    assert doc["fitted"] == sorted(doc["fitted"], key=doc["fitted"].index)
    assert set(doc["residuals"]) == {"kind0", "kind1", "kind2"}


def test_calibration_keeps_unidentifiable_fields():
    # No sample exercises dense flops -> t_dense_flop stays at base.
    samples = []
    for n in (100, 200, 400):
        led = CostLedger(sparse_flops=n * 10, columns=n)
        wall = 1e-9 * led.sparse_flops + 1e-8 * led.columns
        samples.append(("sp", led, wall))
    result = fit_machine_model(samples, base=SANDY_BRIDGE)
    assert "t_dense_flop" not in result.fitted
    assert result.coefficients["t_dense_flop"] == SANDY_BRIDGE.t_dense_flop


def test_calibration_flags_divergent_span_kind():
    good = CostLedger(sparse_flops=10000)
    bad = CostLedger(sparse_flops=100)   # under-counted kernel: slow walls
    samples = [("good", good, 1e-9 * 10000) for _ in range(10)]
    samples += [("bad", bad, 1e-9 * 10000) for _ in range(2)]
    result = fit_machine_model(samples, base=SANDY_BRIDGE)
    assert "bad" in result.flagged
    assert "good" not in result.flagged
    assert result.residuals["bad"]["ratio_fitted"] < 0.5


def test_calibration_requires_usable_samples():
    with pytest.raises(ValueError):
        fit_machine_model([], base=SANDY_BRIDGE)
    with pytest.raises(ValueError):
        fit_machine_model(
            [("x", CostLedger(), 1.0), ("y", CostLedger(columns=5), 0.0)],
            base=SANDY_BRIDGE)


# ----------------------------------------------------------------------
# ProfilingTracer + top_spans


def test_profiling_tracer_harvest():
    tr = ProfilingTracer(machine=SANDY_BRIDGE)
    with tracing(tr):
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                inner.attach(CostLedger(columns=10))
            # Open ancestor blocks the harvest cursor: nothing folded yet.
            assert tr.harvest() == 0
            outer.attach(CostLedger(sparse_flops=100))
        assert tr.harvest() == 2
        assert tr.harvest() == 0
    assert set(tr.modeled_hist) == {"outer", "inner"}
    assert tr.modeled_hist["outer"].count == 1
    # No wall clock -> no wall histograms, no calibration samples.
    assert tr.wall_hist == {}
    assert tr.samples == []


def test_profiling_tracer_wall_samples():
    ticks = iter([0.0, 1.0])
    tr = ProfilingTracer(machine=SANDY_BRIDGE, wall_clock=lambda: next(ticks))
    with tracing(tr):
        with tr.span("phase") as sp:
            sp.attach(CostLedger(columns=7))
        tr.harvest()
    assert tr.wall_hist["phase"].count == 1
    assert tr.samples == [("phase", CostLedger(columns=7), 1.0)]


def test_profile_snapshot_wall_null_not_zero():
    """A span that captured no wall time reports wall None, not 0.0."""
    ticks = iter([0.0, 1.0])
    tr = ProfilingTracer(machine=SANDY_BRIDGE, wall_clock=lambda: next(ticks))
    with tracing(tr):
        with tr.span("timed") as sp:
            sp.attach(CostLedger(columns=3))
            # A leaf span opened without ``with`` is legal but never
            # captures wall time.
            tr.span("ledger_only_leaf").attach(CostLedger(sparse_flops=50))
        tr.harvest()
    snap = tr.profile_snapshot()
    assert snap["timed"]["wall"]["count"] == 1
    leaf = snap["ledger_only_leaf"]
    assert leaf["wall"] is None            # null, not 0.0
    assert leaf["modeled"]["count"] == 1   # the modeled view still covers it


def test_top_spans():
    tr = Tracer()
    with tracing(tr):
        with tr.span("root") as root:
            with tr.span("hot") as a:
                a.attach(CostLedger(sparse_flops=1000))
            with tr.span("cold") as b:
                b.attach(CostLedger(sparse_flops=10))
            root.attach_overhead(CostLedger(columns=1))
    rows = top_spans(tr, SANDY_BRIDGE, n=2)
    assert [r["name"] for r in rows] == ["root", "hot"]
    assert rows[0]["pct_of_root"] == pytest.approx(100.0)
    assert 0.0 < rows[1]["pct_of_root"] < 100.0
    with pytest.raises(ValueError):
        top_spans(tr, SANDY_BRIDGE, n=0)


# ----------------------------------------------------------------------
# run_profile: clean vs faulted, deterministic


def _profile(**kw):
    from repro.xyce.circuits import rc_ladder
    return run_profile(steps=8, circuit=rc_ladder(25), **kw)


def test_run_profile_clean_is_quiet_and_deterministic():
    doc1 = _profile()
    doc2 = _profile()
    assert doc1["anomalies"] == []
    assert doc1["fault"] is None
    assert doc1["steps"] == 8
    assert len(doc1["flight"]["records"]) == 8
    assert "profile.step" in doc1["phases"]
    assert doc1["phases"]["profile.step"]["modeled"]["count"] == 8
    # Without a wall clock the whole report is bit-deterministic.
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    assert doc1["samples"] == []   # no wall clock -> no calibration samples


def test_run_profile_faulted_fires_anomalies():
    doc = _profile(fault_seed=123)
    assert doc["fault"]["seed"] == 123
    assert doc["fault"]["fired"] >= 1
    assert len(doc["anomalies"]) >= 1
    kinds = {e["event"] for e in doc["anomalies"]}
    assert kinds & {"obs.anomaly.recovery", "obs.anomaly.cache_hit_drop",
                    "obs.anomaly.step_cost_spike"}
    # Faulted runs are just as deterministic as clean ones.
    doc2 = _profile(fault_seed=123)
    assert json.dumps(doc, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_run_profile_wall_clock_enables_calibration():
    import time

    doc = _profile(wall_clock=time.perf_counter, calibrate=True)
    assert doc["anomalies"] == []    # wall times never gate anomalies
    cal = doc["calibration"]
    assert cal is not None
    assert cal["n_samples"] > 0
    assert cal["base_model"] == SANDY_BRIDGE.name
    wall = doc["phases"]["profile.step"]["wall"]
    assert wall is not None and wall["count"] == 8


# ----------------------------------------------------------------------
# transient flight integration


def test_run_transient_records_flight():
    from repro.xyce.circuits import rc_ladder
    from repro.xyce.transient import run_transient

    flight = FlightRecorder(capacity=64)
    run_transient(rc_ladder(10), t_end=1e-4, dt=1e-5, flight=flight)
    assert len(flight) > 0
    recs = flight.records
    assert all(r["modeled_s"] is not None and r["modeled_s"] > 0.0
               for r in recs)
    assert [r["step"] for r in recs] == list(range(len(recs)))
    assert flight.scan() == []   # clean transient: no anomalies
