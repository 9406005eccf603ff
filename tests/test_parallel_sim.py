"""Tests for the parallel substrate: ledgers, machine models, scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, TaskGraphError
from repro.parallel import (
    CostLedger,
    MachineModel,
    SANDY_BRIDGE,
    XEON_PHI,
    SimTask,
    simulate,
)


def _led(sparse=0.0, dense=0.0, cols=0.0):
    return CostLedger(sparse_flops=sparse, dense_flops=dense, columns=cols)


class TestCostLedger:
    def test_add_accumulates_all_fields(self):
        a = CostLedger(1, 2, 3, 4, 5)
        b = CostLedger(10, 20, 30, 40, 50)
        a.add(b)
        assert (a.sparse_flops, a.dense_flops, a.dfs_steps, a.mem_words, a.columns) == (
            11, 22, 33, 44, 55,
        )

    def test_scaled_and_copy_do_not_alias(self):
        a = CostLedger(sparse_flops=4.0)
        s = a.scaled(0.5)
        c = a.copy()
        s.sparse_flops += 100
        c.sparse_flops += 100
        assert a.sparse_flops == 4.0
        assert s.sparse_flops == 102.0

    def test_total_and_empty(self):
        assert CostLedger().is_empty()
        assert CostLedger(sparse_flops=1, dense_flops=2).total_flops == 3

    def test_is_empty_any_field(self):
        for f in ("sparse_flops", "dense_flops", "dfs_steps", "mem_words", "columns"):
            assert not CostLedger(**{f: 0.5}).is_empty()

    def test_iadd_is_add(self):
        a = CostLedger(sparse_flops=1.0)
        b = a
        a += CostLedger(sparse_flops=2.0, columns=3.0)
        assert a is b  # in-place, same object
        assert (a.sparse_flops, a.columns) == (3.0, 3.0)

    def test_add_rejects_non_ledger(self):
        with pytest.raises(TypeError, match="CostLedger"):
            CostLedger().add(3.0)
        with pytest.raises(TypeError):
            led = CostLedger()
            led += {"sparse_flops": 1.0}

    def test_scaled_rejects_negative_and_nan(self):
        led = CostLedger(sparse_flops=1.0)
        with pytest.raises(ValueError, match=">= 0"):
            led.scaled(-0.25)
        with pytest.raises(ValueError):
            led.scaled(float("nan"))
        assert led.scaled(0.0).is_empty()


class TestMachineModel:
    def test_sparse_flops_cost_more_than_dense(self):
        led_sparse = _led(sparse=1e6)
        led_dense = _led(dense=1e6)
        for m in (SANDY_BRIDGE, XEON_PHI):
            assert m.seconds(led_sparse) > 3 * m.seconds(led_dense)

    def test_phi_slower_per_core(self):
        led = _led(sparse=1e6)
        assert XEON_PHI.seconds(led) > 5 * SANDY_BRIDGE.seconds(led)

    def test_cache_factor_monotone(self):
        for m in (SANDY_BRIDGE, XEON_PHI):
            f_small = m.cache_factor(10_000)
            f_mid = m.cache_factor(4 * m.l2_bytes)
            f_big = m.cache_factor(64 * m.l2_bytes)
            assert f_small == 1.0
            assert 1.0 < f_mid <= f_big

    def test_phi_pays_more_past_l2(self):
        """No shared L3: the same L2 overflow factor hurts more on Phi."""
        ws = 4 * 512 * 1024
        assert XEON_PHI.cache_factor(ws) > SANDY_BRIDGE.cache_factor(ws)

    def test_thread_validation(self):
        with pytest.raises(ValueError):
            SANDY_BRIDGE.validate_threads(17)
        with pytest.raises(ValueError):
            XEON_PHI.validate_threads(0)


class TestSimulate:
    def test_serial_chain_sums(self):
        tasks = [
            SimTask(tid=0, ledger=_led(sparse=1e6)),
            SimTask(tid=1, ledger=_led(sparse=1e6), deps=[0]),
            SimTask(tid=2, ledger=_led(sparse=1e6), deps=[1]),
        ]
        s = simulate(tasks, SANDY_BRIDGE, 4)
        expected = 3 * SANDY_BRIDGE.seconds(_led(sparse=1e6))
        assert s.makespan == pytest.approx(expected)

    def test_independent_tasks_parallelize(self):
        tasks = [SimTask(tid=i, ledger=_led(sparse=1e6)) for i in range(8)]
        t1 = simulate(tasks, SANDY_BRIDGE, 1).makespan
        t8 = simulate(tasks, SANDY_BRIDGE, 8).makespan
        assert t1 / t8 == pytest.approx(8.0, rel=1e-9)

    def test_pinned_tasks_respect_threads(self):
        tasks = [
            SimTask(tid=0, ledger=_led(sparse=1e6), thread=2),
            SimTask(tid=1, ledger=_led(sparse=1e6), thread=2),
        ]
        s = simulate(tasks, SANDY_BRIDGE, 4)
        assert s.thread_of[0] == s.thread_of[1] == 2
        # Same thread: serialized even with 4 cores.
        assert s.makespan == pytest.approx(2 * SANDY_BRIDGE.seconds(_led(sparse=1e6)))

    def test_dependency_respected_across_threads(self):
        tasks = [
            SimTask(tid=0, ledger=_led(sparse=2e6), thread=0),
            SimTask(tid=1, ledger=_led(sparse=1e6), thread=1, deps=[0]),
        ]
        s = simulate(tasks, SANDY_BRIDGE, 2)
        assert s.start[1] >= s.end[0]

    def test_ready_time_uses_slowest_dep(self):
        tasks = [
            SimTask(tid=0, ledger=_led(sparse=1e6), thread=0),
            SimTask(tid=1, ledger=_led(sparse=5e6), thread=1),
            SimTask(tid=2, ledger=_led(sparse=1e5), thread=2, deps=[0, 1]),
        ]
        s = simulate(tasks, SANDY_BRIDGE, 4)
        assert s.start[2] >= s.end[1]

    def test_barrier_mode_prices_syncs_higher(self):
        tasks = [SimTask(tid=0, ledger=_led(sparse=1e5), p2p_syncs=100)]
        sp = simulate(tasks, SANDY_BRIDGE, 8, sync_mode="p2p")
        sb = simulate(tasks, SANDY_BRIDGE, 8, sync_mode="barrier")
        assert sb.sync_seconds > sp.sync_seconds

    def test_cycle_detected(self):
        tasks = [
            SimTask(tid=0, ledger=_led(sparse=1.0), deps=[1]),
            SimTask(tid=1, ledger=_led(sparse=1.0), deps=[0]),
        ]
        with pytest.raises(ValueError):
            simulate(tasks, SANDY_BRIDGE, 2)

    def test_cycle_raises_taskgrapherror_naming_stuck_tasks(self):
        tasks = [
            SimTask(tid=7, ledger=_led(sparse=1.0), deps=[8]),
            SimTask(tid=8, ledger=_led(sparse=1.0), deps=[7]),
        ]
        with pytest.raises(TaskGraphError, match="cycle") as exc:
            simulate(tasks, SANDY_BRIDGE, 2)
        assert isinstance(exc.value, ReproError)
        assert "7" in str(exc.value) or "8" in str(exc.value)

    def test_duplicate_ids_rejected(self):
        tasks = [SimTask(tid=0, ledger=_led()), SimTask(tid=0, ledger=_led())]
        with pytest.raises(TaskGraphError, match="duplicate"):
            simulate(tasks, SANDY_BRIDGE, 2)

    def test_unknown_dep_rejected(self):
        tasks = [SimTask(tid=0, ledger=_led(), deps=[99], label="orphan")]
        with pytest.raises(TaskGraphError, match="orphan") as exc:
            simulate(tasks, SANDY_BRIDGE, 2)
        assert "99" in str(exc.value)
        # TaskGraphError stays catchable as ValueError for old callers.
        assert isinstance(exc.value, ValueError)

    def test_bad_sync_mode(self):
        with pytest.raises(ValueError):
            simulate([], SANDY_BRIDGE, 2, sync_mode="magic")

    def test_gantt_output(self):
        tasks = [SimTask(tid=0, ledger=_led(sparse=1e5), label="work")]
        s = simulate(tasks, SANDY_BRIDGE, 1)
        assert "t  0" in s.gantt({0: "work"})

    def test_gantt_orders_by_start_and_defaults_labels(self):
        tasks = [
            SimTask(tid=5, ledger=_led(sparse=2e6), thread=0),
            SimTask(tid=3, ledger=_led(sparse=1e6), thread=0, deps=[5]),
        ]
        s = simulate(tasks, SANDY_BRIDGE, 2)
        lines = s.gantt().splitlines()
        # 2 task lines + separator + 2 per-thread util lines + summary.
        assert len(lines) == 6
        assert lines[0].endswith(" 5") and lines[1].endswith(" 3")
        assert s.gantt({5: "first"}).splitlines()[0].endswith(" first")

    def test_gantt_golden(self):
        tasks = [
            SimTask(tid=0, ledger=_led(sparse=1e6), thread=0, label="a"),
            SimTask(tid=1, ledger=_led(sparse=1e6), thread=1, deps=[0], label="b"),
        ]
        s = simulate(tasks, SANDY_BRIDGE, 2)
        golden = "\n".join([
            f"t  0 [{0.0:>13.6e} .. {s.end[0]:>13.6e}] dur {s.end[0]:>13.6e} a",
            f"t  1 [{s.start[1]:>13.6e} .. {s.end[1]:>13.6e}] dur {s.end[1] - s.start[1]:>13.6e} b",
            "-" * 60,
            f"t  0 busy {s.busy[0]:>13.6e} s  util {100 * s.busy[0] / s.makespan:>6.1f}%",
            f"t  1 busy {s.busy[1]:>13.6e} s  util {100 * s.busy[1] / s.makespan:>6.1f}%",
            f"makespan {s.makespan:>13.6e} s  sync {100 * s.sync_fraction:>6.1f}%  "
            f"efficiency {100 * s.parallel_efficiency:>6.1f}%",
        ])
        assert s.gantt({0: "a", 1: "b"}) == golden
        # Fixed-width columns: every task line aligns regardless of
        # magnitude differences in the timestamps.
        widths = {len(l) for l in s.gantt().splitlines()[:2]}
        assert len(widths) == 1

    def test_empty_schedule_trace_and_gantt(self):
        s = simulate([], SANDY_BRIDGE, 4)
        assert s.makespan == 0.0
        assert s.gantt() == ""
        trace = s.to_chrome_trace()
        assert trace["traceEvents"] == []

    def test_chrome_trace_events(self):
        tasks = [
            SimTask(tid=0, ledger=_led(sparse=1e6), thread=1, label="a"),
            SimTask(tid=1, ledger=_led(sparse=1e6), thread=0, deps=[0], label="b"),
        ]
        s = simulate(tasks, SANDY_BRIDGE, 2)
        trace = s.to_chrome_trace({0: "a", 1: "b"})
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == ["a", "b"]
        for e in events:
            assert e["ph"] == "X"
            tid = e["args"]["task_id"]
            assert e["ts"] == pytest.approx(s.start[tid] * 1e6)
            assert e["dur"] == pytest.approx((s.end[tid] - s.start[tid]) * 1e6)
            assert e["tid"] == s.thread_of[tid]
        # Serializable as-is.
        import json

        json.dumps(trace)

    def test_chrome_trace_flow_and_metadata_events(self):
        tasks = [
            SimTask(tid=0, ledger=_led(sparse=1e6), thread=1, label="a"),
            SimTask(tid=1, ledger=_led(sparse=1e6), thread=0, deps=[0], label="b"),
        ]
        s = simulate(tasks, SANDY_BRIDGE, 2)
        events = s.to_chrome_trace({0: "a", 1: "b"}, tasks=tasks)["traceEvents"]
        # Old shape stays a subset: the X events come first, unchanged.
        assert [e["name"] for e in events[:2]] == ["a", "b"]
        meta = [e for e in events if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["sim thread 0", "sim thread 1"]
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(ends) == 1
        (fs,), (fe,) = starts, ends
        assert fs["id"] == fe["id"]
        assert fs["tid"] == s.thread_of[0] and fe["tid"] == s.thread_of[1]
        assert fs["ts"] == pytest.approx(s.end[0] * 1e6)
        assert fe["ts"] == pytest.approx(s.start[1] * 1e6)
        assert fe["bp"] == "e"
        import json

        json.dumps(events)

    def test_efficiency_bounds(self):
        tasks = [SimTask(tid=i, ledger=_led(sparse=1e6)) for i in range(3)]
        s = simulate(tasks, SANDY_BRIDGE, 4)
        assert 0.0 < s.parallel_efficiency <= 1.0


@settings(max_examples=25, deadline=None)
@given(
    n_tasks=st.integers(1, 12),
    p=st.integers(1, 8),
    seed=st.integers(0, 999),
)
def test_property_makespan_bounds(n_tasks, p, seed):
    """Makespan is between critical-path and total-work bounds."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        deps = [int(d) for d in rng.choice(i, size=min(i, 2), replace=False)] if i else []
        tasks.append(SimTask(tid=i, ledger=_led(sparse=float(rng.integers(1, 100)) * 1e4), deps=deps))
    s = simulate(tasks, SANDY_BRIDGE, p)
    total = sum(SANDY_BRIDGE.seconds(t.ledger) for t in tasks)
    assert s.makespan <= total + 1e-15
    assert s.makespan >= total / p - 1e-15
