"""Metrics registry: named counters, gauges and value observations.

The registry is the quantitative side of :mod:`repro.obs`: spans say
*where* a run spent its modeled time, counters/gauges say *what
happened* — fill-in, off-diagonal pivot swaps, BTF block counts,
schedule-cache hits/misses, :class:`~repro.errors.SingularMatrixError`
fallbacks, level widths.

Everything is deterministic: values come from the algorithms, never
from clocks, and :meth:`Metrics.snapshot` emits keys in sorted order so
two identical runs serialize identically.

Instrumentation sites reach the registry through the active tracer
(``get_tracer().metrics``); with tracing disabled that resolves to
:data:`NULL_METRICS`, whose methods are no-ops, so disabled runs pay
only an attribute lookup and a call.

Thread safety: every mutating operation (``incr``, ``set_gauge``,
``observe``, ``merge``) and every consistent read (``snapshot``) holds
the registry's internal lock, so a registry shared by the threads that
drive one solve service (:mod:`repro.serve.service` allows several)
never loses an update or folds a half-written stat.  ``merge`` locks only *this* registry and reads
shallow copies of ``other``'s tables — the source registry must be
quiescent (or single-writer) during a merge, which every call site
satisfies because merges fold per-step registries that have finished
their step.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["Metrics", "NullMetrics", "NULL_METRICS"]


class Metrics:
    """Deterministic, lock-protected counter/gauge/observation store."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.stats: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def incr(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of ``name`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the running count/total/min/max/sum_sq of
        ``name`` (distribution summaries, e.g. schedule level widths)."""
        with self._lock:
            st = self.stats.get(name)
            if st is None:
                self.stats[name] = {
                    "count": 1, "total": value, "min": value, "max": value,
                    "sum_sq": value * value,
                }
            else:
                st["count"] += 1
                st["total"] += value
                st["sum_sq"] += value * value
                if value < st["min"]:
                    st["min"] = value
                if value > st["max"]:
                    st["max"] = value

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold another registry into this one (counters add, gauges
        last-write-wins from ``other``, stats combine exactly) — used to
        aggregate per-step registries across a sequence.

        ``other`` must be quiescent (single-writer contract): its tables
        are shallow-copied before folding so a torn iteration cannot
        occur, but values written to ``other`` during the merge may or
        may not be included.
        """
        counters = dict(other.counters)
        gauges = dict(other.gauges)
        stats = {k: dict(st) for k, st in other.stats.items()}
        with self._lock:
            for k, v in counters.items():
                self.counters[k] = self.counters.get(k, 0) + v
            self.gauges.update(gauges)
            for k, st in stats.items():
                mine = self.stats.get(k)
                if mine is None:
                    self.stats[k] = dict(st)
                else:
                    mine["count"] += st["count"]
                    mine["total"] += st["total"]
                    mine["sum_sq"] += st["sum_sq"]
                    if st["min"] < mine["min"]:
                        mine["min"] = st["min"]
                    if st["max"] > mine["max"]:
                        mine["max"] = st["max"]
        return self

    # ------------------------------------------------------------------
    @staticmethod
    def _stat_summary(st: Dict[str, float]) -> Dict[str, float]:
        """Derived mean/stddev folded into a stat dict, fixed key order."""
        n = st["count"]
        mean = st["total"] / n
        var = st["sum_sq"] / n - mean * mean
        stddev = var ** 0.5 if var > 0.0 else 0.0
        return {
            "count": st["count"], "total": st["total"],
            "min": st["min"], "max": st["max"], "sum_sq": st["sum_sq"],
            "mean": mean, "stddev": stddev,
        }

    def snapshot(self) -> dict:
        """JSON-ready copy with deterministically sorted keys."""
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            stats = {k: dict(st) for k, st in self.stats.items()}
        return {
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "stats": {k: self._stat_summary(stats[k]) for k in sorted(stats)},
        }


class NullMetrics:
    """No-op registry installed while tracing is disabled."""

    enabled = False

    def incr(self, name: str, amount: float = 1) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge(self, other) -> "NullMetrics":
        return self

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "stats": {}}


NULL_METRICS = NullMetrics()
