"""Shared pattern-keyed solver cache with leases and cost-aware eviction.

Circuit and power-grid workloads are dominated by *pattern reuse*: a
transient stamps the same sparsity pattern thousands of times, an N-1
sweep solves hundreds of values-only variants of one grid.  The serving
layer therefore shares one symbolic analysis + numeric factorization
per pattern across all tenants, keyed by a content hash of the pattern
(:func:`pattern_key`).

Safety under sharing comes from three mechanisms:

* **Leases with generation counters.**  ``borrow`` hands out a
  :class:`Lease` that captures the entry's generation at borrow time.
  Any eviction or explicit invalidation bumps the generation, so a
  borrower touching a stale lease gets a typed, *retryable*
  :class:`~repro.errors.CacheInvalidatedError` instead of silently
  computing against freed state.
* **LRU + cost-aware eviction.**  When the cache is full, the evictor
  looks at the ``eviction_window`` least-recently-used unleased entries
  and drops the one that is *cheapest to rebuild* (modeled seconds of
  its recorded build ledger) — evicting a 2-second factorization to
  keep a 2-millisecond one is never worth it.  Ties break on the key,
  so eviction order is fully deterministic.
* **A single lock.**  All map mutations happen under one
  ``threading.RLock``; entries themselves are immutable-after-build
  apart from counters.  The in-process simulator never contends; callers
  that drive one service from several threads, as
  :mod:`repro.serve.service` allows, do.

Counters (on the injected :class:`~repro.obs.metrics.Metrics`):
``cache.hit`` / ``cache.miss`` / ``cache.evictions`` /
``cache.invalidate`` — the same family the flight recorder's
cache-hit-drop detector scans.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..contracts import effects, shapes
from ..errors import CacheInvalidatedError
from ..obs.hist import StreamingHistogram
from ..obs.metrics import Metrics
from ..parallel.ledger import CostLedger
from ..parallel.machine import MachineModel, SANDY_BRIDGE
from ..sparse.csc import CSC

__all__ = ["pattern_key", "CacheEntry", "Lease", "PatternCache"]


@effects(pure=True)
@shapes(A="csc[r,c]", returns="any")
def pattern_key(A: CSC) -> str:
    """Content hash of a matrix *pattern* (shape + indptr + indices).

    Values are deliberately excluded: a transient step or an N-1
    variant with identical structure must map to the same cache entry
    so the values-only replay path can run.
    """
    h = hashlib.sha256()
    h.update(f"{A.n_rows}x{A.n_cols}".encode())
    h.update(A.indptr.tobytes())
    h.update(A.indices.tobytes())
    return h.hexdigest()[:16]


@dataclass
class CacheEntry:
    """One pattern's shared solver state plus its accounting.

    ``solver`` is a :class:`~repro.interface.DirectSolver` carrying the
    symbolic analysis and the most recent verified numeric
    factorization for this pattern, so the next request's recovery
    ladder starts at the cheap values-only replay rung.
    """

    key: str
    solver: object
    build_ledger: CostLedger = field(default_factory=CostLedger)
    generation: int = 0
    valid: bool = True
    leases: int = 0
    hits: int = 0
    last_used: int = 0            # monotonic use tick (LRU ordering)
    observed_s: StreamingHistogram = field(default_factory=StreamingHistogram)

    def rebuild_seconds(self, machine: MachineModel) -> float:
        """Modeled cost of rebuilding this entry from scratch."""
        return machine.seconds(self.build_ledger)

    def estimate_seconds(self) -> Optional[float]:
        """Pessimistic per-request service estimate from history.

        Returns the p95 of observed modeled service times, or None
        before the first completion (admission then falls back to
        pricing the symbolic analysis ledger).
        """
        if self.observed_s.count == 0:
            return None
        return self.observed_s.quantile(0.95)

    def invalidate(self) -> int:
        """Bump the generation and drop derived solver caches.

        Live leases captured before this call now fail their
        :meth:`Lease.check` with a retryable
        :class:`~repro.errors.CacheInvalidatedError`.
        """
        self.generation += 1
        self.valid = False
        sym = getattr(self.solver, "_symbolic", None)
        if sym is not None and hasattr(sym, "invalidate"):
            sym.invalidate()
        num = getattr(self.solver, "_numeric", None)
        if num is not None and hasattr(num, "invalidate_caches"):
            num.invalidate_caches()
        return self.generation


@dataclass
class Lease:
    """A borrow handle: entry + the generation captured at borrow time."""

    entry: CacheEntry
    generation: int
    released: bool = False

    def check(self) -> None:
        """Raise if the entry was evicted/invalidated under this lease."""
        if not self.entry.valid or self.entry.generation != self.generation:
            raise CacheInvalidatedError(
                f"cache entry {self.entry.key} invalidated under a live "
                f"lease (borrowed generation {self.generation}, now "
                f"{self.entry.generation})",
                key=self.entry.key,
                generation=self.entry.generation,
            )


class PatternCache:
    """Concurrency-safe shared cache of per-pattern solver state."""

    def __init__(
        self,
        capacity: int = 8,
        machine: MachineModel = SANDY_BRIDGE,
        metrics: Optional[Metrics] = None,
        eviction_window: int = 4,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if eviction_window < 1:
            raise ValueError("eviction_window must be >= 1")
        self.capacity = capacity
        self.machine = machine
        self.metrics = metrics if metrics is not None else Metrics()
        self.eviction_window = eviction_window
        self._entries: Dict[str, CacheEntry] = {}
        self._lock = threading.RLock()
        self._tick = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self):
        with self._lock:
            return sorted(self._entries)

    def get(self, key: str) -> Optional[CacheEntry]:
        with self._lock:
            return self._entries.get(key)

    # ------------------------------------------------------------------
    def borrow(
        self,
        key: str,
        factory: Callable[[], Tuple[object, CostLedger]],
    ) -> Tuple[Lease, bool]:
        """Borrow the entry for ``key``, building it on a miss.

        ``factory() -> (solver, build_ledger)`` runs *outside* the lock
        on a miss (symbolic analysis is the expensive part), then the
        built entry is inserted — first writer wins if two threads race
        the same miss, and the loser borrows the winner's entry.

        Returns ``(lease, hit)``.  Call :meth:`release` when done.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.valid:
                self._tick += 1
                entry.last_used = self._tick
                entry.hits += 1
                entry.leases += 1
                self.metrics.incr("cache.hit")
                return Lease(entry=entry, generation=entry.generation), True
            self.metrics.incr("cache.miss")

        solver, build_ledger = factory()

        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not entry.valid:
                if len(self._entries) >= self.capacity:
                    self._evict_one_locked()
                entry = CacheEntry(key=key, solver=solver,
                                   build_ledger=build_ledger.copy())
                self._entries[key] = entry
            self._tick += 1
            entry.last_used = self._tick
            entry.leases += 1
            return Lease(entry=entry, generation=entry.generation), False

    def release(self, lease: Lease, service_seconds: Optional[float] = None) -> None:
        """Return a lease; optionally record the observed service time."""
        with self._lock:
            if lease.released:
                return
            lease.released = True
            lease.entry.leases = max(0, lease.entry.leases - 1)
            if (service_seconds is not None and lease.entry.valid
                    and lease.entry.generation == lease.generation):
                lease.entry.observed_s.observe(float(service_seconds))

    # ------------------------------------------------------------------
    def _evict_one_locked(self) -> Optional[str]:
        """Evict one entry: cheapest-to-rebuild among the LRU window.

        Unleased entries are preferred; when every entry is leased the
        LRU-most leased entry is invalidated anyway (its borrowers get
        a retryable :class:`~repro.errors.CacheInvalidatedError` at the
        next lease check) so the cache bound is never exceeded.
        """
        if not self._entries:
            return None
        pool = [e for e in self._entries.values() if e.leases == 0]
        forced = not pool
        if forced:
            pool = list(self._entries.values())
        pool.sort(key=lambda e: (e.last_used, e.key))
        window = pool[: self.eviction_window]
        victim = min(
            window,
            key=lambda e: (e.rebuild_seconds(self.machine), e.key),
        )
        victim.invalidate()
        del self._entries[victim.key]
        self.evictions += 1
        self.metrics.incr("cache.evictions")
        if forced:
            self.metrics.incr("cache.evictions.forced")
        return victim.key

    def invalidate(self, key: str) -> bool:
        """Explicitly invalidate (and remove) ``key``.

        Live leases observe the generation bump and raise the typed
        retryable error at their next :meth:`Lease.check`.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            entry.invalidate()
            self.invalidations += 1
            self.metrics.incr("cache.invalidate")
            return True

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic JSON-ready summary."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "entries": {
                    k: {
                        "generation": e.generation,
                        "hits": e.hits,
                        "leases": e.leases,
                        "observed_count": e.observed_s.count,
                    }
                    for k, e in sorted(self._entries.items())
                },
            }
