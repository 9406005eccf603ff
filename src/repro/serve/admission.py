"""Admission control: bounded queue and per-tenant token buckets.

The service simulates a single-server FIFO queue in **modeled time**
(the same deterministic clock the rest of the package prices work in:
``MachineModel.seconds`` over exact :class:`CostLedger` operation
counts).  Requests execute eagerly in real Python, but their *latency*
is the modeled wait + modeled service time, so queueing behavior —
depth growth under overload, shed decisions, p99 latency — is
bit-reproducible across runs and machines.

Two admission gates run before any solver work starts:

* :class:`TokenBucket` — per-tenant rate limiting.  Buckets refill
  continuously in modeled time; an empty bucket rejects with reason
  ``tenant_rate``.  This keeps one chatty tenant from starving the
  rest even when the queue itself has room.
* :class:`ModeledQueue` — the bounded admission queue.  Queue depth at
  the request's arrival instant is the number of previously admitted
  requests not yet finished; depth at or beyond ``max_depth`` rejects
  with reason ``queue_full``.  The bound is *never* exceeded: the
  depth check happens before the request is enqueued.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Tuple

__all__ = ["TokenBucket", "ModeledQueue"]


@dataclass
class TokenBucket:
    """Continuous-refill token bucket over the modeled clock."""

    capacity: float = 8.0
    refill_per_s: float = 4.0     # tokens per modeled second
    tokens: float = None          # type: ignore[assignment]
    last_refill_s: float = 0.0
    taken: int = 0
    rejected: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0.0:
            raise ValueError("token bucket capacity must be > 0")
        if self.refill_per_s < 0.0:
            raise ValueError("token bucket refill rate must be >= 0")
        if self.tokens is None:
            self.tokens = self.capacity

    def _refill(self, now_s: float) -> None:
        if now_s > self.last_refill_s:
            self.tokens = min(
                self.capacity,
                self.tokens + (now_s - self.last_refill_s) * self.refill_per_s,
            )
            self.last_refill_s = now_s

    def try_take(self, now_s: float, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens at modeled instant ``now_s`` if available."""
        self._refill(now_s)
        if self.tokens + 1e-12 >= cost:   # absorb float refill rounding
            self.tokens -= cost
            self.taken += 1
            return True
        self.rejected += 1
        return False

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "refill_per_s": self.refill_per_s,
            "taken": self.taken,
            "rejected": self.rejected,
        }


@dataclass
class ModeledQueue:
    """Single-server FIFO queue simulated on the modeled clock.

    ``admit`` checks the depth bound at the arrival instant;
    ``start_service`` converts an admitted request's arrival time into
    its service start (arrival, or when the server frees — whichever
    is later) and advances ``busy_until`` once the modeled service
    duration is known.
    """

    max_depth: int = 16
    busy_until_s: float = 0.0
    _completions: Deque[float] = field(default_factory=deque)
    admitted: int = 0
    rejected: int = 0
    peak_depth: int = 0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("queue max_depth must be >= 1")

    def depth_at(self, now_s: float) -> int:
        """Queue depth (admitted, unfinished requests) at ``now_s``."""
        while self._completions and self._completions[0] <= now_s:
            self._completions.popleft()
        return len(self._completions)

    def admit(self, now_s: float) -> Tuple[bool, int]:
        """Try to admit an arrival at ``now_s``; returns (ok, depth)."""
        depth = self.depth_at(now_s)
        if depth >= self.max_depth:
            self.rejected += 1
            return False, depth
        self.admitted += 1
        return True, depth

    def start_service(self, arrival_s: float) -> float:
        """Service start instant for a request that arrived at ``arrival_s``."""
        return max(arrival_s, self.busy_until_s)

    def finish_service(self, start_s: float, service_s: float) -> float:
        """Record a service of ``service_s`` modeled seconds; returns
        the completion instant."""
        if service_s < 0.0:
            raise ValueError("service time must be >= 0")
        finish = start_s + service_s
        self.busy_until_s = finish
        self._completions.append(finish)
        depth = len(self._completions)
        if depth > self.peak_depth:
            self.peak_depth = depth
        return finish

    def to_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "peak_depth": self.peak_depth,
        }
