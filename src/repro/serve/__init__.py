"""repro.serve: a fault-tolerant, multi-tenant solve service.

The serving layer wraps the package's resilient direct solvers in an
explicit robustness envelope — bounded admission with per-tenant rate
limits, modeled-clock deadlines, seeded retries, a shared pattern-keyed
solver cache with lease/generation safety, per-pattern circuit
breaking, and tiered degradation under overload.  See ``docs/API.md``
("Serving and overload behavior") for the state machines and
``repro serve`` for the CLI soak harness.
"""

from .admission import ModeledQueue, TokenBucket
from .breaker import BreakerConfig, CircuitBreaker
from .cache import CacheEntry, Lease, PatternCache, pattern_key
from .client import ServeClient
from .policy import RetryPolicy, estimate_request_seconds
from .service import (
    REJECT_REASONS,
    TIERS,
    ServeConfig,
    SolveRequest,
    SolveResponse,
    SolverService,
)
from .sim import TenantSpec, build_traffic, default_tenants, run_soak

__all__ = [
    "ModeledQueue",
    "TokenBucket",
    "BreakerConfig",
    "CircuitBreaker",
    "CacheEntry",
    "Lease",
    "PatternCache",
    "pattern_key",
    "ServeClient",
    "RetryPolicy",
    "estimate_request_seconds",
    "REJECT_REASONS",
    "TIERS",
    "ServeConfig",
    "SolveRequest",
    "SolveResponse",
    "SolverService",
    "TenantSpec",
    "build_traffic",
    "default_tenants",
    "run_soak",
]
