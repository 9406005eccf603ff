"""In-process client for :class:`~repro.serve.service.SolverService`.

:class:`ServeClient` is direct, synchronous and bit-deterministic: this
is what the traffic simulator and the CI soak drive.  The service's
internal locking (admission, queue, cache, breakers, metrics) keeps
every invariant intact when clients submit from several threads; the
modeled *ordering* then follows thread interleaving, so results are
correct and typed but not byte-reproducible.

The client re-raises the service's typed errors unchanged — a caller
sees exactly :class:`~repro.errors.AdmissionRejectedError`,
:class:`~repro.errors.DeadlineExceededError`,
:class:`~repro.errors.CircuitOpenError`, or the final solve failure.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sparse.csc import CSC
from .service import SolveRequest, SolveResponse, SolverService

__all__ = ["ServeClient"]


class ServeClient:
    """Synchronous in-process client (the deterministic path)."""

    def __init__(self, service: SolverService, tenant: str):
        self.service = service
        self.tenant = tenant
        service.register_tenant(tenant)

    def solve(
        self,
        A: CSC,
        b: np.ndarray,
        arrival_s: float = 0.0,
        deadline_s: Optional[float] = None,
        label: str = "",
    ) -> SolveResponse:
        """Solve ``A x = b``; raises the service's typed errors."""
        return self.service.submit(SolveRequest(
            tenant=self.tenant, A=A, b=b, arrival_s=arrival_s,
            deadline_s=deadline_s, label=label))
