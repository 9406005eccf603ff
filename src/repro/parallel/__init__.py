"""Parallel-execution substrate: cost ledgers, machine models, scheduler."""

from .ledger import CostLedger
from .machine import MachineModel, SANDY_BRIDGE, XEON_PHI
from .sim import Schedule, SimTask, simulate

__all__ = [
    "CostLedger",
    "MachineModel",
    "SANDY_BRIDGE",
    "XEON_PHI",
    "SimTask",
    "Schedule",
    "simulate",
]
