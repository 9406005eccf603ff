"""Experiment runner: cached factorizations + machine timings.

Numeric factorization is machine-independent (the ledgers count
operations; pricing happens at schedule time), so one factorization per
(matrix, solver, thread-count) serves every machine model and sync
mode.  The caches below let the per-figure benches share work within a
pytest session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core import Basker
from ..matrices import get_matrix
from ..parallel.machine import MachineModel, SANDY_BRIDGE, XEON_PHI
from ..solvers import KLU, SolverFailure, SupernodalLU, slu_mt
from ..sparse.csc import CSC

__all__ = [
    "matrix",
    "basker_numeric",
    "klu_numeric",
    "pmkl_numeric",
    "slumt_numeric",
    "basker_seconds",
    "klu_seconds",
    "pmkl_seconds",
    "slumt_seconds",
]

_matrices: Dict[str, CSC] = {}
_basker: Dict[Tuple[str, int], object] = {}
_klu: Dict[str, object] = {}
_pmkl: Dict[str, object] = {}
_slumt: Dict[str, object] = {}


def matrix(name: str) -> CSC:
    if name not in _matrices:
        _matrices[name] = get_matrix(name)
    return _matrices[name]


# ----------------------------------------------------------------------
# Factorizations (cached)
# ----------------------------------------------------------------------


def basker_numeric(name: str, p: int):
    key = (name, p)
    if key not in _basker:
        solver = Basker(n_threads=p)
        _basker[key] = solver.factor(matrix(name))
    return _basker[key]


def klu_numeric(name: str):
    if name not in _klu:
        _klu[name] = KLU().factor(matrix(name))
    return _klu[name]


def pmkl_numeric(name: str):
    if name not in _pmkl:
        _pmkl[name] = SupernodalLU().factor(matrix(name))
    return _pmkl[name]


def slumt_numeric(name: str):
    """SLU-MT numeric, or None when the solver fails on the matrix."""
    if name not in _slumt:
        try:
            _slumt[name] = slu_mt().factor(matrix(name))
        except (SolverFailure, Exception) as exc:  # noqa: BLE001 - record failure
            if not isinstance(exc, SolverFailure):
                raise
            _slumt[name] = None
    return _slumt[name]


# ----------------------------------------------------------------------
# Timings
# ----------------------------------------------------------------------


def basker_seconds(
    name: str, p: int, machine: MachineModel = SANDY_BRIDGE, sync_mode: str = "p2p"
) -> float:
    return basker_numeric(name, p).schedule(machine, n_threads=p, sync_mode=sync_mode).makespan


def klu_seconds(name: str, machine: MachineModel = SANDY_BRIDGE) -> float:
    return klu_numeric(name).factor_seconds(machine)


def pmkl_seconds(name: str, p: int, machine: MachineModel = SANDY_BRIDGE) -> float:
    return pmkl_numeric(name).factor_seconds(machine, n_threads=p)


def slumt_seconds(name: str, p: int, machine: MachineModel = SANDY_BRIDGE) -> float:
    num = slumt_numeric(name)
    if num is None:
        return math.inf
    return num.factor_seconds(machine, n_threads=p)
