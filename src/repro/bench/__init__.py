"""Benchmark harness: cached runners, performance profiles, reporting.

Also home of the *wall-clock* microbenchmarks (:mod:`.wallclock`) —
the only package allowed to read real clocks (lint rule R1 bans them
from the kernel packages).
"""

from .perfprofile import geometric_mean, performance_profile
from .report import ascii_series, emit, format_table
from .wallclock import check_regression, run_wallclock
from .runner import (
    basker_numeric,
    basker_seconds,
    klu_numeric,
    klu_seconds,
    matrix,
    pmkl_numeric,
    pmkl_seconds,
    slumt_numeric,
    slumt_seconds,
)

__all__ = [
    "performance_profile",
    "geometric_mean",
    "format_table",
    "ascii_series",
    "emit",
    "matrix",
    "basker_numeric",
    "klu_numeric",
    "pmkl_numeric",
    "slumt_numeric",
    "basker_seconds",
    "klu_seconds",
    "pmkl_seconds",
    "slumt_seconds",
    "run_wallclock",
    "check_regression",
]
