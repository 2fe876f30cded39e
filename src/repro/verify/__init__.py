"""Verification substrate: consistency checking, scoreboards, coverage,
runtime invariant checkers."""

from .checkers import InvariantChecker, OneHotChecker
from .consistency import (
    ConsistencyReport,
    check_bus_transactions,
    check_traces,
    compare_streams,
)
from .coverage import CoverageCollector, CoverPoint, ProbeCoverage
from .scoreboard import Scoreboard, check_memory_image

__all__ = [
    "ConsistencyReport",
    "CoverPoint",
    "CoverageCollector",
    "InvariantChecker",
    "OneHotChecker",
    "ProbeCoverage",
    "Scoreboard",
    "check_bus_transactions",
    "check_memory_image",
    "check_traces",
    "compare_streams",
]
