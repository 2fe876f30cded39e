"""Verification substrate: the pre/post-synthesis consistency check
(simulate, synthesize, re-simulate, compare)."""

from .consistency import (
    ConsistencyReport,
    check_bus_transactions,
    check_traces,
    compare_streams,
)

__all__ = [
    "ConsistencyReport",
    "check_bus_transactions",
    "check_traces",
    "compare_streams",
]
