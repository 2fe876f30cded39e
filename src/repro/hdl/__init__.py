"""Hardware modeling layer: logic values, signals, modules, clocks."""

from .bitvector import LogicVector, resolve_vectors
from .clock import Clock
from .logic import L0, L1, LX, LZ, Logic, resolve
from .module import Module
from .resolved import BusDriver, ResolvedSignal
from .signal import Signal

__all__ = [
    "BusDriver",
    "Clock",
    "L0",
    "L1",
    "LX",
    "LZ",
    "Logic",
    "LogicVector",
    "Module",
    "ResolvedSignal",
    "Signal",
    "resolve",
    "resolve_vectors",
]
