"""Tracing: VCD dumping, waveform capture/rendering, transaction spans."""

from .ascii_art import render
from .attribution import AttributionReport, TransactionAttribution, attribute
from .capture import WaveformCapture
from .correlate import SpanDiff, SpanDiffEntry, correlate
from .spans import CriticalPath, Span, SpanTracer, critical_path
from .vcd import VcdTracer
from .vcd_reader import VcdDump, VcdSignal, parse_vcd

__all__ = [
    "AttributionReport",
    "CriticalPath",
    "Span",
    "SpanDiff",
    "SpanDiffEntry",
    "SpanTracer",
    "TransactionAttribution",
    "VcdDump",
    "VcdSignal",
    "VcdTracer",
    "WaveformCapture",
    "attribute",
    "correlate",
    "critical_path",
    "parse_vcd",
    "render",
]
