"""Value-change-dump (VCD) writing.

A :class:`VcdTracer` is attached to a :class:`~repro.kernel.simulator.
Simulator` with ``sim.add_tracer(tracer)`` and receives every committed
value change of the signals it was told to watch. The output is standard
IEEE-1364 VCD, loadable in GTKWave — the reproduction of the paper's
Figure 4 artifact.
"""

from __future__ import annotations

import io
import typing

from ..errors import SimulationError
from ..hdl.bitvector import LogicVector
from ..hdl.logic import Logic
from ..hdl.resolved import ResolvedSignal
from ..hdl.signal import Signal

#: VCD identifier alphabet (printable ASCII, as the standard allows).
_ID_CHARS = "".join(chr(c) for c in range(33, 127))

Traceable = typing.Union[Signal, ResolvedSignal]


def _make_identifier(index: int) -> str:
    chars = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


class VcdTracer:
    """Streams signal changes to a VCD file (or any text stream).

    :param path_or_stream: output file path or an open text stream.
    :param timescale: VCD timescale directive (default ``1 fs`` — the
        kernel's native resolution).
    """

    def __init__(
        self,
        path_or_stream: "str | io.TextIOBase",
        timescale: str = "1 fs",
    ) -> None:
        if isinstance(path_or_stream, str):
            self._stream: typing.TextIO = open(path_or_stream, "w", encoding="ascii")
            self._owns_stream = True
        else:
            self._stream = typing.cast(typing.TextIO, path_or_stream)
            self._owns_stream = False
        self._timescale = timescale
        self._signals: dict[int, tuple[Traceable, str]] = {}
        self._initial_values: dict[int, object] = {}
        self._header_written = False
        self._last_time: int | None = None
        self._closed = False

    # -- registration ---------------------------------------------------------

    def add_signal(self, signal: Traceable) -> None:
        """Watch *signal*; must be called before the simulation runs."""
        if self._header_written:
            raise SimulationError("cannot add signals after the VCD header is out")
        if id(signal) not in self._signals:
            identifier = _make_identifier(len(self._signals))
            self._signals[id(signal)] = (signal, identifier)
            # Snapshot now: by header-writing time the first change may
            # already have committed, and $dumpvars must show time zero.
            self._initial_values[id(signal)] = signal.read()

    def add_signals(self, signals: typing.Iterable[Traceable]) -> None:
        for signal in signals:
            self.add_signal(signal)

    # -- header ----------------------------------------------------------------

    def _write_header(self) -> None:
        write = self._stream.write
        write("$date\n    repro library VCD dump\n$end\n")
        write("$version\n    repro 1.0\n$end\n")
        write(f"$timescale {self._timescale} $end\n")
        # Group variables by hierarchical scope.
        tree: dict[str, list[tuple[str, Traceable, str]]] = {}
        for signal, identifier in self._signals.values():
            scope, __, leaf = signal.name.rpartition(".")
            tree.setdefault(scope, []).append((leaf, signal, identifier))
        for scope in sorted(tree):
            for part in scope.split(".") if scope else []:
                write(f"$scope module {part} $end\n")
            for leaf, signal, identifier in sorted(tree[scope]):
                width = _vcd_width(signal)
                write(f"$var wire {width} {identifier} {leaf} $end\n")
            for __ in scope.split(".") if scope else []:
                write("$upscope $end\n")
        write("$enddefinitions $end\n")
        write("$dumpvars\n")
        for key, (signal, identifier) in self._signals.items():
            write(_format_change(self._initial_values[key], identifier))
        write("$end\n")
        self._header_written = True
        self._last_time = 0

    # -- tracer protocol -----------------------------------------------------------

    def record_change(self, time: int, signal: Traceable, value: object) -> None:
        """Called by the simulator on every committed change."""
        entry = self._signals.get(id(signal))
        if entry is None or self._closed:
            return
        if not self._header_written:
            self._write_header()
        if time != self._last_time:
            self._stream.write(f"#{time}\n")
            self._last_time = time
        self._stream.write(_format_change(value, entry[1]))

    def close(self, final_time: int | None = None) -> None:
        """Finish the dump (writes the header even if nothing changed)."""
        if self._closed:
            return
        if not self._header_written:
            self._write_header()
        if final_time is not None and final_time != self._last_time:
            self._stream.write(f"#{final_time}\n")
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
        self._closed = True


def _vcd_width(signal: Traceable) -> int:
    if signal.width is not None:
        return signal.width
    value = signal.read()
    if isinstance(value, (bool, Logic)):
        return 1
    return 64


def _format_change(value: object, identifier: str) -> str:
    if isinstance(value, LogicVector):
        if value.width == 1:
            return f"{_scalar_char(value.bit(0))}{identifier}\n"
        return f"b{str(value).lower()} {identifier}\n"
    if isinstance(value, Logic):
        return f"{_scalar_char(value)}{identifier}\n"
    if isinstance(value, bool):
        return f"{'1' if value else '0'}{identifier}\n"
    if isinstance(value, int):
        return f"b{bin(value & (2**64 - 1))[2:]} {identifier}\n"
    # Fall back to a real-number or string-ish encoding for Python objects.
    text = repr(value).replace(" ", "_")[:64]
    return f"s{text} {identifier}\n"


def _scalar_char(value: Logic) -> str:
    return value.char.lower() if value.char in ("X", "Z") else value.char
