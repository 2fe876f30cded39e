"""A small VCD parser.

Reads the dialect :class:`~repro.trace.vcd.VcdTracer` writes (a strict
subset of IEEE-1364 VCD), producing per-signal change histories. Used by
the round-trip tests and handy for diffing dumps from two runs without a
waveform viewer.
"""

from __future__ import annotations

import typing

from ..errors import SimulationError


class VcdSignal:
    """One declared variable."""

    def __init__(self, name: str, width: int, scope: str) -> None:
        self.name = name
        self.width = width
        self.scope = scope
        #: (time, value-string) pairs; vectors as MSB-first bit strings.
        self.changes: list[tuple[int, str]] = []

    @property
    def full_name(self) -> str:
        return f"{self.scope}.{self.name}" if self.scope else self.name

    def value_at(self, time: int) -> str:
        """Last committed value at *time* (raises before the first change)."""
        result: str | None = None
        for stamp, value in self.changes:
            if stamp > time:
                break
            result = value
        if result is None:
            raise SimulationError(
                f"{self.full_name}: no value recorded at or before {time}"
            )
        return result


class VcdDump:
    """A parsed dump: metadata + signals keyed by full name."""

    def __init__(self) -> None:
        self.timescale = ""
        self.signals: dict[str, VcdSignal] = {}
        self._by_id: dict[str, VcdSignal] = {}
        self.end_time = 0

    def signal(self, full_name: str) -> VcdSignal:
        try:
            return self.signals[full_name]
        except KeyError:
            raise SimulationError(
                f"no signal {full_name!r} in dump; have "
                f"{sorted(self.signals)[:10]}"
            ) from None


def parse_vcd(text: str) -> VcdDump:
    """Parse VCD *text* into a :class:`VcdDump`.

    :raises SimulationError: on malformed input.
    """
    dump = VcdDump()
    tokens = text.split()
    index = 0
    scope_stack: list[str] = []
    current_time = 0
    in_header = True

    def take_until_end(start: int) -> tuple[list[str], int]:
        words = []
        i = start
        while i < len(tokens) and tokens[i] != "$end":
            words.append(tokens[i])
            i += 1
        if i >= len(tokens):
            raise SimulationError("unterminated $ directive in VCD")
        return words, i + 1

    while index < len(tokens):
        token = tokens[index]
        if token in ("$date", "$version", "$comment"):
            __, index = take_until_end(index + 1)
        elif token == "$timescale":
            words, index = take_until_end(index + 1)
            dump.timescale = " ".join(words)
        elif token == "$scope":
            words, index = take_until_end(index + 1)
            if len(words) != 2:
                raise SimulationError(f"bad $scope: {words}")
            scope_stack.append(words[1])
        elif token == "$upscope":
            __, index = take_until_end(index + 1)
            if not scope_stack:
                raise SimulationError("$upscope without open scope")
            scope_stack.pop()
        elif token == "$var":
            words, index = take_until_end(index + 1)
            if len(words) < 4:
                raise SimulationError(f"bad $var: {words}")
            __, width_text, identifier, name = words[0], words[1], words[2], words[3]
            try:
                width = int(width_text)
            except ValueError:
                raise SimulationError(f"bad $var width: {width_text!r}") from None
            signal = VcdSignal(name, width, ".".join(scope_stack))
            dump._by_id[identifier] = signal
            dump.signals[signal.full_name] = signal
        elif token == "$enddefinitions":
            __, index = take_until_end(index + 1)
            in_header = False
        elif token in ("$dumpvars", "$end"):
            index += 1
        elif token.startswith("#"):
            try:
                current_time = int(token[1:])
            except ValueError:
                raise SimulationError(f"bad timestamp {token!r}") from None
            dump.end_time = max(dump.end_time, current_time)
            index += 1
        elif token[0] in "01xXzZ" and len(token) > 1 and not in_header:
            # Scalar change: value char glued to the identifier.
            identifier = token[1:]
            _record(dump, identifier, token[0].lower().replace("x", "X")
                    .replace("z", "Z").replace("X", "X"), current_time)
            index += 1
        elif token[0] in ("b", "B") and not in_header:
            value = token[1:].upper()
            index += 1
            if index >= len(tokens):
                raise SimulationError("vector change missing identifier")
            _record(dump, tokens[index], value, current_time)
            index += 1
        elif token[0] in ("s", "S", "r", "R") and not in_header:
            value = token[1:]
            index += 1
            if index >= len(tokens):
                raise SimulationError("string/real change missing identifier")
            _record(dump, tokens[index], value, current_time)
            index += 1
        else:
            raise SimulationError(f"unexpected VCD token {token!r}")
    return dump


def _record(dump: VcdDump, identifier: str, value: str, time: int) -> None:
    try:
        signal = dump._by_id[identifier]
    except KeyError:
        raise SimulationError(f"change for undeclared identifier {identifier!r}") from None
    # Normalise scalar chars to upper-case X/Z, digits as-is.
    if len(value) == 1 and value in "xz":
        value = value.upper()
    signal.changes.append((time, value))


def diff_dumps(
    dump_a: VcdDump,
    dump_b: VcdDump,
    names: typing.Sequence[str] | None = None,
) -> list[str]:
    """Compare value sequences of two parsed dumps (time-abstracted)."""
    if names is None:
        names = sorted(set(dump_a.signals) & set(dump_b.signals))
    problems = []
    for name in names:
        seq_a = [v for __, v in dump_a.signal(name).changes]
        seq_b = [v for __, v in dump_b.signal(name).changes]
        if seq_a != seq_b:
            problems.append(
                f"{name}: {len(seq_a)} vs {len(seq_b)} changes or differing values"
            )
    return problems
