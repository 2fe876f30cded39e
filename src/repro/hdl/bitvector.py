"""Fixed-width four-valued bit vectors.

:class:`LogicVector` is the workhorse datatype for buses (PCI AD lines,
command codes, addresses). It is immutable and stores the value as three
bit masks — ``ones``, ``x`` and ``z`` — so comparison and bus resolution
are integer operations rather than per-bit loops.

Bit 0 is the least-significant bit. String literals are written
MSB-first, as in waveforms: ``LogicVector(4, "10ZX")`` has bit 3 = '1'
and bit 0 = 'X'.
"""

from __future__ import annotations

import typing

from ..errors import LogicValueError, WidthError
from .logic import L0, L1, LX, LZ, Logic


class LogicVector:
    """An immutable fixed-width vector of four-valued logic.

    :attr:`is_fully_defined` (no X or Z bit) is set at construction.
    """

    __slots__ = ("_width", "_ones", "_x", "_z", "is_fully_defined")

    def __init__(
        self,
        width: int,
        value: "int | str | Logic | LogicVector | None" = 0,
    ) -> None:
        if width <= 0:
            raise WidthError(f"vector width must be positive, got {width}")
        self._width = width
        mask = (1 << width) - 1
        if type(value) is int:
            # Keep a value that fits as it is: masking makes a new int,
            # and every record read off the wire would hold that copy.
            self._ones = value if 0 <= value <= mask else value & mask
            self._x = self._z = 0
            self.is_fully_defined = True
            return
        if value is None:
            # All-X: the canonical power-on value of an uninitialised register.
            self._ones, self._x, self._z = 0, mask, 0
        elif isinstance(value, LogicVector):
            # Zero-extended or truncated to this width.
            self._ones = value._ones & mask
            self._x = value._x & mask
            self._z = value._z & mask
        elif isinstance(value, Logic):
            # A scalar fills every bit, as in VHDL's (others => value).
            ones, x, z = _masks_from_char(value.char)
            self._ones = mask if ones else 0
            self._x = mask if x else 0
            self._z = mask if z else 0
        elif isinstance(value, str):
            ones, x, z = _parse_literal(value, width)
            self._ones, self._x, self._z = ones, x, z
        elif isinstance(value, bool):
            self._ones = 1 if value else 0
            self._x = self._z = 0
        elif isinstance(value, int):
            self._ones = value & mask
            self._x = self._z = 0
        else:
            raise LogicValueError(f"cannot build LogicVector from {value!r}")
        self.is_fully_defined = not (self._x or self._z)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def _raw(cls, width: int, ones: int, x: int, z: int) -> "LogicVector":
        vector = cls.__new__(cls)
        mask = (1 << width) - 1
        vector._width = width
        vector._ones = ones & mask & ~(x | z)
        vector._x = x = x & mask
        vector._z = z = z & mask & ~x
        vector.is_fully_defined = not (x or z)
        return vector

    @classmethod
    def high_z(cls, width: int) -> "LogicVector":
        """All bits Z — a released tri-state bus."""
        if width <= 0:
            raise WidthError(f"vector width must be positive, got {width}")
        return cls._raw(width, 0, 0, (1 << width) - 1)

    # -- basic properties ----------------------------------------------------------

    @property
    def width(self) -> int:
        return self._width

    # -- conversion ------------------------------------------------------------------

    def to_int(self) -> int:
        """Unsigned integer value; raises on any X/Z bit."""
        if self._x or self._z:
            raise LogicValueError(f"vector {self} contains X/Z bits")
        return self._ones

    def to_int_default(self, default: int = 0) -> int:
        """Unsigned integer value, or *default* if any bit is X/Z."""
        if self._x or self._z:
            return default
        return self._ones

    def __index__(self) -> int:
        return self.to_int()

    def __str__(self) -> str:
        chars = []
        for i in reversed(range(self._width)):
            bit = 1 << i
            if self._x & bit:
                chars.append("X")
            elif self._z & bit:
                chars.append("Z")
            elif self._ones & bit:
                chars.append("1")
            else:
                chars.append("0")
        return "".join(chars)

    def __repr__(self) -> str:
        return f"LogicVector({self._width}, '{self}')"

    def to_hex(self) -> str:
        """Hex rendering with per-nibble X/Z marks (as a waveform viewer shows)."""
        nibbles = []
        for lo in range(0, self._width, 4):
            piece = self.slice(min(lo + 3, self._width - 1), lo)
            if piece._x:
                nibbles.append("x")
            elif piece._z and piece._z == (1 << piece._width) - 1:
                nibbles.append("z")
            elif piece._z:
                nibbles.append("x")
            else:
                nibbles.append(format(piece._ones, "x"))
        return "".join(reversed(nibbles))

    # -- bit access --------------------------------------------------------------------

    def bit(self, index: int) -> Logic:
        """The :class:`Logic` value of bit *index* (0 = LSB)."""
        if not 0 <= index < self._width:
            raise WidthError(f"bit index {index} out of range for width {self._width}")
        mask = 1 << index
        if self._x & mask:
            return LX
        if self._z & mask:
            return LZ
        return L1 if self._ones & mask else L0

    def slice(self, high: int, low: int) -> "LogicVector":
        """Bits *high* down to *low* inclusive, as a new vector."""
        if not (0 <= low <= high < self._width):
            raise WidthError(
                f"slice [{high}:{low}] out of range for width {self._width}"
            )
        width = high - low + 1
        return LogicVector._raw(
            width, self._ones >> low, self._x >> low, self._z >> low
        )

    # -- comparison ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is LogicVector:
            other_vec = other
        else:
            other_vec = _coerce(other, self._width)
        if other_vec is None:
            return NotImplemented
        return (
            self._width == other_vec._width
            and self._ones == other_vec._ones
            and self._x == other_vec._x
            and self._z == other_vec._z
        )


#: The width-1 vectors for int writes of 0 and 1, shared by every
#: signal and bus driver (vectors are immutable, so sharing is invisible).
BITS = (LogicVector(1, 0), LogicVector(1, 1))
_ZERO, _ONE = BITS


def is_one(value: LogicVector) -> bool:
    """Sampled 1: every bit driven and the value 1 (X or Z reads as not 1).

    The shared :data:`BITS` vectors answer by identity; any other value
    (a released rail, a forced or faulted wire) takes the full check.
    """
    if value is _ONE:
        return True
    if value is _ZERO:
        return False
    return value.is_fully_defined and value.to_int() == 1


def is_zero(value: LogicVector) -> bool:
    """Sampled 0: every bit driven and the value 0 (X or Z reads as not 0).

    Tested like :func:`is_one`: the shared vectors by identity first.
    """
    if value is _ZERO:
        return True
    if value is _ONE:
        return False
    return value.is_fully_defined and value.to_int() == 0


def _masks_from_char(char: str) -> tuple[int, int, int]:
    return (char == "1", char == "X", char == "Z")


def _parse_literal(text: str, width: int) -> tuple[int, int, int]:
    body = text[2:] if text.lower().startswith("0b") else text
    body = body.replace("_", "")
    if len(body) != width:
        raise WidthError(
            f"literal {text!r} has {len(body)} bits, expected {width}"
        )
    ones = x = z = 0
    for char in body:
        ones <<= 1
        x <<= 1
        z <<= 1
        upper = char.upper()
        if upper == "1":
            ones |= 1
        elif upper == "X":
            x |= 1
        elif upper == "Z":
            z |= 1
        elif upper != "0":
            raise LogicValueError(f"invalid character {char!r} in literal {text!r}")
    return ones, x, z


def _coerce(value: object, width: int) -> "LogicVector | None":
    if isinstance(value, LogicVector):
        return value
    if isinstance(value, bool):
        return LogicVector(width, int(value))
    if isinstance(value, int):
        return LogicVector(width, value)
    if isinstance(value, str):
        return LogicVector(width, value)
    return None


def resolve_vectors(width: int, drivers: typing.Sequence[LogicVector]) -> LogicVector:
    """Per-bit bus resolution over several drivers (std_logic resolution,
    no weak values): no driver → Z; exactly one non-Z driver → its value;
    conflicting or X drivers → X."""
    mask = (1 << width) - 1
    if not drivers:
        return LogicVector.high_z(width)
    driven = 0
    value = 0
    x = 0
    for driver in drivers:
        if driver._width != width:
            raise WidthError(
                f"driver width {driver.width} does not match bus width {width}"
            )
        drive_mask = mask & ~driver._z
        overlap = driven & drive_mask
        fresh = drive_mask & ~driven
        conflict = overlap & ((value ^ driver._ones) | x | driver._x)
        x |= conflict | (driver._x & fresh)
        value |= driver._ones & fresh
        driven |= drive_mask
    value &= ~x
    z = mask & ~driven
    return LogicVector._raw(width, value, x, z)
