"""Four-valued scalar logic.

The value set is the simplified IEEE-1164 quartet used by most RTL
simulators: ``0``, ``1``, ``X`` (unknown/conflict) and ``Z``
(high-impedance). ``Z`` is what a released tri-state driver
contributes to bus resolution.

The four values are module-level singletons (:data:`L0`, :data:`L1`,
:data:`LX`, :data:`LZ`); ``Logic("1") is L1`` holds.
"""

from __future__ import annotations

from ..errors import LogicValueError

_VALID = ("0", "1", "X", "Z")


class Logic:
    """One scalar logic value. Immutable and interned."""

    __slots__ = ("_char",)
    _instances: dict[str, "Logic"] = {}

    def __new__(cls, value: "Logic | str | int | bool") -> "Logic":
        char = _to_char(value)
        try:
            return cls._instances[char]
        except KeyError:
            instance = super().__new__(cls)
            object.__setattr__(instance, "_char", char)
            cls._instances[char] = instance
            return instance

    # -- representation -----------------------------------------------------

    @property
    def char(self) -> str:
        """The canonical single-character form: '0', '1', 'X' or 'Z'."""
        return self._char

    def __repr__(self) -> str:
        return f"Logic('{self._char}')"

    def __str__(self) -> str:
        return self._char

    def __hash__(self) -> int:
        return hash(self._char)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Logic):
            return self._char == other._char
        if isinstance(other, (int, bool, str)):
            try:
                return self._char == _to_char(other)
            except LogicValueError:
                return NotImplemented
        return NotImplemented

    def __bool__(self) -> bool:
        if self._char == "1":
            return True
        if self._char == "0":
            return False
        raise LogicValueError(f"cannot convert Logic('{self._char}') to bool")


def _to_char(value: "Logic | str | int | bool") -> str:
    if isinstance(value, Logic):
        return value._char
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        if value in (0, 1):
            return "01"[value]
        raise LogicValueError(f"integer logic value must be 0 or 1, got {value}")
    if isinstance(value, str):
        upper = value.upper()
        if upper in _VALID:
            return upper
        raise LogicValueError(f"invalid logic literal {value!r}")
    raise LogicValueError(f"cannot interpret {value!r} as a logic value")


#: Logic zero.
L0 = Logic("0")
#: Logic one.
L1 = Logic("1")
#: Unknown / conflict.
LX = Logic("X")
#: High impedance.
LZ = Logic("Z")

