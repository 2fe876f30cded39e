"""Address-map routing for transaction-level targets.

A :class:`AddressRouter` is itself a :class:`~repro.tlm.interfaces.
TlmTarget`, so a functional bus interface can treat "everything behind
the bus" as a single target while memories and peripherals keep their
own local address spaces.
"""

from __future__ import annotations

from ..errors import ProtocolError
from .interfaces import ALL_BYTES, TlmTarget


class AddressRange:
    """A half-open [base, base+size) window mapped to one target."""

    def __init__(self, base: int, size: int, target: TlmTarget, name: str = "") -> None:
        if size <= 0 or base % 4 or size % 4:
            raise ProtocolError(
                f"bad address range base={base:#x} size={size:#x}"
            )
        self.base = base
        self.size = size
        self.target = target
        self.name = name or type(target).__name__

    def __repr__(self) -> str:
        return f"AddressRange({self.name}: {self.base:#x}+{self.size:#x})"

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.base + other.size and other.base < self.base + self.size


class AddressRouter(TlmTarget):
    """Routes word accesses to the target whose window matches."""

    def __init__(self) -> None:
        self._ranges: list[AddressRange] = []

    def add_target(
        self, base: int, size: int, target: TlmTarget, name: str = ""
    ) -> AddressRange:
        """Map [base, base+size) to *target*; windows must not overlap."""
        entry = AddressRange(base, size, target, name)
        for existing in self._ranges:
            if existing.overlaps(entry):
                raise ProtocolError(
                    f"address range {entry!r} overlaps {existing!r}"
                )
        self._ranges.append(entry)
        return entry

    def decode(self, address: int) -> AddressRange:
        for entry in self._ranges:
            if entry.contains(address):
                return entry
        raise ProtocolError(f"no target decodes address {address:#x}")

    def read_word(self, address: int) -> int:
        entry = self.decode(address)
        return entry.target.read_word(address - entry.base)

    def write_word(self, address: int, data: int, byte_enables: int = ALL_BYTES) -> None:
        entry = self.decode(address)
        entry.target.write_word(address - entry.base, data, byte_enables)
