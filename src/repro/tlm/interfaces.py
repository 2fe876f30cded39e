"""Transaction-level interfaces.

The design flow's *functional models of the IPs* (paper, Section 3) offer
a transaction-level interface based on function calls. These are the
protocol-free contracts those models implement; the pin-accurate PCI
substrate implements the same operations over wires.
"""

from __future__ import annotations

from ..errors import ProtocolError

#: Byte-enable mask selecting all four bytes of a 32-bit word.
ALL_BYTES = 0xF


class TlmTarget:
    """A memory-mapped, word-addressed transaction-level target.

    Addresses are byte addresses aligned to 4; data are 32-bit ints.
    Implementations must be zero-time (pure function calls) — timing
    belongs to the communication layer, not to the functional model.
    """

    def read_word(self, address: int) -> int:
        raise NotImplementedError

    def write_word(self, address: int, data: int, byte_enables: int = ALL_BYTES) -> None:
        raise NotImplementedError


def check_word_address(address: int) -> int:
    """Validate a 32-bit word-aligned byte address."""
    if not 0 <= address < 2**32:
        raise ProtocolError(f"address {address:#x} outside 32-bit space")
    if address % 4:
        raise ProtocolError(f"address {address:#x} is not word aligned")
    return address


def check_word_data(data: int) -> int:
    """Validate a 32-bit data word."""
    if not 0 <= data < 2**32:
        raise ProtocolError(f"data {data:#x} does not fit in 32 bits")
    return data


def apply_byte_enables(old: int, new: int, byte_enables: int) -> int:
    """Merge *new* into *old* under a 4-bit byte-enable mask."""
    if not 0 <= byte_enables <= ALL_BYTES:
        raise ProtocolError(f"byte enables {byte_enables:#x} exceed 4 bits")
    result = old
    for lane in range(4):
        if byte_enables & (1 << lane):
            mask = 0xFF << (8 * lane)
            result = (result & ~mask) | (new & mask)
    return result & 0xFFFFFFFF
