"""Functional peripheral models (the "peripherals" IP of Figure 2).

:class:`StatusRegisterBlock` is a generic control/status/data register
file, the minimal thing a driver-style application talks to; the
platforms map it behind the bus interface next to the memory.
"""

from __future__ import annotations

from ..errors import ProtocolError
from .interfaces import ALL_BYTES, TlmTarget, check_word_data


class StatusRegisterBlock(TlmTarget):
    """A small register file: CONTROL, STATUS, DATA, SCRATCH.

    Register map (word offsets):

    == ========= =================================================
    0  CONTROL   bit0 = enable; bit1 = clear-status (self-clearing)
    1  STATUS    bit0 = enabled; bit7..4 = write counter (wraps)
    2  DATA      last datum written; reads return it bit-inverted
    3  SCRATCH   plain read/write storage
    == ========= =================================================
    """

    CONTROL, STATUS, DATA, SCRATCH = 0x0, 0x4, 0x8, 0xC

    def __init__(self) -> None:
        self.enabled = False
        self.write_counter = 0
        self.data = 0
        self.scratch = 0

    def read_word(self, address: int) -> int:
        offset = address & 0xF
        if offset == self.CONTROL:
            return 1 if self.enabled else 0
        if offset == self.STATUS:
            return (self.write_counter & 0xF) << 4 | (1 if self.enabled else 0)
        if offset == self.DATA:
            return self.data ^ 0xFFFFFFFF
        if offset == self.SCRATCH:
            return self.scratch
        raise ProtocolError(f"register block: bad offset {offset:#x}")

    def write_word(self, address: int, data: int, byte_enables: int = ALL_BYTES) -> None:
        check_word_data(data)
        offset = address & 0xF
        if offset == self.CONTROL:
            self.enabled = bool(data & 1)
            if data & 2:
                self.write_counter = 0
        elif offset == self.DATA:
            self.data = data
            self.write_counter = (self.write_counter + 1) & 0xF
        elif offset == self.SCRATCH:
            self.scratch = data
        elif offset == self.STATUS:
            raise ProtocolError("STATUS register is read-only")
        else:
            raise ProtocolError(f"register block: bad offset {offset:#x}")

