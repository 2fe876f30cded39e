"""Functional peripheral models (the "peripherals" IP of Figure 2).

Two representative register-block peripherals, used by the examples and
benches as targets behind the bus interface:

* :class:`StatusRegisterBlock` — a generic control/status/data register
  file, the minimal thing a driver-style application talks to;
* :class:`DmaPeripheral` — a tiny DMA engine whose register programming
  triggers a word copy inside a backing memory, so a test can observe a
  side effect beyond plain storage.
"""

from __future__ import annotations

from ..errors import ProtocolError
from .interfaces import ALL_BYTES, TlmTarget, check_word_data
from .memory import Memory


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


class DmaPeripheral(TlmTarget):
    """A zero-time DMA engine programmed through four registers.

    Register map (word offsets): 0 SRC, 4 DST, 8 LEN (words),
    0xC START/STATUS — writing 1 performs the copy immediately and sets
    the done bit; reading returns bit0 = done.

    :param memory: the backing :class:`~repro.tlm.memory.Memory` the
        copy operates on.
    """

    SRC, DST, LEN, START = 0x0, 0x4, 0x8, 0xC

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self.src = 0
        self.dst = 0
        self.length = 0
        self.done = False

    def read_word(self, address: int) -> int:
        offset = address & 0xF
        if offset == self.SRC:
            return self.src
        if offset == self.DST:
            return self.dst
        if offset == self.LEN:
            return self.length
        if offset == self.START:
            return 1 if self.done else 0
        raise ProtocolError(f"dma: bad offset {offset:#x}")

    def write_word(self, address: int, data: int, byte_enables: int = ALL_BYTES) -> None:
        check_word_data(data)
        offset = address & 0xF
        if offset == self.SRC:
            self.src = data
        elif offset == self.DST:
            self.dst = data
        elif offset == self.LEN:
            self.length = data
        elif offset == self.START:
            if data & 1:
                self._copy()
        else:
            raise ProtocolError(f"dma: bad offset {offset:#x}")

    def _copy(self) -> None:
        words = self.memory.dump(self.src, self.length)
        self.memory.load(self.dst, words)
        self.done = True
