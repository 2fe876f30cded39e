"""PCI operation requests and observed bus transactions.

:class:`PciOperation` is what an initiator *asks for* (the unit queued at
a master); :class:`PciTransaction` is what a bus monitor *observes* on
the wires. Consistency checking compares streams of the latter.
"""

from __future__ import annotations

import typing

from ..errors import ProtocolError
from .constants import (
    CMD_MEM_READ,
    CMD_MEM_WRITE,
    COMMAND_NAMES,
    READ_COMMANDS,
    STATUS_PENDING,
    WRITE_COMMANDS,
)


class PciOperation:
    """One requested bus operation (possibly a burst).

    :param command: a PCI command code (``CMD_*``).
    :param address: 32-bit, word-aligned start byte address.
    :param data: words to write (write commands only).
    :param count: words to read (read commands only).
    :param byte_enables: active-high 4-bit lane mask applied to every
        data phase (hardware drives the inverted C/BE# lines).
    """

    def __init__(
        self,
        command: int,
        address: int,
        data: typing.Sequence[int] | None = None,
        count: int = 1,
        byte_enables: int = 0xF,
    ) -> None:
        if command not in COMMAND_NAMES:
            raise ProtocolError(f"unknown PCI command {command:#x}")
        if address % 4 or not 0 <= address < 2**32:
            raise ProtocolError(f"bad PCI address {address:#x}")
        if not 0 <= byte_enables <= 0xF:
            raise ProtocolError(f"bad byte enables {byte_enables:#x}")
        self.command = command
        self.address = address
        self.byte_enables = byte_enables
        if command in WRITE_COMMANDS:
            if not data:
                raise ProtocolError("write operation needs data words")
            self.data: list[int] = [self._check_word(w) for w in data]
            self.count = len(self.data)
        elif command in READ_COMMANDS:
            if data is not None:
                raise ProtocolError("read operation must not carry data")
            if count <= 0:
                raise ProtocolError(f"read count must be positive, got {count}")
            self.data = []
            self.count = count
        else:
            self.data = list(data or [])
            self.count = count
        # Result fields, filled in by the master.
        self.status = STATUS_PENDING
        self.retries = 0
        #: Read-data PAR mismatch observed (PERR#-style detection). Only
        #: populated when the master runs with ``check_parity`` enabled;
        #: the status may still be ``ok`` — corrupted data was accepted.
        self.parity_error = False
        self.enqueue_time: int | None = None
        self.start_time: int | None = None
        #: Time the arbiter first granted the bus for this operation.
        self.grant_time: int | None = None
        self.complete_time: int | None = None
        #: Correlation id inherited from the issuing CommandType.
        self.corr_id: str | None = None
        #: Stable id for transaction.begin/end probe pairing.
        self.txn_id: int | None = None

    @staticmethod
    def _check_word(word: int) -> int:
        if not 0 <= word < 2**32:
            raise ProtocolError(f"data word {word:#x} does not fit in 32 bits")
        return word

    @classmethod
    def read(cls, address: int, count: int = 1, byte_enables: int = 0xF) -> "PciOperation":
        return cls(CMD_MEM_READ, address, count=count, byte_enables=byte_enables)

    @classmethod
    def write(
        cls, address: int, data: "int | typing.Sequence[int]", byte_enables: int = 0xF
    ) -> "PciOperation":
        words = [data] if isinstance(data, int) else list(data)
        return cls(CMD_MEM_WRITE, address, data=words, byte_enables=byte_enables)

    @property
    def is_read(self) -> bool:
        return self.command in READ_COMMANDS

    @property
    def is_write(self) -> bool:
        return self.command in WRITE_COMMANDS

    @property
    def command_name(self) -> str:
        return COMMAND_NAMES[self.command]

    @property
    def latency(self) -> int | None:
        """Enqueue-to-completion time in fs (None while pending)."""
        if self.complete_time is None or self.enqueue_time is None:
            return None
        return self.complete_time - self.enqueue_time

    def __repr__(self) -> str:
        return (
            f"PciOperation({self.command_name} @{self.address:#010x} "
            f"x{self.count} [{self.status}])"
        )


class PciTransaction:
    """A transaction reconstructed from the wires by a bus monitor."""

    __slots__ = (
        "command", "address", "start_time", "end_time", "data",
        "byte_enables", "terminated_by", "parity_errors", "txn_id",
        "corr_id", "devsel_time", "first_data_time",
    )

    def __init__(
        self,
        command: int,
        address: int,
        start_time: int,
    ) -> None:
        self.command = command
        self.address = address
        self.start_time = start_time
        self.end_time: int | None = None
        self.data: list[int] = []
        self.byte_enables: list[int] = []
        self.terminated_by: str = "completion"
        self.parity_errors = 0
        #: Stable id for transaction.begin/end probe pairing.
        self.txn_id: int | None = None
        #: Correlation id adopted from the matching master operation
        #: (monitors cannot see ids through the wires; the span layer
        #: back-fills this by time/address containment).
        self.corr_id: str | None = None
        #: First cycle DEVSEL# was observed asserted.
        self.devsel_time: int | None = None
        #: First data-transfer cycle (IRDY# and TRDY# both asserted).
        self.first_data_time: int | None = None

    @property
    def command_name(self) -> str:
        return COMMAND_NAMES.get(self.command, f"cmd_{self.command:#x}")

    @property
    def word_count(self) -> int:
        return len(self.data)

    @property
    def duration(self) -> int | None:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def signature(self) -> tuple:
        """Order-stable observable content, used for trace comparison."""
        return (self.command, self.address, tuple(self.data), tuple(self.byte_enables))

    def __repr__(self) -> str:
        return (
            f"PciTransaction({self.command_name} @{self.address:#010x} "
            f"{self.word_count} words, {self.terminated_by})"
        )
