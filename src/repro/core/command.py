"""Application-level command and response types.

The paper's interface methods exchange ``CommandType`` and ``DataType``
values between the application and the bus interface. A
:class:`CommandType` says *what* transfer to perform, abstracted from any
bus protocol; :class:`DataType` carries the result of a read back to the
application.
"""

from __future__ import annotations

import typing

from ..errors import ProtocolError

#: Transfer kinds understood by every bus interface in the library.
READ = "read"
WRITE = "write"


class CommandType:
    """One abstract bus command issued by the application.

    :param kind: :data:`READ` or :data:`WRITE`.
    :param address: byte address, word aligned.
    :param data: words to write (:data:`WRITE` only).
    :param count: words to read (:data:`READ` only).
    :param byte_enables: active-high lane mask for every data word.
    """

    def __init__(
        self,
        kind: str,
        address: int,
        data: typing.Sequence[int] | None = None,
        count: int = 1,
        byte_enables: int = 0xF,
    ) -> None:
        if kind not in (READ, WRITE):
            raise ProtocolError(f"unknown command kind {kind!r}")
        if address % 4 or not 0 <= address < 2**32:
            raise ProtocolError(f"bad command address {address:#x}")
        if not 0 <= byte_enables <= 0xF:
            raise ProtocolError(f"bad byte enables {byte_enables:#x}")
        self.kind = kind
        self.address = address
        self.byte_enables = byte_enables
        #: Correlation id threaded from the issuing application down to
        #: the pin level (set by Application.perform; deterministic for a
        #: given workload, so spec and RTL runs can be matched span by
        #: span). Not part of the observable signature.
        self.corr_id: str | None = None
        #: Stable id for transaction probe pairing (functional interface).
        self.txn_id: int | None = None
        if kind == WRITE:
            if not data:
                raise ProtocolError("write command needs data words")
            self.data: list[int] = list(data)
            for word in self.data:
                if not 0 <= word < 2**32:
                    raise ProtocolError(f"word {word:#x} does not fit in 32 bits")
            self.count = len(self.data)
        else:
            if data is not None:
                raise ProtocolError("read command must not carry data")
            if count <= 0:
                raise ProtocolError(f"read count must be positive, got {count}")
            self.data = []
            self.count = count

    @classmethod
    def read(cls, address: int, count: int = 1, byte_enables: int = 0xF) -> "CommandType":
        return cls(READ, address, count=count, byte_enables=byte_enables)

    @classmethod
    def write(
        cls, address: int, data: "int | typing.Sequence[int]", byte_enables: int = 0xF
    ) -> "CommandType":
        words = [data] if isinstance(data, int) else list(data)
        return cls(WRITE, address, data=words, byte_enables=byte_enables)

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    def signature(self) -> tuple:
        """Observable content, used in trace comparison."""
        return (self.kind, self.address, tuple(self.data), self.count, self.byte_enables)

    def __repr__(self) -> str:
        return f"CommandType({self.kind} @{self.address:#010x} x{self.count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommandType):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())


class DataType:
    """The response to a read command (the paper's ``DataType``).

    :param data: the words read.
    :param status: completion status string (``"ok"`` on success).
    """

    __slots__ = ("data", "status", "corr_id")

    def __init__(self, data: typing.Sequence[int], status: str = "ok") -> None:
        self.data: list[int] = list(data)
        self.status = status
        #: Correlation id of the command this response answers (threaded
        #: back by the bus interface; not part of the signature).
        self.corr_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def signature(self) -> tuple:
        return (tuple(self.data), self.status)

    def __repr__(self) -> str:
        return f"DataType({len(self.data)} words, {self.status})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataType):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())
