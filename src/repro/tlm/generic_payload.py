"""TLM-2.0-style generic payload and blocking-transport socket.

Klingauf-style transaction-level communication: instead of per-protocol
wires, initiator and target exchange one *generic payload* object
through a ``b_transport`` call that returns an annotated delay. This
module provides the payload, a target socket adapting any
:class:`~repro.tlm.interfaces.TlmTarget`, and the library interface
element that lets applications swap a whole pin-level bus for a single
function call — the highest rung of the refinement ladder.
"""

from __future__ import annotations

from ..core.command import CommandType, DataType
from ..core.functional_interface import FunctionalBusInterface
from ..errors import ProtocolError
from ..hdl.module import Module
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..instrument.probes import TRANSACTION_BEGIN, TRANSACTION_END, new_txn_id
from ..kernel.process import Timeout
from ..kernel.simulator import Simulator
from ..osss.arbiter import Arbiter
from .interfaces import ALL_BYTES, TlmTarget

#: Generic-payload commands.
GP_READ = "read"
GP_WRITE = "write"

#: Generic-payload response statuses (subset of the TLM-2.0 set).
GP_INCOMPLETE = "incomplete"
GP_OK = "ok"
GP_ADDRESS_ERROR = "address_error"
GP_GENERIC_ERROR = "generic_error"

GP_STATUSES = (GP_INCOMPLETE, GP_OK, GP_ADDRESS_ERROR, GP_GENERIC_ERROR)


class GenericPayload:
    """One transaction object passed by reference through the socket.

    :param command: :data:`GP_READ` or :data:`GP_WRITE`.
    :param address: word-aligned byte start address.
    :param data: words to write, or the container reads fill in.
    :param byte_enable: per-byte lane mask applied to each word.
    """

    def __init__(
        self,
        command: str,
        address: int,
        data=None,
        byte_enable: int = ALL_BYTES,
        count: int = 1,
    ) -> None:
        if command not in (GP_READ, GP_WRITE):
            raise ProtocolError(f"bad generic-payload command {command!r}")
        self.command = command
        self.address = address
        self.byte_enable = byte_enable
        if command == GP_WRITE:
            if not data:
                raise ProtocolError("write payload needs data")
            self.data = list(data)
            self.count = len(self.data)
        else:
            if data is not None:
                raise ProtocolError("read payload must not carry data")
            if count < 1:
                raise ProtocolError("read count must be >= 1")
            self.data = []
            self.count = count
        self.response_status = GP_INCOMPLETE
        #: Ignorable extensions, keyed by name (TLM-2.0 style).
        self.extensions: dict = {}
        #: Correlation id inherited from the issuing CommandType.
        self.corr_id: str | None = None
        #: Stable id for transaction.begin/end probe pairing.
        self.txn_id: int | None = None

    @property
    def is_write(self) -> bool:
        return self.command == GP_WRITE

    @property
    def is_response_ok(self) -> bool:
        return self.response_status == GP_OK

    @classmethod
    def read(cls, address: int, count: int = 1,
             byte_enable: int = ALL_BYTES) -> "GenericPayload":
        return cls(GP_READ, address, count=count, byte_enable=byte_enable)

    @classmethod
    def write(cls, address: int, data,
              byte_enable: int = ALL_BYTES) -> "GenericPayload":
        words = [data] if isinstance(data, int) else list(data)
        return cls(GP_WRITE, address, data=words, byte_enable=byte_enable)

    def __repr__(self) -> str:
        return (f"GenericPayload({self.command} @{self.address:#010x} "
                f"x{self.count} [{self.response_status}])")


class GpTargetSocket:
    """Blocking-transport target socket over a :class:`TlmTarget`.

    ``b_transport`` performs the payload against the target, sets the
    response status in place, and returns the annotated delay in fs
    (accept latency plus a per-word cost) — the caller decides whether
    to consume it with a wait.
    """

    def __init__(self, target: TlmTarget, accept_latency: int = 0,
                 word_latency: int = 0) -> None:
        if accept_latency < 0 or word_latency < 0:
            raise ProtocolError("socket latencies must be >= 0")
        self.target = target
        self.accept_latency = accept_latency
        self.word_latency = word_latency
        self.transports = 0
        self.words_transferred = 0

    def b_transport(self, payload: GenericPayload) -> int:
        self.transports += 1
        try:
            if payload.is_write:
                for offset, word in enumerate(payload.data):
                    self.target.write_word(
                        payload.address + 4 * offset, word,
                        payload.byte_enable,
                    )
            else:
                payload.data = [
                    self.target.read_word(payload.address + 4 * i)
                    for i in range(payload.count)
                ]
            payload.response_status = GP_OK
            self.words_transferred += payload.count
        except ProtocolError:
            payload.response_status = GP_ADDRESS_ERROR
        except Exception:
            payload.response_status = GP_GENERIC_ERROR
        return self.accept_latency + self.word_latency * payload.count


def _to_generic_payload(command: CommandType) -> GenericPayload:
    if command.is_write:
        payload = GenericPayload.write(
            command.address, command.data, byte_enable=command.byte_enables
        )
    else:
        payload = GenericPayload.read(
            command.address, count=command.count,
            byte_enable=command.byte_enables,
        )
    payload.corr_id = command.corr_id
    return payload


class TlmGpBusInterface(InterfaceElement):
    """Generic-payload interface element (transaction abstraction).

    The bus side is one ``b_transport`` call into a
    :class:`GpTargetSocket`; the annotated delay is consumed with a
    single wait, so loosely-timed platforms keep approximate timing
    without any wire activity.
    """

    BUS_NAME = "tlmgp"
    ABSTRACTION = "transaction"

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        socket: GpTargetSocket,
        arbiter: Arbiter | None = None,
        params: IfaceParams | None = None,
    ) -> None:
        super().__init__(parent, name, arbiter, params)
        self.socket = socket
        self.thread(self._dispatch, "dispatch")

    def _dispatch(self):
        while True:
            epoch, command = yield from self.channel.call("get_command")
            payload = _to_generic_payload(command)
            probes = self.sim._probes
            if probes is not None:
                payload.txn_id = new_txn_id()
                probes.emit(TRANSACTION_BEGIN, self.sim.time, self.path, payload)
            delay = self.socket.b_transport(payload)
            if delay:
                yield Timeout(delay)
            if probes is not None:
                probes.emit(TRANSACTION_END, self.sim.time, self.path, payload)
            self.commands_serviced += 1
            if not payload.is_response_ok:
                self.operations_failed += 1
            if command.is_read:
                response = DataType(
                    payload.data, "ok" if payload.is_response_ok
                    else payload.response_status
                )
                response.corr_id = payload.corr_id
                yield from self.channel.call("put_response", epoch, response)


class TlmGpFunctionalInterface(FunctionalBusInterface):
    """The functional element re-tagged for the tlmgp library slot."""

    BUS_NAME = "tlmgp"
    ABSTRACTION = "functional"
