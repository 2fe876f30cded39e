"""AXI4-Lite slave (subordinate) with configurable channel latencies."""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.bitvector import LogicVector, is_one
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..tlm.interfaces import TlmTarget
from .signals import RESP_OKAY, RESP_SLVERR, AxiLiteBus


class AxiLiteSlave(Module):
    """A memory-mapped subordinate answering single-beat transfers.

    :param store: the functional model behind this slave.
    :param base / size: decoded address window (byte addresses).
    :param accept_latency: clocks between sampling a VALID request and
        asserting the matching READY (0 = accept on the next edge).

    Writes handshake AW and W together (READY asserted for one clock on
    both channels once both VALIDs are up), then drive B until BREADY;
    reads handshake AR, then drive R until RREADY. A request whose
    address misses the window is ignored — the master's timeout plays
    the DECERR role of a missing decoder.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: AxiLiteBus,
        clk: Signal,
        store: TlmTarget,
        base: int,
        size: int,
        accept_latency: int = 0,
    ) -> None:
        super().__init__(parent, name)
        if base % 4 or size <= 0 or size % 4:
            raise ProtocolError(f"bad window base={base:#x} size={size:#x}")
        if accept_latency < 0:
            raise ProtocolError("accept latency must be >= 0")
        self.bus = bus
        self.clk = clk
        self.store = store
        self.base = base
        self.size = size
        self.accept_latency = accept_latency
        self._awready = bus.awready.get_driver(self.path)
        self._wready = bus.wready.get_driver(self.path)
        self._bvalid = bus.bvalid.get_driver(self.path)
        self._bresp = bus.bresp.get_driver(self.path)
        self._arready = bus.arready.get_driver(self.path)
        self._rvalid = bus.rvalid.get_driver(self.path)
        self._rdata = bus.rdata.get_driver(self.path)
        self._rresp = bus.rresp.get_driver(self.path)
        self.thread(self._serve, "serve")

    def decodes(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    def _serve(self):
        bus = self.bus
        posedge = self.clk.posedge
        while True:
            yield posedge
            aw = is_one(bus.awvalid._value)
            w = is_one(bus.wvalid._value)
            ar = is_one(bus.arvalid._value)
            if aw and w:
                addr = bus.awaddr._value
                if addr.is_fully_defined and self.decodes(addr.to_int()):
                    yield from self._write(addr.to_int(), posedge)
                continue
            if ar:
                addr = bus.araddr._value
                if addr.is_fully_defined and self.decodes(addr.to_int()):
                    yield from self._read(addr.to_int(), posedge)

    def _write(self, address: int, posedge):
        bus = self.bus
        for __ in range(self.accept_latency):
            yield posedge
            if not is_one(bus.awvalid._value):
                return
        data = bus.wdata._value
        strb = bus.wstrb._value.to_int_default(bus.strb_mask)
        # Accept AW and W together for exactly one clock.
        self._awready.write(1)
        self._wready.write(1)
        yield posedge
        self._awready.release()
        self._wready.release()
        resp = RESP_OKAY
        try:
            if not data.is_fully_defined:
                raise ProtocolError(f"{self.path}: write with undefined WDATA")
            self.store.write_word(address - self.base, data.to_int(), strb)
        except ProtocolError:
            resp = RESP_SLVERR
        self._bvalid.write(1)
        self._bresp.write(LogicVector(2, resp))
        while True:
            yield posedge
            if is_one(bus.bready._value):
                break
        self._bvalid.release()
        self._bresp.release()

    def _read(self, address: int, posedge):
        bus = self.bus
        for __ in range(self.accept_latency):
            yield posedge
            if not is_one(bus.arvalid._value):
                return
        self._arready.write(1)
        yield posedge
        self._arready.release()
        resp = RESP_OKAY
        value = 0
        try:
            value = self.store.read_word(address - self.base)
        except ProtocolError:
            resp = RESP_SLVERR
        self._rvalid.write(1)
        self._rdata.write(LogicVector(bus.data_width, value))
        self._rresp.write(LogicVector(2, resp))
        while True:
            yield posedge
            if is_one(bus.rready._value):
                break
        self._rvalid.release()
        self._rdata.release()
        self._rresp.release()
