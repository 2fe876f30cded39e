"""AXI4-Lite master (manager) engine.

AXI4-Lite has no bursts: a multi-word operation is executed as a train
of independent single-beat transfers with incrementing addresses. The
master issues AW and W together, collects the B response, and likewise
AR then R; a channel that never presents READY (no slave decoded the
address) times out into a ``"timeout"`` status — the AXI-Lite analogue
of a master abort.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.bitvector import LogicVector, is_one
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.agent import BusOperation, PinMaster
from .signals import RESP_DECERR, RESP_EXOKAY, RESP_OKAY, RESP_SLVERR, AxiLiteBus


#: Response encodings mapped to operation statuses.
_RESP_STATUS = {
    RESP_OKAY: "ok",
    RESP_EXOKAY: "exokay",
    RESP_SLVERR: "slverr",
    RESP_DECERR: "decerr",
}


class AxiLiteMaster(PinMaster):
    """Single manager executing queued operations in order.

    :param timeout_cycles: clocks to wait for a READY (or a response
        VALID) before declaring a timeout — no slave decoded the
        address.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: AxiLiteBus,
        clk: Signal,
        timeout_cycles: int = 16,
    ) -> None:
        if timeout_cycles < 1:
            raise ProtocolError("timeout must be >= 1 cycle")
        super().__init__(parent, name, bus, clk)
        self.timeout_cycles = timeout_cycles

    def _execute(self, operation: BusOperation, posedge):
        for index in range(operation.count):
            address = operation.address + 4 * index
            if operation.is_write:
                status = yield from self._write_beat(
                    address, operation.data[index], operation.byte_enables,
                    posedge,
                )
            else:
                status, word = yield from self._read_beat(address, posedge)
                if status == "ok":
                    operation.data.append(word)
            if status != "ok":
                return status
        return "ok"

    def _write_beat(self, address: int, word: int, strb: int, posedge):
        """AW+W handshakes, then the B response; returns the status."""
        bus = self.bus
        bus.awvalid.write(1)
        bus.awaddr.write(LogicVector(bus.addr_width, address))
        bus.wvalid.write(1)
        bus.wdata.write(LogicVector(bus.data_width, word))
        bus.wstrb.write(LogicVector(bus.strb_width, strb))
        aw_done = w_done = False
        waited = 0
        while not (aw_done and w_done):
            yield posedge
            if not aw_done and is_one(bus.awready._value):
                aw_done = True
                bus.awvalid.write(0)
            if not w_done and is_one(bus.wready._value):
                w_done = True
                bus.wvalid.write(0)
            waited += 1
            if waited > self.timeout_cycles:
                bus.awvalid.write(0)
                bus.wvalid.write(0)
                return "timeout"
        bus.bready.write(1)
        waited = 0
        while True:
            yield posedge
            if is_one(bus.bvalid._value):
                resp = bus.bresp._value.to_int_default(RESP_DECERR)
                bus.bready.write(0)
                return _RESP_STATUS[resp]
            waited += 1
            if waited > self.timeout_cycles:
                bus.bready.write(0)
                return "timeout"

    def _read_beat(self, address: int, posedge):
        """AR handshake, then the R beat; returns (status, word)."""
        bus = self.bus
        bus.arvalid.write(1)
        bus.araddr.write(LogicVector(bus.addr_width, address))
        waited = 0
        while True:
            yield posedge
            if is_one(bus.arready._value):
                bus.arvalid.write(0)
                break
            waited += 1
            if waited > self.timeout_cycles:
                bus.arvalid.write(0)
                return "timeout", 0
        bus.rready.write(1)
        waited = 0
        while True:
            yield posedge
            if is_one(bus.rvalid._value):
                resp = bus.rresp._value.to_int_default(RESP_DECERR)
                bus.rready.write(0)
                if resp != RESP_OKAY:
                    return _RESP_STATUS[resp], 0
                value = bus.rdata._value
                if not value.is_fully_defined:
                    raise ProtocolError(
                        f"{self.path}: RVALID with undefined RDATA at "
                        f"{self.sim.time_str()}"
                    )
                return "ok", value.to_int()
            waited += 1
            if waited > self.timeout_cycles:
                bus.rready.write(0)
                return "timeout", 0
