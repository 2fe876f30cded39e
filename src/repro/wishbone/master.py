"""Wishbone master (initiator) engine."""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.bitvector import LogicVector, is_one
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.agent import BusOperation, PinMaster
from .signals import WishboneBus


class WishboneMaster(PinMaster):
    """Single bus master executing queued operations in order.

    :param timeout_cycles: clocks to wait for ACK/ERR before declaring a
        bus error (no slave decoded the address).
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: WishboneBus,
        clk: Signal,
        timeout_cycles: int = 16,
    ) -> None:
        if timeout_cycles < 1:
            raise ProtocolError("timeout must be >= 1 cycle")
        super().__init__(parent, name, bus, clk)
        self.timeout_cycles = timeout_cycles
        self.errors_seen = 0
        self.timeouts_seen = 0

    def _execute(self, operation: BusOperation, posedge):
        bus = self.bus
        status = "ok"
        for index in range(operation.count):
            address = operation.address + 4 * index
            bus.cyc.write(1)
            bus.stb.write(1)
            bus.adr.write(LogicVector(bus.addr_width, address))
            bus.sel.write(LogicVector(bus.sel_width, operation.byte_enables))
            if operation.is_write:
                bus.we.write(1)
                bus.dat_w.write(
                    LogicVector(bus.data_width, operation.data[index])
                )
            else:
                bus.we.write(0)
            waited = 0
            while True:
                yield posedge
                if is_one(bus.err._value):
                    status = "bus_error"
                    self.errors_seen += 1
                    break
                if is_one(bus.ack._value):
                    if not operation.is_write:
                        value = bus.dat_r._value
                        if not value.is_fully_defined:
                            raise ProtocolError(
                                f"{self.path}: ACK with undefined DAT_R"
                            )
                        operation.data.append(value.to_int())
                    break
                waited += 1
                if waited > self.timeout_cycles:
                    status = "timeout"
                    self.timeouts_seen += 1
                    break
            if status != "ok":
                break
            # Phase done: deassert STB for one cycle (classic cycle with
            # a gap keeps the simple slave's bookkeeping unambiguous).
            bus.stb.write(0)
            yield posedge
        bus.cyc.write(0)
        bus.stb.write(0)
        return status
