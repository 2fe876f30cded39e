"""Wishbone slave with a configurable ACK latency."""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.bitvector import LogicVector, is_one
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..tlm.interfaces import TlmTarget
from .signals import WishboneBus


class WishboneSlave(Module):
    """A memory-mapped slave answering classic cycles.

    :param store: the functional model behind this slave.
    :param base / size: decoded address window (byte addresses).
    :param ack_latency: clocks between sampling the request and ACK
        (0 = combinational-style answer on the next edge).
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: WishboneBus,
        clk: Signal,
        store: TlmTarget,
        base: int,
        size: int,
        ack_latency: int = 0,
    ) -> None:
        super().__init__(parent, name)
        if base % 4 or size <= 0 or size % 4:
            raise ProtocolError(f"bad window base={base:#x} size={size:#x}")
        if ack_latency < 0:
            raise ProtocolError("ack latency must be >= 0")
        self.bus = bus
        self.clk = clk
        self.store = store
        self.base = base
        self.size = size
        self.ack_latency = ack_latency
        self._ack = bus.ack.get_driver(self.path)
        self._err = bus.err.get_driver(self.path)
        self._dat_r = bus.dat_r.get_driver(self.path)
        self.thread(self._serve, "serve")

    def decodes(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    def _release(self) -> None:
        self._ack.release()
        self._err.release()
        self._dat_r.release()

    def _serve(self):
        bus = self.bus
        posedge = self.clk.posedge
        while True:
            yield posedge
            if not (is_one(bus.cyc._value) and is_one(bus.stb._value)):
                self._release()
                continue
            adr = bus.adr._value
            if not adr.is_fully_defined or not self.decodes(adr.to_int()):
                self._release()
                continue
            address = adr.to_int()
            # Wait states before terminating the phase.
            aborted = False
            for __ in range(self.ack_latency):
                yield posedge
                if not (is_one(bus.cyc._value) and is_one(bus.stb._value)):
                    aborted = True
                    break
            if aborted:
                self._release()
                continue
            local = address - self.base
            we = bus.we._value.to_int_default(0)
            try:
                if we:
                    sel = bus.sel._value.to_int_default(bus.sel_mask)
                    data = bus.dat_w._value
                    if not data.is_fully_defined:
                        raise ProtocolError(
                            f"{self.path}: write with undefined DAT_W"
                        )
                    self.store.write_word(local, data.to_int(), sel)
                    self._dat_r.release()
                else:
                    value = self.store.read_word(local)
                    self._dat_r.write(LogicVector(bus.data_width, value))
                self._ack.write(1)
                self._err.write(0)
            except ProtocolError:
                # Functional model rejected the access: ERR termination.
                self._err.write(1)
                self._ack.write(0)
                self._dat_r.release()
            # Hold the termination for exactly one clock.
            yield posedge
            self._ack.write(0)
            self._err.write(0)
            self._dat_r.release()
