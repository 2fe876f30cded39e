"""Central PCI bus arbiter (REQ#/GNT# rotation).

Implements hidden (overlapped) arbitration: GNT# can move to the next
requester while the current transaction is still in progress; a granted
master additionally waits for bus idle before starting its address phase.
"""

from __future__ import annotations

from ..hdl.module import Module
from ..hdl.signal import Signal
from .signals import PciBus, is_asserted


class PciCentralArbiter(Module):
    """Round-robin arbiter over the bus's REQ#/GNT# pairs.

    The grant parks on the current owner while its REQ# stays asserted;
    when the owner deasserts (or never asserts), the grant rotates to the
    next requesting master.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: PciBus,
        clk: Signal,
    ) -> None:
        super().__init__(parent, name)
        self.bus = bus
        self.clk = clk
        self._owner: int | None = None
        self._rotation = 0
        self._was_busy = False
        self.thread(self._arbitrate, "arbitrate")

    def _requesting(self, index: int) -> bool:
        return is_asserted(self.bus.req_n[index]._value)

    def _arbitrate(self):
        posedge = self.clk.posedge
        while True:
            yield posedge
            n_masters = self.bus.n_masters
            busy = not self.bus.idle
            if busy:
                if not self._was_busy and self._owner is not None:
                    # A transaction just started: next arbitration favours
                    # the master after the current owner (fair rotation).
                    self._rotation = (self._owner + 1) % n_masters
            else:
                chosen: int | None = None
                for step in range(n_masters):
                    candidate = (self._rotation + step) % n_masters
                    if self._requesting(candidate):
                        chosen = candidate
                        break
                self._owner = chosen
                for index in range(n_masters):
                    self.bus.gnt_n[index].write(0 if index == chosen else 1)
            self._was_busy = busy
