"""Passive Wishbone monitor: protocol rules + transaction recording."""

from __future__ import annotations

from ..hdl.bitvector import is_one
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.agent import BusMonitor
from ..instrument.probes import TRANSACTION_END
from .signals import WishboneBus


class WishboneTransfer:
    """One observed terminated phase."""

    __slots__ = ("address", "is_write", "data", "sel", "time",
                 "terminated_by", "txn_id", "corr_id")

    def __init__(self, address: int, is_write: bool, data: int | None,
                 sel: int, time: int, terminated_by: str) -> None:
        self.address = address
        self.is_write = is_write
        self.data = data
        self.sel = sel
        self.time = time
        self.terminated_by = terminated_by
        #: Stable id for transaction probe pairing.
        self.txn_id: int | None = None
        #: Correlation id back-filled by the span layer (by time/address
        #: containment against the master's operation span).
        self.corr_id: str | None = None

    def signature(self) -> tuple:
        return (self.address, self.is_write, self.data, self.sel,
                self.terminated_by)

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return (f"WishboneTransfer({kind} @{self.address:#010x} "
                f"data={self.data!r} [{self.terminated_by}])")


class WishboneMonitor(BusMonitor):
    """Watches the wires; checks the basic classic-cycle rules."""

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: WishboneBus,
        clk: Signal,
        strict: bool = True,
    ) -> None:
        super().__init__(parent, name, bus, clk, strict)
        self.transfers: list[WishboneTransfer] = []

    def signatures(self) -> list[tuple]:
        return [t.signature() for t in self.transfers]

    def _watch(self):
        bus = self.bus
        posedge = self.clk.posedge
        while True:
            yield posedge
            ack = is_one(bus.ack._value)
            err = is_one(bus.err._value)
            if not (ack or err):
                continue
            # CYC&STB matter only on an edge that terminates.
            if not (is_one(bus.cyc._value) and is_one(bus.stb._value)):
                self._violation("ACK/ERR asserted without CYC&STB")
                continue
            if ack and err:
                self._violation("ACK and ERR asserted together")
                continue
            adr = bus.adr._value
            if not adr.is_fully_defined:
                self._violation("termination with undefined ADR")
                continue
            is_write = bus.we._value.to_int_default(0) == 1
            sel = bus.sel._value.to_int_default(bus.sel_mask)
            data: int | None = None
            if ack:
                source = bus.dat_w if is_write else bus.dat_r
                value = source._value
                if not value.is_fully_defined:
                    self._violation("ACK with undefined data")
                    continue
                data = value.to_int()
            transfer = WishboneTransfer(
                adr.to_int(), is_write, data, sel, self.sim.time,
                "ack" if ack else "err",
            )
            self.transfers.append(transfer)
            # Wishbone classic cycles terminate in the cycle they are
            # observed; only the end probe is meaningful.
            probes = self.sim._probes
            if probes is not None:
                transfer.txn_id = next(self.sim.txn_ids)
                probes.emit(TRANSACTION_END, self.sim.time, self.path, transfer)
