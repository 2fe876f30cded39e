"""Passive PCI bus monitor.

Watches the wires cycle by cycle, reconstructs :class:`~repro.pci.
transaction.PciTransaction` objects, verifies a set of protocol rules
and checks PAR parity. The monitor never drives anything, so the same
instance validates both the behavioural and the synthesized platform —
it produces the observable trace that consistency checking compares.
"""

from __future__ import annotations

from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.agent import BusMonitor
from ..instrument.probes import TRANSACTION_BEGIN, TRANSACTION_END
from .constants import DEVSEL_TIMEOUT, READ_COMMANDS
from .parity import parity_of_vectors
from .signals import PciBus, is_asserted
from .transaction import PciTransaction


class PciMonitor(BusMonitor):
    """Protocol checker + transaction recorder.

    :param strict: raise :class:`~repro.errors.ProtocolError` on rule
        violations (otherwise they are only recorded in
        :attr:`violations`).
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: PciBus,
        clk: Signal,
        strict: bool = True,
    ) -> None:
        super().__init__(parent, name, bus, clk, strict)
        self.transactions: list[PciTransaction] = []
        self._current: PciTransaction | None = None
        self._devsel_seen = False
        self._devsel_wait = 0
        self._last_ad = None
        self._last_cbe = None

    @property
    def completed_transactions(self) -> list[PciTransaction]:
        return [t for t in self.transactions if t.end_time is not None]

    def signatures(self) -> list[tuple]:
        """Observable content stream for consistency comparison."""
        return [t.signature() for t in self.completed_transactions]

    # -- the watcher process --------------------------------------------------------

    def _watch(self):
        bus = self.bus
        posedge = self.clk.posedge
        while True:
            yield posedge
            frame = is_asserted(bus.frame_n._value)
            irdy = is_asserted(bus.irdy_n._value)
            trdy = is_asserted(bus.trdy_n._value)
            devsel = is_asserted(bus.devsel_n._value)
            stop = is_asserted(bus.stop_n._value)
            ad = bus.ad._value
            cbe = bus.cbe_n._value

            # Parity check: PAR this cycle covers AD/CBE of the previous one.
            self._check_parity()
            self._last_ad, self._last_cbe = ad, cbe

            if self._current is None:
                if frame:
                    # Address phase.
                    if not ad.is_fully_defined or not cbe.is_fully_defined:
                        self._violation(
                            f"address phase with undefined AD ({ad}) or C/BE ({cbe})"
                        )
                        yield from self._wait_idle(posedge)
                        continue
                    self._current = PciTransaction(
                        cbe.to_int(), ad.to_int(), self.sim.time
                    )
                    self.transactions.append(self._current)
                    probes = self.sim._probes
                    if probes is not None:
                        self._current.txn_id = next(self.sim.txn_ids)
                        probes.emit(
                            TRANSACTION_BEGIN,
                            self.sim.time,
                            self.path,
                            self._current,
                        )
                    self._devsel_seen = False
                    self._devsel_wait = 0
                elif irdy:
                    self._violation("IRDY# asserted with no transaction in progress")
                continue

            # A transaction is in progress.
            transaction = self._current
            if not self._devsel_seen:
                if devsel:
                    self._devsel_seen = True
                    transaction.devsel_time = self.sim.time
                elif not frame and not irdy:
                    # Master abort completed.
                    transaction.terminated_by = "master_abort"
                    self._end_transaction()
                    continue
                else:
                    self._devsel_wait += 1
                    if self._devsel_wait > DEVSEL_TIMEOUT + 3:
                        self._violation(
                            "initiator kept the bus despite DEVSEL# timeout"
                        )
                    continue

            if trdy and not devsel:
                self._violation("TRDY# asserted without DEVSEL#")
            if irdy and trdy:
                # Data transfer this cycle.
                if transaction.first_data_time is None:
                    transaction.first_data_time = self.sim.time
                if transaction.command in READ_COMMANDS:
                    if not ad.is_fully_defined:
                        self._violation(f"read data transfer with undefined AD ({ad})")
                    else:
                        transaction.data.append(ad.to_int())
                else:
                    if not ad.is_fully_defined:
                        self._violation(f"write data transfer with undefined AD ({ad})")
                    else:
                        transaction.data.append(ad.to_int())
                if cbe.is_fully_defined:
                    transaction.byte_enables.append(
                        (~cbe.to_int()) & self.bus.byte_enable_mask
                    )
                else:
                    self._violation(f"data transfer with undefined C/BE# ({cbe})")
                if stop:
                    transaction.terminated_by = "disconnect_with_data"
            elif stop and not trdy and transaction.terminated_by == "completion":
                transaction.terminated_by = (
                    "retry" if not transaction.data else "disconnect_without_data"
                )

            if not frame and not irdy:
                # Bus returned to idle: transaction over.
                self._end_transaction()

    def _end_transaction(self) -> None:
        assert self._current is not None
        self._current.end_time = self.sim.time
        probes = self.sim._probes
        if probes is not None:
            probes.emit(
                TRANSACTION_END, self.sim.time, self.path, self._current
            )
        self._current = None

    def _wait_idle(self, posedge):
        while True:
            yield posedge
            if self.bus.idle:
                return

    def _check_parity(self) -> None:
        if self._last_ad is None or self._last_cbe is None:
            return
        expected = parity_of_vectors(self._last_ad, self._last_cbe)
        if expected is None:
            return
        par = self.bus.par._value
        if not par.is_fully_defined:
            return
        if par.to_int() != expected:
            if self._current is not None:
                self._current.parity_errors += 1
            self._violation(
                f"PAR={par.to_int()} does not cover previous cycle "
                f"(expected {expected})"
            )
