"""Pin-level PCI master (initiator).

The master owns REQ#, FRAME#, IRDY# and drives AD / C/BE# / PAR during
address phases and write data phases. Operations are queued with
:meth:`PciMaster.submit` and executed in order by the engine process;
:meth:`transact` is the blocking helper for thread processes.

Termination handling implemented: normal completion, target retry
(STOP# before data), disconnect with data (STOP# with TRDY#), and
master abort (DEVSEL# timeout).
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.bitvector import LogicVector
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.agent import PinMaster
from .constants import (
    DEVSEL_TIMEOUT,
    STATUS_MASTER_ABORT,
    STATUS_OK,
)
from .parity import parity_of
from .signals import PciAgentPins, PciBus, is_asserted
from .transaction import PciOperation


class PciMaster(PinMaster):
    """A bus initiator with an in-order operation queue.

    :param bus: the wire bundle.
    :param clk: bus clock.
    :param master_index: which REQ#/GNT# pair this master uses.
    :param max_retries: give up (ProtocolError) after this many retry
        terminations of a single operation.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: PciBus,
        clk: Signal,
        master_index: int = 0,
        max_retries: int = 1000,
    ) -> None:
        if not 0 <= master_index < bus.n_masters:
            raise ProtocolError(
                f"master index {master_index} out of range "
                f"(bus has {bus.n_masters} REQ#/GNT# pairs)"
            )
        super().__init__(parent, name, bus, clk)
        self.max_retries = max_retries
        self.pins = PciAgentPins(bus, self.path)
        self.req_n = bus.req_n[master_index]
        self.gnt_n = bus.gnt_n[master_index]
        self._drove_ad = False
        #: When True, read data phases are checked against the PAR the
        #: target drives one cycle later (PERR#-style detection); a
        #: mismatch flags ``operation.parity_error``.
        self.check_parity = False
        self._parity_pending: tuple[int, PciOperation] | None = None

    def _done_event_name(self, operation: PciOperation) -> str:
        return f"op_done_{operation.command_name}"

    def _idle(self) -> None:
        self.req_n.write(1)

    def _execute(self, operation: PciOperation, posedge):
        """Re-attempt after retries and disconnects until every word is
        through or the master aborts."""
        words_done = 0
        while True:
            outcome, words_done = yield from self._attempt(
                operation, words_done, posedge
            )
            if outcome == "abort":
                return STATUS_MASTER_ABORT
            if words_done >= operation.count:
                # Either a clean completion or a disconnect that landed
                # exactly on the final word.
                return STATUS_OK
            # Retried or disconnected with words remaining: go again.
            operation.retries += 1
            if operation.retries > self.max_retries:
                raise ProtocolError(
                    f"{self.path}: {operation!r} exceeded {self.max_retries} retries"
                )

    # -- one arbitration + transaction attempt --------------------------------------

    def _attempt(self, operation: PciOperation, words_done: int, posedge):
        bus = self.bus
        pins = self.pins
        remaining = operation.count - words_done
        address = operation.address + 4 * words_done

        # Arbitration: request, wait for grant on an idle bus.
        self.req_n.write(0)
        while True:
            yield posedge
            self._parity_duty()
            if is_asserted(self.gnt_n._value) and bus.idle:
                break
        if operation.grant_time is None:
            operation.grant_time = self.sim.time

        # Address phase.
        pins.frame_n.write(0)
        pins.irdy_n.write(1)
        pins.ad.write(LogicVector(bus.ad_width, address))
        pins.cbe_n.write(LogicVector(bus.cbe_width, operation.command))
        self._drive_ad_flag(True)
        yield posedge
        self._parity_duty()

        # First data phase.
        wire_enables = (~operation.byte_enables) & bus.byte_enable_mask
        pins.cbe_n.write(LogicVector(bus.cbe_width, wire_enables))
        pins.irdy_n.write(0)
        if operation.is_write:
            pins.ad.write(LogicVector(bus.ad_width, operation.data[words_done]))
            self._drive_ad_flag(True)
        else:
            pins.ad.release()
            self._drive_ad_flag(False)
        if remaining == 1:
            pins.frame_n.write(1)
        frame_low = remaining > 1

        devsel_seen = False
        devsel_wait = 0
        transferred = 0
        while True:
            yield posedge
            self._parity_duty()
            trdy = is_asserted(bus.trdy_n._value)
            devsel = is_asserted(bus.devsel_n._value)
            stop = is_asserted(bus.stop_n._value)

            if not devsel_seen:
                if devsel:
                    devsel_seen = True
                else:
                    devsel_wait += 1
                    if devsel_wait > DEVSEL_TIMEOUT:
                        yield from self._back_off(frame_low, posedge)
                        return "abort", words_done
                    continue

            transfer_now = trdy  # our IRDY# is asserted throughout
            if transfer_now:
                if operation.is_read:
                    data = bus.ad._value
                    if not data.is_fully_defined:
                        raise ProtocolError(
                            f"{self.path}: read data undefined ({data}) at "
                            f"{self.sim.time_str()}"
                        )
                    operation.data.append(data.to_int())
                    if self.check_parity:
                        cbe = bus.cbe_n._value
                        if cbe.is_fully_defined:
                            self._parity_pending = (
                                parity_of(data.to_int(), cbe.to_int(),
                                          self.bus.ad_width),
                                operation,
                            )
                transferred += 1
                words_done += 1

            if stop:
                yield from self._back_off(frame_low, posedge)
                return "stopped", words_done

            if transfer_now:
                if transferred == remaining:
                    # Final transfer done (FRAME# was already deasserted).
                    pins.irdy_n.write(1)
                    pins.ad.release()
                    self._drive_ad_flag(False)
                    pins.cbe_n.release()
                    yield posedge
                    self._parity_duty()
                    self._release_bus()
                    return "done", words_done
                # Set up the next data phase.
                if operation.is_write:
                    pins.ad.write(LogicVector(bus.ad_width, operation.data[words_done]))
                    self._drive_ad_flag(True)
                if remaining - transferred == 1:
                    pins.frame_n.write(1)
                    frame_low = False

    def _back_off(self, frame_still_low: bool, posedge):
        """Orderly termination: FRAME# up, then IRDY# up, then release."""
        pins = self.pins
        if frame_still_low:
            pins.frame_n.write(1)
            yield posedge
            self._parity_duty()
        pins.irdy_n.write(1)
        pins.ad.release()
        self._drive_ad_flag(False)
        pins.cbe_n.release()
        yield posedge
        self._parity_duty()
        self._release_bus()

    def _release_bus(self) -> None:
        self.pins.release_all()
        self._drove_ad = False

    # -- parity -----------------------------------------------------------------------

    def _drive_ad_flag(self, driving: bool) -> None:
        self._drove_ad = driving

    def _parity_duty(self) -> None:
        """Drive PAR for the cycle that just ended if we owned AD in it.

        Also the check point for read-data parity: PAR lags AD by one
        cycle, so the expectation recorded at a data transfer is compared
        against the wire here, one posedge later.
        """
        pending = self._parity_pending
        if pending is not None:
            self._parity_pending = None
            expected, operation = pending
            par = self.bus.par._value
            if par.is_fully_defined and par.to_int() != expected:
                operation.parity_error = True
        if self._drove_ad:
            ad = self.bus.ad._value
            cbe = self.bus.cbe_n._value
            if ad.is_fully_defined and cbe.is_fully_defined:
                self.pins.par.write(
                    parity_of(ad.to_int(), cbe.to_int(), self.bus.ad_width)
                )
                return
        self.pins.par.release()
