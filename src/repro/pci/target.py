"""Pin-level PCI target.

A :class:`PciTarget` claims memory transactions that hit its base
address register, answers with configurable DEVSEL# decode latency and
per-word wait states, and can terminate early with retry or disconnect
via STOP#. Data lives in any :class:`~repro.tlm.interfaces.TlmTarget`
(functional memory, register block, DMA...), so the same IP model serves
both the functional and the pin-accurate platform — the substitution at
the heart of the paper's refinement flow.

Wire conventions (real PCI): the command is carried unencoded on C/BE#
during the address phase; during data phases C/BE# carry *active-low*
byte enables (lane enabled = 0 on the wire). Reads insert the mandatory
turnaround cycle between the address phase and the first data phase.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.bitvector import LogicVector
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..tlm.interfaces import TlmTarget
from .config_space import PciConfigSpace
from .constants import (
    CMD_CONFIG_READ,
    CMD_CONFIG_WRITE,
    MEMORY_COMMANDS,
    READ_COMMANDS,
)
from .parity import parity_of
from .signals import PciAgentPins, PciBus, is_asserted


class _MasterWentIdle(Exception):
    """Internal: the initiator abandoned the transaction."""


class PciTarget(Module):
    """A memory-mapped target device on the bus.

    :param bus: the wire bundle.
    :param clk: bus clock signal.
    :param store: the functional model behind this target.
    :param base: BAR base byte address (word aligned).
    :param size: BAR window size in bytes.
    :param decode_latency: clocks from address phase to DEVSEL# (1 =
        fast, 2 = medium, ...).
    :param wait_states: TRDY# delay inserted before every data phase.
    :param retry_count: force this many retry terminations at the start
        of every new transaction (then accept it).
    :param disconnect_after: accept at most this many words per
        transaction, then disconnect with data (None = unlimited).
    :param config_space: optional :class:`PciConfigSpace`. When present,
        the memory window comes from the programmable BAR0 (the static
        *base*/*size* become irrelevant once software reprograms it) and
        the target claims type-0 configuration cycles addressed to it.
    :param idsel_index: which AD line (16 + index) acts as this
        device's IDSEL during configuration cycles.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: PciBus,
        clk: Signal,
        store: TlmTarget,
        base: int,
        size: int,
        decode_latency: int = 1,
        wait_states: int = 0,
        retry_count: int = 0,
        disconnect_after: int | None = None,
        config_space: PciConfigSpace | None = None,
        idsel_index: int = 0,
    ) -> None:
        super().__init__(parent, name)
        if base % 4 or size <= 0 or size % 4:
            raise ProtocolError(f"bad BAR base={base:#x} size={size:#x}")
        if decode_latency < 1:
            raise ProtocolError("decode latency must be >= 1 clock")
        if wait_states < 0:
            raise ProtocolError("wait states must be >= 0")
        if disconnect_after is not None and disconnect_after < 1:
            raise ProtocolError("disconnect_after must be >= 1 word")
        self.bus = bus
        self.clk = clk
        self.store = store
        self.base = base
        self.size = size
        self.decode_latency = decode_latency
        self.wait_states = wait_states
        self.retry_count = retry_count
        self.disconnect_after = disconnect_after
        if not 0 <= idsel_index <= 15:
            raise ProtocolError(f"idsel_index must be 0..15, got {idsel_index}")
        self.config_space = config_space
        self.idsel_index = idsel_index
        self.pins = PciAgentPins(bus, self.path)
        self._drove_ad = False
        # Statistics.
        self.transactions_claimed = 0
        self.words_served = 0
        self.retries_issued = 0
        self.disconnects_issued = 0
        self._retries_left = retry_count
        self.thread(self._run, "protocol")

    def decodes(self, address: int) -> bool:
        if self.config_space is not None:
            return self.config_space.decodes_memory(address)
        return self.base <= address < self.base + self.size

    def _idsel_hit(self, address: int) -> bool:
        """Configuration cycle addressed to this device's IDSEL line."""
        return bool(address & (1 << (16 + self.idsel_index)))

    # -- protocol engine ----------------------------------------------------------

    def _run(self):
        bus = self.bus
        posedge = self.clk.posedge
        while True:
            yield posedge
            self._parity_duty()
            if not is_asserted(bus.frame_n._value):
                continue
            ad = bus.ad._value
            cbe = bus.cbe_n._value
            if not (ad.is_fully_defined and cbe.is_fully_defined):
                yield from self._wait_bus_idle(posedge)
                continue
            address = ad.to_int()
            command = cbe.to_int()
            if command in MEMORY_COMMANDS and self.decodes(address):
                window = (
                    self.config_space.bar0_base
                    if self.config_space is not None else self.base
                )
                read_fn = lambda a: self.store.read_word(a - window)
                write_fn = lambda a, d, e: self.store.write_word(
                    a - window, d, e
                )
            elif (
                command in (CMD_CONFIG_READ, CMD_CONFIG_WRITE)
                and self.config_space is not None
                and self._idsel_hit(address)
            ):
                space = self.config_space
                read_fn = lambda a: space.config_read(a & 0xFF)
                write_fn = lambda a, d, e: space.config_write(a & 0xFF, d, e)
            else:
                yield from self._wait_bus_idle(posedge)
                continue
            try:
                yield from self._claimed_transaction(
                    address, command, read_fn, write_fn, posedge
                )
            except _MasterWentIdle:
                pass
            self.pins.release_all()
            self._drove_ad = False

    def _wait_bus_idle(self, posedge):
        """Sit out a transaction addressed to someone else."""
        while True:
            yield posedge
            if self.bus.idle:
                return

    def _tick(self, posedge):
        """One clock: advance, fulfil parity duty, detect master abandon."""
        yield posedge
        self._parity_duty()
        if self.bus.idle:
            raise _MasterWentIdle()

    def _claimed_transaction(self, address: int, command: int, read_fn,
                             write_fn, posedge):
        pins = self.pins
        bus = self.bus
        self.transactions_claimed += 1
        is_read = command in READ_COMMANDS

        # DEVSEL# appears decode_latency clocks after the address phase.
        for __ in range(self.decode_latency - 1):
            yield from self._tick(posedge)
        pins.devsel_n.write(0)

        if self._retries_left > 0:
            self._retries_left -= 1
            self.retries_issued += 1
            yield from self._terminate(posedge, retry=True)
            return
        self._retries_left = self.retry_count

        if is_read:
            # Mandatory bus turnaround before the target may drive AD.
            pins.trdy_n.write(1)
            yield from self._tick(posedge)

        current_address = address
        words_done = 0
        while True:
            for __ in range(self.wait_states):
                pins.trdy_n.write(1)
                if self._drove_ad:
                    pins.ad.release()
                    self._drove_ad = False
                yield from self._tick(posedge)

            stopping = (
                self.disconnect_after is not None
                and words_done + 1 >= self.disconnect_after
            )
            if is_read:
                value = read_fn(current_address)
                pins.ad.write(LogicVector(bus.ad_width, value))
                self._drove_ad = True
            pins.trdy_n.write(0)
            if stopping:
                pins.stop_n.write(0)

            # Wait for the transfer edge (IRDY# and TRDY# sampled low).
            while True:
                yield from self._tick(posedge)
                if is_asserted(bus.irdy_n._value) and is_asserted(bus.trdy_n._value):
                    break
            frame_still = is_asserted(bus.frame_n._value)
            if not is_read:
                data = bus.ad._value
                cbe = bus.cbe_n._value
                if not data.is_fully_defined or not cbe.is_fully_defined:
                    raise ProtocolError(
                        f"{self.path}: write data phase with undefined AD/CBE "
                        f"at {self.sim.time_str()}"
                    )
                enables = (~cbe.to_int()) & bus.byte_enable_mask
                write_fn(current_address, data.to_int(), enables)
            self.words_served += 1
            words_done += 1
            current_address += 4

            if stopping:
                self.disconnects_issued += 1
                yield from self._terminate(posedge, retry=False)
                return
            if not frame_still:
                # That was the final data phase; hand the bus back.
                yield from self._final_parity(posedge)
                return

    def _terminate(self, posedge, retry: bool):
        """STOP# termination; hold STOP# until the master backs off."""
        pins = self.pins
        pins.trdy_n.write(1)
        pins.stop_n.write(0)
        if self._drove_ad:
            pins.ad.release()
            self._drove_ad = False
        while True:
            yield posedge
            self._parity_duty()
            if self.bus.idle:
                return

    def _final_parity(self, posedge):
        """One extra cycle to drive PAR for the last read data phase."""
        pins = self.pins
        pins.trdy_n.write(1)
        pins.devsel_n.write(1)
        if self._drove_ad:
            pins.ad.release()
            # The flag stays set so _parity_duty covers the final cycle.
        yield posedge
        self._parity_duty()
        self._drove_ad = False

    # -- parity ----------------------------------------------------------------------

    def _parity_duty(self) -> None:
        """Drive PAR for the cycle that just ended if we owned AD in it."""
        if self._drove_ad:
            ad = self.bus.ad._value
            cbe = self.bus.cbe_n._value
            if ad.is_fully_defined and cbe.is_fully_defined:
                self.pins.par.write(
                    parity_of(ad.to_int(), cbe.to_int(), self.bus.ad_width)
                )
                return
        self.pins.par.release()
