"""Failure injection: the checkers must catch broken agents."""

import pytest

from repro.core import CommandType
from repro.errors import ProtocolError
from repro.flow import PciPlatformConfig, build_platform
from repro.hdl import Clock, Module
from repro.kernel import MS, NS, Simulator
from repro.pci import (
    PciBus,
    PciCentralArbiter,
    PciMaster,
    PciMonitor,
    PciOperation,
    PciTarget,
)
from repro.tlm import Memory


class RogueAgent(Module):
    """Drives a wire it does not own, after some delay."""

    def __init__(self, parent, name, bus, clk, start_cycle=6):
        super().__init__(parent, name)
        self.bus = bus
        self.clk = clk
        self.start_cycle = start_cycle
        self._irdy = bus.irdy_n.get_driver(self.path)
        self.thread(self._sabotage)

    def _sabotage(self):
        for __ in range(self.start_cycle):
            yield self.clk.posedge
        # Assert IRDY# with no transaction of our own.
        self._irdy.write(0)
        for __ in range(3):
            yield self.clk.posedge
        self._irdy.release()


class BadParityTarget(PciTarget):
    """A target that computes PAR over inverted data (always wrong)."""

    def _parity_duty(self):
        if self._drove_ad:
            ad = self.bus.ad.read()
            cbe = self.bus.cbe_n.read()
            if ad.is_fully_defined and cbe.is_fully_defined:
                from repro.pci.parity import parity_of

                wrong = 1 - parity_of(ad.to_int(), cbe.to_int())
                self.pins.par.write(wrong)
                return
        self.pins.par.release()


def _bench(sim, target_cls=PciTarget, monitor_strict=False, **target_kwargs):
    top = Module(sim, "top")
    clock = Clock(top, "clock", period=10 * NS)
    bus = PciBus(top, "bus")
    PciCentralArbiter(top, "arb", bus, clock.clk)
    memory = Memory(1 << 12)
    target = target_cls(top, "tgt", bus, clock.clk, memory, base=0,
                        size=1 << 12, **target_kwargs)
    monitor = PciMonitor(top, "mon", bus, clock.clk, strict=monitor_strict)
    master = PciMaster(top, "master", bus, clock.clk)
    return top, clock, bus, master, monitor


class TestRogueDrivers:
    def test_monitor_flags_orphan_irdy(self):
        sim = Simulator()
        top, clock, bus, master, monitor = _bench(sim)
        RogueAgent(top, "rogue", bus, clock.clk)
        sim.run(1 * MS)
        assert any("IRDY#" in v for v in monitor.violations)

    def test_strict_monitor_raises(self):
        sim = Simulator()
        top, clock, bus, master, monitor = _bench(sim, monitor_strict=True)
        RogueAgent(top, "rogue", bus, clock.clk)
        with pytest.raises(ProtocolError):
            sim.run(1 * MS)


class TestBadParity:
    def test_parity_errors_counted(self):
        sim = Simulator()
        top, clock, bus, master, monitor = _bench(
            sim, target_cls=BadParityTarget
        )
        done = []

        def stim():
            op = PciOperation.read(0x0, count=4)
            yield from master.transact(op)
            done.append(op)
            sim.stop()

        sim.spawn(stim, "stim")
        sim.run(5 * MS)
        assert done and done[0].status == "ok"  # data still transfers
        # ...but PAR is flagged on the transaction record.
        assert sum(t.parity_errors for t in monitor.transactions) > 0
        assert any("does not cover" in v for v in monitor.violations)

    def test_good_target_has_no_parity_errors(self):
        sim = Simulator()
        top, clock, bus, master, monitor = _bench(sim)

        def stim():
            yield from master.transact(PciOperation.read(0x0, count=4))
            sim.stop()

        sim.spawn(stim, "stim")
        sim.run(5 * MS)
        assert not any(t.parity_errors for t in monitor.transactions)
        assert not any("does not cover" in v for v in monitor.violations)


class TestBrokenFunctionalModel:
    def test_store_exception_reaches_testbench(self):
        """A functional model that rejects an access aborts the run with
        a diagnosable error rather than silently corrupting data."""

        class VetoMemory(Memory):
            def write_word(self, address, data, byte_enables=0xF):
                raise ProtocolError("write veto")

        sim = Simulator()
        top = Module(sim, "top")
        clock = Clock(top, "clock", period=10 * NS)
        bus = PciBus(top, "bus")
        PciCentralArbiter(top, "arb", bus, clock.clk)
        PciTarget(top, "tgt", bus, clock.clk, VetoMemory(1 << 12),
                  base=0, size=1 << 12)
        master = PciMaster(top, "master", bus, clock.clk)

        def stim():
            yield from master.transact(PciOperation.write(0x0, [1]))

        sim.spawn(stim, "stim")
        with pytest.raises(ProtocolError, match="write veto"):
            sim.run(1 * MS)


class TestApplicationLevelErrors:
    def test_master_abort_surfaces_in_response_status(self):
        """A read from an unmapped address returns a failed DataType to
        the application instead of hanging it."""
        commands = [CommandType.read(0x8000_0000, count=1)]
        bundle = build_platform(
            [commands], PciPlatformConfig(monitor_strict=False), bus="pci"
        )
        bundle.run(10 * MS)
        app = bundle.handle.applications[0]
        assert app.done
        response = app.records[0].response
        assert response is not None
        assert not response.ok
        assert response.status == "master_abort"
        endings = [t.terminated_by for t in bundle.monitor.transactions]
        assert endings == ["master_abort"]
