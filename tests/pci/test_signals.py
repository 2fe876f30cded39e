"""Unit tests for the PCI wire bundle and sampling helpers."""

import pytest

from repro.errors import ProtocolError
from repro.hdl import LogicVector, Module
from repro.kernel import Simulator, Timeout
from repro.pci import (
    PciAgentPins,
    PciBus,
    PciMaster,
    is_asserted,
)


@pytest.fixture
def sim():
    return Simulator()


class TestSamplingHelpers:
    def test_driven_zero_is_asserted(self):
        assert is_asserted(LogicVector(1, 0))

    def test_driven_one_is_deasserted(self):
        assert not is_asserted(LogicVector(1, 1))

    def test_floating_is_deasserted(self):
        assert not is_asserted(LogicVector.high_z(1))

    def test_unknown_is_deasserted(self):
        assert not is_asserted(LogicVector.unknown(1))


class TestPciBus:
    def test_wire_inventory(self, sim):
        bus = PciBus(sim, "bus", n_masters=3)
        assert bus.ad.width == 32
        assert bus.cbe_n.width == 4
        assert len(bus.req_n) == 3
        assert len(bus.gnt_n) == 3
        assert len(bus.shared_signals()) == 8

    def test_idle_when_floating(self, sim):
        bus = PciBus(sim, "bus")
        assert bus.idle

    def test_busy_when_frame_driven(self, sim):
        bus = PciBus(sim, "bus")
        driver = bus.frame_n.get_driver("tester")

        def proc():
            driver.write(0)
            yield Timeout(0)

        sim.spawn(proc, "p")
        sim.run(10)
        assert not bus.idle


class TestAgentPins:
    def test_release_all_floats_everything(self, sim):
        bus = PciBus(sim, "bus")
        pins = PciAgentPins(bus, "agent")

        def proc():
            pins.frame_n.write(0)
            pins.ad.write(0x1234)
            yield Timeout(0)
            pins.release_all()
            yield Timeout(0)

        sim.spawn(proc, "p")
        sim.run(10)
        assert bus.idle
        assert set(str(bus.ad.read())) == {"Z"}

    def test_master_index_out_of_range(self, sim):
        top = Module(sim, "top")
        bus = PciBus(top, "bus", n_masters=1)
        clk = top.signal("clk", width=1, init=0)
        with pytest.raises(ProtocolError):
            PciMaster(top, "m", bus, clk, master_index=1)
