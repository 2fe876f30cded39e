"""Tests for the shared pin-level agent skeleton (`repro.iface.agent`)."""

import pytest

from repro.axi import AxiLiteBus, AxiLiteBusInterface, AxiLiteMaster, AxiLiteMonitor
from repro.core import CommandType
from repro.errors import ProtocolError
from repro.hdl import Clock
from repro.iface import BusOperation
from repro.kernel import NS, Simulator
from repro.pci import PciBus, PciMaster, PciMonitor, PciOperation
from repro.wishbone import (
    WishboneBus,
    WishboneBusInterface,
    WishboneMaster,
    WishboneMonitor,
)

#: Bus name -> (wire bundle, its byte-lane width attribute, element).
BUSES = {
    "wishbone": (WishboneBus, "sel_width", WishboneBusInterface),
    "axi4lite": (AxiLiteBus, "strb_width", AxiLiteBusInterface),
}


def _lanes(bus_name: str, data_width: int = 32) -> int:
    bus_cls, attribute, _ = BUSES[bus_name]
    return getattr(bus_cls(Simulator(), "bus", data_width=data_width),
                   attribute)


@pytest.mark.parametrize("bus_name", sorted(BUSES))
class TestBusOperation:
    def test_factories(self, bus_name):
        lanes = _lanes(bus_name)
        read = BusOperation.read(0x10, count=2, byte_lanes=lanes)
        assert not read.is_write and read.count == 2 and read.data == []
        write = BusOperation.write(0x10, 5, byte_lanes=lanes)
        assert write.is_write and write.data == [5]
        assert write.byte_enables == (1 << lanes) - 1 == 0xF

    def test_validation(self, bus_name):
        lanes = _lanes(bus_name)
        with pytest.raises(ProtocolError):
            BusOperation.read(0x2, byte_lanes=lanes)  # unaligned
        with pytest.raises(ProtocolError):
            BusOperation.write(0x0, [], byte_lanes=lanes)
        with pytest.raises(ProtocolError):
            BusOperation.read(0x0, count=0, byte_lanes=lanes)
        with pytest.raises(ProtocolError):
            BusOperation.read(0x0, byte_enables=0x100, byte_lanes=lanes)
        with pytest.raises(ProtocolError):
            BusOperation(False, 0x0, data=[1], byte_lanes=lanes)

    def test_wide_byte_enables_need_a_wide_bus(self, bus_name):
        # 8 lanes only validate when the operation targets a 64-bit bus.
        with pytest.raises(ProtocolError):
            BusOperation.write(0x0, [1], byte_enables=0xFF,
                               byte_lanes=_lanes(bus_name))
        op = BusOperation.write(0x0, [1], byte_enables=0xFF,
                                byte_lanes=_lanes(bus_name, 64))
        assert op.byte_enables == 0xFF and op.byte_lanes == 8


@pytest.mark.parametrize("bus_name", sorted(BUSES))
def test_element_lowers_commands_to_bus_operations(bus_name):
    bus_cls, _, element_cls = BUSES[bus_name]
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    bus = bus_cls(sim, "bus", data_width=64)
    element = element_cls(sim, "iface", bus, clock.clk)
    command = CommandType.write(0x40, [1, 2], byte_enables=0x3)
    command.corr_id = "app#0"
    write = element._operation(command)
    assert type(write) is BusOperation
    assert (write.is_write, write.address, write.data, write.byte_enables,
            write.byte_lanes, write.corr_id) == (
        True, 0x40, [1, 2], 0x3, 8, "app#0")
    read = element._operation(CommandType.read(0x40, count=3))
    assert (read.is_write, read.count, read.data, read.byte_enables) == (
        False, 3, [], 0xF)


#: Bus name -> (wire bundle, master, monitor, an operation, done event).
AGENTS = {
    "wishbone": (WishboneBus, WishboneMaster, WishboneMonitor,
                 BusOperation.read(0x0), "op_done"),
    "axi4lite": (AxiLiteBus, AxiLiteMaster, AxiLiteMonitor,
                 BusOperation.read(0x0), "op_done"),
    "pci": (PciBus, PciMaster, PciMonitor, PciOperation.read(0x0),
            "op_done_mem_read"),
}


@pytest.mark.parametrize("bus_name", sorted(AGENTS))
def test_agents_keep_their_process_and_event_names(bus_name):
    bus_cls, master_cls, monitor_cls, operation, done_name = AGENTS[bus_name]
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    bus = bus_cls(sim, "bus")
    master = master_cls(sim, "master", bus, clock.clk)
    monitor = monitor_cls(sim, "monitor", bus, clock.clk)
    assert [p.name for p in master._processes] == ["master.engine"]
    assert [p.name for p in monitor._processes] == ["monitor.watch"]
    assert master._op_available.name == "master.op_available"
    assert master.submit(operation).name == f"master.{done_name}"


class TestViolationPath:
    """A bus monitor reports a broken rule through one path: log the
    text, report it as a detection, raise when strict."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_logged_detected_and_raised(self, strict):
        sim = Simulator()
        clk = Clock(sim, "clock", period=10 * NS).clk
        monitor = WishboneMonitor(sim, "mon", WishboneBus(sim, "wb"), clk,
                                  strict=strict)
        if strict:
            with pytest.raises(ProtocolError) as raised:
                monitor._violation("ACK without CYC")
            assert type(raised.value) is ProtocolError
            assert str(raised.value) == "mon: 0 fs: ACK without CYC"
        else:
            monitor._violation("ACK without CYC")
        assert monitor.violations == ["0 fs: ACK without CYC"]
        assert [(d.source, d.message) for d in sim.detections] == [
            ("mon", "0 fs: ACK without CYC")
        ]
