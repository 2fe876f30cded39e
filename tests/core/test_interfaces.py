"""Tests of the two library interface elements against real workloads."""

import pytest

from repro.core import (
    Application,
    CommandType,
    FunctionalBusInterface,
    PciBusInterface,
    expected_memory_image,
    generate_workload,
)
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS, NS, Simulator
from repro.pci import CMD_MEM_READ, CMD_MEM_WRITE, PciOperation
from repro.tlm import AddressRouter, Memory


class TestFunctionalInterface:
    def _platform(self, commands, word_latency=0):
        sim = Simulator()
        memory = Memory(1 << 16)
        router = AddressRouter()
        router.add_target(0, 1 << 16, memory, "mem")
        iface = FunctionalBusInterface(sim, "iface", router,
                                       word_latency=word_latency)
        from repro.hdl import Module

        host = Module(sim, "host")
        app = Application(host, "app", commands, iface)
        return sim, memory, iface, app

    def test_write_read_roundtrip(self):
        commands = [
            CommandType.write(0x100, [1, 2, 3]),
            CommandType.read(0x100, count=3),
        ]
        sim, memory, iface, app = self._platform(commands)
        sim.run(1 * MS)
        assert app.done
        assert app.records[1].response.data == [1, 2, 3]
        assert iface.commands_serviced == 2
        assert memory.dump(0x100, 3) == [1, 2, 3]

    def test_word_latency_is_charged(self):
        # Reads are non-posted: the application waits for the data, so the
        # interface's per-word latency is visible in the record.
        commands = [CommandType.read(0x0, count=10)]
        sim, __, ___, app = self._platform(commands, word_latency=100 * NS)
        sim.run(10 * MS)
        assert app.done
        assert app.records[0].latency >= 1000 * NS

    def test_negative_latency_rejected(self):
        with pytest.raises(Exception):
            self._platform([], word_latency=-1)


class TestPciElementOperation:
    """The PCI element lowers a command to a memory read or write."""

    def test_read(self):
        command = CommandType.read(0x80, count=2, byte_enables=0x3)
        command.corr_id = "app#1"
        op = PciBusInterface._operation(command)
        assert isinstance(op, PciOperation)
        assert op.command == CMD_MEM_READ
        assert op.count == 2
        assert op.byte_enables == 0x3
        assert op.corr_id == "app#1"

    def test_write(self):
        op = PciBusInterface._operation(CommandType.write(0x80, [9]))
        assert op.command == CMD_MEM_WRITE
        assert op.data == [9]


class TestBothPlatformsAgainstGoldenModel:
    """The memory image after a workload must match the golden model,
    on the functional AND the pin-accurate platform."""

    @pytest.mark.parametrize("seed", [1, 17, 99])
    def test_functional_matches_golden(self, seed):
        workload = generate_workload(seed, 30, address_span=0x200,
                                     max_burst=4,
                                     partial_byte_enable_fraction=0.3)
        bundle = build_platform([workload], bus="functional")
        bundle.run(10 * MS)
        golden = expected_memory_image(workload, 0x200 // 4)
        assert bundle.memory.dump(0, len(golden)) == golden

    @pytest.mark.parametrize("seed", [1, 17])
    def test_pci_matches_golden(self, seed):
        workload = generate_workload(seed, 20, address_span=0x200,
                                     max_burst=4,
                                     partial_byte_enable_fraction=0.3)
        bundle = build_platform([workload], bus="pci")
        bundle.run(20 * MS)
        golden = expected_memory_image(workload, 0x200 // 4)
        assert bundle.memory.dump(0, len(golden)) == golden
        assert not bundle.monitor.violations
        assert not any(t.parity_errors for t in bundle.monitor.transactions)

    def test_pci_with_pathological_target(self):
        workload = generate_workload(5, 12, address_span=0x100, max_burst=4)
        config = PciPlatformConfig(wait_states=2, retry_count=1,
                                   disconnect_after=2)
        bundle = build_platform([workload], config, bus="pci")
        bundle.run(50 * MS)
        golden = expected_memory_image(workload, 0x100 // 4)
        assert bundle.memory.dump(0, len(golden)) == golden


class TestPeripheralThroughInterface:
    def test_register_block_reachable_on_both_platforms(self):
        commands = [
            CommandType.write(0x0001_0008, 0x1234),   # DATA register
            CommandType.read(0x0001_0008, count=1),   # inverted readback
            CommandType.read(0x0001_0004, count=1),   # STATUS
        ]
        for bus in ("functional", "pci"):
            bundle = build_platform([commands], bus=bus)
            bundle.run(10 * MS)
            app = bundle.handle.applications[0]
            assert app.records[1].response.data == [0x1234 ^ 0xFFFFFFFF]
            status = app.records[2].response.data[0]
            assert (status >> 4) & 0xF == 1  # one DATA write counted
