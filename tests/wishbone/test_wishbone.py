"""Tests for the Wishbone substrate and its library interface element."""

from repro.core import CommandType, default_library, generate_workload
from repro.core import expected_memory_image
from repro.errors import ProtocolError
from repro.flow import PciPlatformConfig, build_platform
from repro.hdl import Clock, Module
from repro.iface import BusOperation
from repro.kernel import MS, NS, Simulator
from repro.tlm import Memory
from repro.wishbone import (
    WishboneBus,
    WishboneBusInterface,
    WishboneFunctionalInterface,
    WishboneMaster,
    WishboneMonitor,
    WishboneSlave,
)


class _ReadOnlyMemory(Memory):
    """A store that refuses every write, so the slave reports an error."""

    def write_word(self, address, data, byte_enables=0xF):
        raise ProtocolError(f"write to read-only store at {address:#x}")


class WbBench(Module):
    def __init__(self, parent, name, ack_latency=0, mem_size=0x1000):
        super().__init__(parent, name)
        self.clock = Clock(self, "clock", period=10 * NS)
        self.bus = WishboneBus(self, "bus")
        self.memory = Memory(mem_size)
        self.slave = WishboneSlave(
            self, "slave", self.bus, self.clock.clk, self.memory,
            base=0x0, size=mem_size, ack_latency=ack_latency,
        )
        self.monitor = WishboneMonitor(self, "mon", self.bus, self.clock.clk)
        self.master = WishboneMaster(self, "master", self.bus, self.clock.clk)


def _run_ops(ops, **tb_kwargs):
    sim = Simulator()
    tb = WbBench(sim, "tb", **tb_kwargs)

    def stim():
        for op in ops:
            yield from tb.master.transact(op)
        sim.stop()

    sim.spawn(stim, "stim")
    sim.run(10 * MS)
    return tb


class TestPinLevel:
    def test_write_read_roundtrip(self):
        ops = [
            BusOperation.write(0x40, [0xAA, 0xBB, 0xCC]),
            BusOperation.read(0x40, count=3),
        ]
        tb = _run_ops(ops)
        assert ops[0].status == "ok"
        assert ops[1].data == [0xAA, 0xBB, 0xCC]
        assert not tb.monitor.violations

    def test_sel_byte_lanes(self):
        ops = [
            BusOperation.write(0x0, [0xFFFFFFFF]),
            BusOperation.write(0x0, [0x0], byte_enables=0x3),
            BusOperation.read(0x0),
        ]
        tb = _run_ops(ops)
        assert ops[2].data == [0xFFFF0000]

    def test_ack_latency_stretches(self):
        fast_op = BusOperation.write(0x0, [1])
        _run_ops([fast_op])
        slow_op = BusOperation.write(0x0, [1])
        _run_ops([slow_op], ack_latency=4)
        fast_cycles = fast_op.complete_time - fast_op.enqueue_time
        slow_cycles = slow_op.complete_time - slow_op.enqueue_time
        assert slow_cycles > fast_cycles

    def test_unmapped_address_times_out(self):
        op = BusOperation.read(0x8000_0000)
        tb = _run_ops([op])
        assert op.status == "timeout"
        assert not tb.monitor.transfers

    def test_slave_error_propagates(self):
        # ROM region at offset beyond memory -> ProtocolError -> ERR.
        op = BusOperation.write(0x1000 - 4, [1])
        tb = _run_ops([op], mem_size=0x1000)
        assert op.status == "ok"  # last valid word is fine
        bad = BusOperation.write(0x0, [1], byte_enables=0xF)
        # Force an internal store error with a read-only store.
        sim = Simulator()
        tb = WbBench(sim, "tb")
        tb.slave.store = _ReadOnlyMemory(0x1000)

        def stim():
            yield from tb.master.transact(bad)
            sim.stop()

        sim.spawn(stim, "stim")
        sim.run(10 * MS)
        assert bad.status == "bus_error"
        assert [t.terminated_by for t in tb.monitor.transfers] == ["err"]

    def test_monitor_records_transfers(self):
        ops = [
            BusOperation.write(0x10, [7]),
            BusOperation.read(0x10),
        ]
        tb = _run_ops(ops)
        signatures = tb.monitor.signatures()
        assert (0x10, True, 7, 0xF, "ack") in signatures
        assert (0x10, False, 7, 0xF, "ack") in signatures


class TestLibraryElement:
    def test_in_default_library(self):
        library = default_library()
        assert library.lookup("wishbone", "pin_accurate") is WishboneBusInterface
        assert (
            library.lookup("wishbone", "functional")
            is WishboneFunctionalInterface
        )

    def test_golden_memory_image(self):
        workload = generate_workload(seed=44, n_commands=25,
                                     address_span=0x200, max_burst=4,
                                     partial_byte_enable_fraction=0.3)
        bundle = build_platform([workload], bus="wishbone")
        bundle.run(100 * MS)
        golden = expected_memory_image(workload, 0x200 // 4)
        assert bundle.memory.dump(0, len(golden)) == golden
        assert not bundle.monitor.violations

    def test_peripheral_reachable(self):
        commands = [
            CommandType.write(0x0001_0008, 0x42),
            CommandType.read(0x0001_0008, count=1),
        ]
        bundle = build_platform([commands], bus="wishbone")
        bundle.run(10 * MS)
        app = bundle.handle.applications[0]
        assert app.records[1].response.data == [0x42 ^ 0xFFFFFFFF]


class TestCrossBusPortability:
    """The methodology's punchline: the application never changes."""

    def test_same_traces_on_three_platforms(self):
        workload = generate_workload(seed=4, n_commands=15,
                                     address_span=0x200, max_burst=3)
        functional = build_platform([workload], bus="functional").run(100 * MS)
        pci = build_platform([workload], bus="pci").run(100 * MS)
        wishbone = build_platform([workload], bus="wishbone").run(100 * MS)
        assert functional.traces == pci.traces == wishbone.traces

    def test_wishbone_synthesis_consistency(self):
        workload = generate_workload(seed=5, n_commands=10,
                                     address_span=0x100, max_burst=2)
        pre = build_platform([workload], bus="wishbone").run(100 * MS)
        post = build_platform([workload], bus="wishbone", synthesize=True).run(
            200 * MS
        )
        assert pre.traces == post.traces

    def test_wait_states_dont_change_traces(self):
        workload = generate_workload(seed=6, n_commands=10,
                                     address_span=0x100)
        fast = build_platform([workload], bus="wishbone").run(100 * MS)
        slow = build_platform(
            [workload], PciPlatformConfig(wait_states=3), bus="wishbone"
        ).run(200 * MS)
        assert fast.traces == slow.traces
        assert slow.sim_time > fast.sim_time
