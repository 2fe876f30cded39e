"""Tests for the AXI4-Lite substrate and its library interface element."""

from repro.axi import (
    RESP_SLVERR,
    AxiLiteBus,
    AxiLiteBusInterface,
    AxiLiteFunctionalInterface,
    AxiLiteMaster,
    AxiLiteMonitor,
    AxiLiteSlave,
)
from repro.core import (
    CommandType,
    default_library,
    expected_memory_image,
    generate_workload,
)
from repro.errors import ProtocolError
from repro.flow import build_platform
from repro.hdl import Clock, Module
from repro.iface import BusOperation
from repro.kernel import MS, NS, Simulator
from repro.tlm import Memory


class _ReadOnlyMemory(Memory):
    """A store that refuses every write, so the slave reports an error."""

    def write_word(self, address, data, byte_enables=0xF):
        raise ProtocolError(f"write to read-only store at {address:#x}")


class AxiBench(Module):
    def __init__(self, parent, name, accept_latency=0, mem_size=0x1000):
        super().__init__(parent, name)
        self.clock = Clock(self, "clock", period=10 * NS)
        self.bus = AxiLiteBus(self, "bus")
        self.memory = Memory(mem_size)
        self.slave = AxiLiteSlave(
            self, "slave", self.bus, self.clock.clk, self.memory,
            base=0x0, size=mem_size, accept_latency=accept_latency,
        )
        self.monitor = AxiLiteMonitor(self, "mon", self.bus, self.clock.clk)
        self.master = AxiLiteMaster(self, "master", self.bus, self.clock.clk)


def _run_ops(ops, **tb_kwargs):
    sim = Simulator()
    tb = AxiBench(sim, "tb", **tb_kwargs)

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

    def test_strb_byte_lanes(self):
        ops = [
            BusOperation.write(0x0, [0xFFFFFFFF]),
            BusOperation.write(0x0, [0x0], byte_enables=0x3),
            BusOperation.read(0x0),
        ]
        tb = _run_ops(ops)
        assert ops[2].data == [0xFFFF0000]

    def test_accept_latency_stretches(self):
        fast_op = BusOperation.write(0x0, [1])
        _run_ops([fast_op])
        slow_op = BusOperation.write(0x0, [1])
        _run_ops([slow_op], accept_latency=4)
        fast = fast_op.complete_time - fast_op.enqueue_time
        slow = slow_op.complete_time - slow_op.enqueue_time
        assert slow > fast

    def test_unmapped_address_times_out(self):
        op = BusOperation.read(0x8000_0000 - 4)
        tb = _run_ops([op])
        assert op.status == "timeout"
        assert not tb.monitor.transfers

    def test_slave_error_signals_slverr(self):
        bad = BusOperation.write(0x0, [1])

        sim = Simulator()
        tb = AxiBench(sim, "tb")
        tb.slave.store = _ReadOnlyMemory(0x1000)

        def stim():
            yield from tb.master.transact(bad)
            sim.stop()

        sim.spawn(stim, "stim")
        sim.run(10 * MS)
        assert bad.status == "slverr"
        assert [t.resp for t in tb.monitor.transfers] == [RESP_SLVERR]

    def test_monitor_records_transfers(self):
        ops = [
            BusOperation.write(0x10, [7]),
            BusOperation.read(0x10),
        ]
        tb = _run_ops(ops)
        signatures = tb.monitor.signatures()
        assert (0x10, True, 7, 0xF, 0) in signatures
        assert (0x10, False, 7, 0xF, 0) in signatures

    def test_multi_word_ops_become_beat_trains(self):
        ops = [BusOperation.write(0x20, [1, 2, 3, 4])]
        tb = _run_ops(ops)
        # AXI4-Lite has no bursts: four beats at address + 4*i.
        addresses = [t.address for t in tb.monitor.transfers]
        assert addresses == [0x20, 0x24, 0x28, 0x2C]


class TestLibraryElement:
    def test_in_default_library(self):
        library = default_library()
        assert library.lookup("axi4lite", "pin_accurate") \
            is AxiLiteBusInterface
        assert library.lookup("axi4lite", "functional") \
            is AxiLiteFunctionalInterface

    def test_golden_memory_image(self):
        workload = generate_workload(seed=44, n_commands=25,
                                     address_span=0x200, max_burst=4,
                                     partial_byte_enable_fraction=0.3)
        bundle = build_platform([workload], bus="axi4lite")
        bundle.run(100 * MS)
        golden = expected_memory_image(workload, 0x200 // 4)
        assert bundle.memory.dump(0, len(golden)) == golden
        assert not bundle.monitor.violations

    def test_peripheral_reachable(self):
        commands = [
            CommandType.write(0x0001_0008, 0x42),
            CommandType.read(0x0001_0008, count=1),
        ]
        bundle = build_platform([commands], bus="axi4lite")
        bundle.run(10 * MS)
        app = bundle.handle.applications[0]
        assert app.records[1].response.data == [0x42 ^ 0xFFFFFFFF]

    def test_matches_functional_traces(self):
        workload = generate_workload(seed=4, n_commands=15,
                                     address_span=0x200, max_burst=3)
        functional = build_platform([workload], bus="functional").run(100 * MS)
        axi = build_platform([workload], bus="axi4lite").run(100 * MS)
        assert functional.traces == axi.traces

    def test_synthesis_consistency(self):
        workload = generate_workload(seed=5, n_commands=10,
                                     address_span=0x100, max_burst=2)
        pre = build_platform([workload], bus="axi4lite").run(100 * MS)
        post = build_platform([workload], bus="axi4lite", synthesize=True).run(
            200 * MS
        )
        assert pre.traces == post.traces
