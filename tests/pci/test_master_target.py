"""Integration tests of the PCI master/target pin-level protocol."""

import pytest

from repro.kernel import MS, NS
from repro.pci import (
    PciOperation,
    STATUS_MASTER_ABORT,
    STATUS_OK,
)


def run_ops(sim, tb, ops, master=None, max_time=5 * MS):
    """Drive operations through a master; returns them completed."""
    master = master or tb.master
    done = {"flag": False}

    def stimulus():
        for op in ops:
            yield from master.transact(op)
        done["flag"] = True
        sim.stop()

    sim.spawn(stimulus, "stimulus")
    sim.run(max_time)
    assert done["flag"], "operations did not complete in time"
    return ops


class TestSingleTransfers:
    def test_single_write_then_read(self, tb_pair):
        sim, tb = tb_pair
        write = PciOperation.write(0x1000, 0xDEADBEEF)
        read = PciOperation.read(0x1000)
        run_ops(sim, tb, [write, read])
        assert write.status == STATUS_OK
        assert read.status == STATUS_OK
        assert read.data == [0xDEADBEEF]
        assert tb.memory.read_word(0) == 0xDEADBEEF

    def test_burst_write_read(self, tb_pair):
        sim, tb = tb_pair
        payload = [i * 0x1111 for i in range(8)]
        write = PciOperation.write(0x1000, payload)
        read = PciOperation.read(0x1000, count=8)
        run_ops(sim, tb, [write, read])
        assert read.data == payload

    def test_byte_enables_reach_memory(self, tb_pair):
        sim, tb = tb_pair
        ops = [
            PciOperation.write(0x1000, [0xFFFFFFFF]),
            PciOperation.write(0x1000, [0x0], byte_enables=0b0011),
            PciOperation.read(0x1000),
        ]
        run_ops(sim, tb, ops)
        assert ops[2].data == [0xFFFF0000]

    def test_latency_measured(self, tb_pair):
        sim, tb = tb_pair
        op = PciOperation.read(0x1000)
        run_ops(sim, tb, [op])
        assert op.latency is not None
        assert 0 < op.latency < 500 * NS


class TestMasterAbort:
    def test_unclaimed_address_aborts(self, tb_pair):
        sim, tb = tb_pair
        op = PciOperation.read(0x8000_0000)
        run_ops(sim, tb, [op])
        assert op.status == STATUS_MASTER_ABORT
        assert op.data == []
        endings = [t.terminated_by for t in tb.monitor.transactions]
        assert endings == ["master_abort"]

    def test_bus_usable_after_abort(self, tb_pair):
        sim, tb = tb_pair
        ops = [
            PciOperation.read(0x8000_0000),
            PciOperation.write(0x1000, 0x42),
            PciOperation.read(0x1000),
        ]
        run_ops(sim, tb, ops)
        assert ops[2].status == STATUS_OK
        assert ops[2].data == [0x42]


class TestWaitStates:
    @pytest.mark.parametrize("waits", [1, 2, 4])
    def test_data_survives_wait_states(self, make_tb, waits):
        sim, tb = make_tb(wait_states=waits)
        payload = [0xA0 + i for i in range(4)]
        write = PciOperation.write(0x1000, payload)
        read = PciOperation.read(0x1000, count=4)
        run_ops(sim, tb, [write, read])
        assert read.data == payload
        assert not tb.monitor.violations

    def test_wait_states_stretch_transactions(self, make_tb):
        sim_fast, tb_fast = make_tb(wait_states=0)
        fast = PciOperation.write(0x1000, [1, 2, 3, 4])
        run_ops(sim_fast, tb_fast, [fast])
        sim_slow, tb_slow = make_tb(wait_states=3)
        slow = PciOperation.write(0x1000, [1, 2, 3, 4])
        run_ops(sim_slow, tb_slow, [slow])
        assert slow.latency > fast.latency

    def test_decode_latency_stretches(self, make_tb):
        sim_fast, tb_fast = make_tb(decode_latency=1)
        fast = PciOperation.read(0x1000)
        run_ops(sim_fast, tb_fast, [fast])
        sim_slow, tb_slow = make_tb(decode_latency=4)
        slow = PciOperation.read(0x1000)
        run_ops(sim_slow, tb_slow, [slow])
        assert slow.latency > fast.latency


class TestRetryAndDisconnect:
    def test_retry_eventually_completes(self, make_tb):
        sim, tb = make_tb(retry_count=3)
        op = PciOperation.write(0x1000, 0x77)
        run_ops(sim, tb, [op])
        assert op.status == STATUS_OK
        assert op.retries == 3
        endings = [t.terminated_by for t in tb.monitor.completed_transactions]
        assert endings.count("retry") == 3
        assert tb.memory.read_word(0) == 0x77

    def test_disconnect_splits_burst(self, make_tb):
        sim, tb = make_tb(disconnect_after=2)
        payload = list(range(1, 8))
        write = PciOperation.write(0x1000, payload)
        read = PciOperation.read(0x1000, count=7)
        run_ops(sim, tb, [write, read])
        assert write.status == STATUS_OK
        assert read.data == payload
        # 7 words at <=2 words per transaction: at least 3 reconnects each.
        assert write.retries >= 3
        endings = [t.terminated_by for t in tb.monitor.completed_transactions]
        assert endings.count("disconnect_with_data") >= 6

    def test_retry_and_disconnect_combined(self, make_tb):
        sim, tb = make_tb(retry_count=1, disconnect_after=3)
        payload = list(range(9))
        write = PciOperation.write(0x1000, payload)
        read = PciOperation.read(0x1000, count=9)
        run_ops(sim, tb, [write, read])
        assert read.data == payload
        assert not tb.monitor.violations


class TestMultiMaster:
    def test_two_masters_interleave_safely(self, make_tb):
        sim, tb = make_tb(n_masters=2, mem_base=0x0, mem_size=0x2000)
        done = []

        def stim(master, base, tag):
            def run():
                for i in range(5):
                    op = PciOperation.write(base + 4 * i, [tag * 0x100 + i])
                    yield from master.transact(op)
                    assert op.status == STATUS_OK
                done.append(tag)
                if len(done) == 2:
                    sim.stop()
            return run

        sim.spawn(stim(tb.masters[0], 0x000, 1), "s0")
        sim.spawn(stim(tb.masters[1], 0x800, 2), "s1")
        sim.run(5 * MS)
        assert sorted(done) == [1, 2]
        assert tb.memory.read_word(0x000) == 0x100
        assert tb.memory.read_word(0x800) == 0x200
        assert not tb.monitor.violations

    def test_grant_rotates_between_masters(self, make_tb):
        sim, tb = make_tb(n_masters=2, mem_base=0x0, mem_size=0x2000)
        finished = []
        granted = []

        def stim(master, base, tag):
            def run():
                for i in range(10):
                    op = PciOperation.write(base + 4 * i, [i])
                    yield from master.transact(op)
                    granted.append((op.grant_time, tag))
                finished.append(tag)
                if len(finished) == 2:
                    sim.stop()
            return run

        sim.spawn(stim(tb.masters[0], 0x000, "a"), "sa")
        sim.spawn(stim(tb.masters[1], 0x800, "b"), "sb")
        sim.run(5 * MS)
        owners = [tag for __, tag in sorted(granted)]
        handovers = sum(a != b for a, b in zip(owners, owners[1:]))
        assert handovers >= 4


class TestMonitorObservation:
    def test_monitor_reconstructs_transactions(self, tb_pair):
        sim, tb = tb_pair
        ops = [
            PciOperation.write(0x1000, [0x11, 0x22]),
            PciOperation.read(0x1000, count=2),
        ]
        run_ops(sim, tb, ops)
        completed = tb.monitor.completed_transactions
        assert len(completed) == 2
        assert completed[0].data == [0x11, 0x22]
        assert completed[1].data == [0x11, 0x22]
        assert completed[0].address == 0x1000

    def test_no_parity_errors_in_clean_run(self, tb_pair):
        sim, tb = tb_pair
        run_ops(sim, tb, [
            PciOperation.write(0x1000, list(range(16))),
            PciOperation.read(0x1000, count=16),
        ])
        assert not any(t.parity_errors for t in tb.monitor.transactions)
        assert not tb.monitor.violations

    def test_signatures_stable_across_runs(self, make_tb):
        def one_run():
            sim, tb = make_tb()
            run_ops(sim, tb, [
                PciOperation.write(0x1000, [5, 6]),
                PciOperation.read(0x1000, count=2),
            ])
            return tb.monitor.signatures()

        assert one_run() == one_run()
