"""Unit tests for signal update semantics."""

import pytest

from repro.errors import MultipleDriverError
from repro.hdl import LogicVector, Module, Signal
from repro.instrument.probes import SIGNAL_COMMIT
from repro.kernel import NS, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestWriteSemantics:
    def test_read_old_value_in_same_delta(self, sim):
        signal = Signal(sim, "s", width=8, init=1)
        observed = []

        def writer():
            signal.write(2)
            observed.append(signal.read().to_int())  # still old value
            yield Timeout(0)
            observed.append(signal.read().to_int())  # committed now

        sim.spawn(writer, "w")
        sim.run(10)
        assert observed == [1, 2]

    def test_last_write_in_delta_wins(self, sim):
        signal = Signal(sim, "s", width=8, init=0)

        def writer():
            signal.write(1)
            signal.write(2)
            yield Timeout(0)

        sim.spawn(writer, "w")
        sim.run(10)
        assert signal.read().to_int() == 2

    def test_write_coerces_to_vector(self, sim):
        signal = Signal(sim, "s", width=4)
        signal.force(3)
        assert isinstance(signal.read(), LogicVector)

    def test_object_signal_carries_python_values(self, sim):
        signal = Signal(sim, "s", init="hello")
        payload = {"a": 1}

        def writer():
            signal.write(payload)
            yield Timeout(0)

        sim.spawn(writer, "w")
        sim.run(10)
        assert signal.read() is payload


class TestEvents:
    def test_changed_fires_only_on_real_change(self, sim):
        signal = Signal(sim, "s", width=4, init=5)
        commits = []
        sim.probes.subscribe(
            SIGNAL_COMMIT,
            lambda time, committed, value: commits.append(
                (time, value.to_int())
            ),
        )

        def writer():
            yield Timeout(10 * NS)
            signal.write(5)  # same value: no commit
            yield Timeout(10 * NS)
            signal.write(6)
            yield Timeout(10 * NS)

        sim.spawn(writer, "write")
        sim.run(100 * NS)
        assert commits == [(20 * NS, 6)]

    def test_posedge_negedge(self, sim):
        """posedge wakes on a rise only: a fall wakes nobody."""
        signal = Signal(sim, "s", width=1, init=0)
        edges = []

        def pos():
            while True:
                yield signal.posedge
                edges.append(sim.time)

        def driver():
            yield Timeout(10 * NS)
            signal.write(1)
            yield Timeout(10 * NS)
            signal.write(0)
            yield Timeout(10 * NS)
            signal.write(1)

        sim.spawn(pos, "p")
        sim.spawn(driver, "d")
        sim.run(100 * NS)
        assert edges == [10 * NS, 30 * NS]

    def test_bool_signal_edges(self, sim):
        signal = Signal(sim, "s", init=False)
        edges = []

        def watcher():
            yield signal.posedge
            edges.append(sim.time)

        def driver():
            yield Timeout(5 * NS)
            signal.write(True)

        sim.spawn(watcher, "w")
        sim.spawn(driver, "d")
        sim.run(50 * NS)
        assert edges == [5 * NS]


class TestSingleWriter:
    def test_two_processes_same_delta_rejected(self, sim):
        signal = Signal(sim, "s", width=4, single_writer=True)

        def writer_a():
            signal.write(1)
            yield Timeout(0)

        def writer_b():
            signal.write(2)
            yield Timeout(0)

        sim.spawn(writer_a, "a")
        sim.spawn(writer_b, "b")
        with pytest.raises(MultipleDriverError):
            sim.run(10)

    def test_same_process_may_rewrite(self, sim):
        signal = Signal(sim, "s", width=4, single_writer=True)

        def writer():
            signal.write(1)
            signal.write(2)
            yield Timeout(0)

        sim.spawn(writer, "w")
        sim.run(10)
        assert signal.read().to_int() == 2

    def test_different_deltas_allowed(self, sim):
        signal = Signal(sim, "s", width=4, single_writer=True)

        def writer_a():
            signal.write(1)
            yield Timeout(0)

        def writer_b():
            yield Timeout(5 * NS)
            signal.write(2)

        sim.spawn(writer_a, "a")
        sim.spawn(writer_b, "b")
        sim.run(10 * NS)
        assert signal.read().to_int() == 2


class TestModuleIntegration:
    def test_module_signal_registered(self, sim):
        module = Module(sim, "top")
        signal = module.signal("data", width=16, init=0xBEEF)
        assert sim.lookup("top.data") is signal
        assert signal.read().to_int() == 0xBEEF

    def test_to_int_helper(self, sim):
        module = Module(sim, "top")
        assert module.signal("a", width=4, init=3).read().to_int() == 3
        assert module.signal("b", init=True).read() is True
