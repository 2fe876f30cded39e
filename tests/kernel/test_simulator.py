"""Unit tests for the Simulator facade: registry, elaboration, tracing."""

import pytest

from repro.errors import ElaborationError
from repro.hdl import Module
from repro.kernel import NS, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestRegistry:
    def test_lookup_by_path(self, sim):
        module = Module(sim, "top")
        child = Module(module, "child")
        assert sim.lookup("top") is module
        assert sim.lookup("top.child") is child

    def test_duplicate_names_rejected(self, sim):
        Module(sim, "top")
        with pytest.raises(ElaborationError):
            Module(sim, "top")

    def test_unknown_lookup_raises(self, sim):
        with pytest.raises(ElaborationError):
            sim.lookup("nope")

    def test_iter_named_sorted(self, sim):
        Module(sim, "beta")
        Module(sim, "alpha")
        names = [name for name, __ in sim.iter_named()]
        assert names == sorted(names)


class TestElaboration:
    def test_elaboration_is_idempotent(self, sim):
        Module(sim, "top")
        sim.elaborate()
        sim.elaborate()
        assert sim.elaborated

    def test_no_modules_after_elaboration(self, sim):
        sim.elaborate()
        with pytest.raises(ElaborationError):
            Module(sim, "late")

    def test_end_of_elaboration_hook_runs(self, sim):
        calls = []

        class Hooked(Module):
            def end_of_elaboration(self):
                calls.append(self.path)

        Hooked(sim, "a")
        parent = Hooked(sim, "b")
        Hooked(parent, "c")
        sim.elaborate()
        assert sorted(calls) == ["a", "b", "b.c"]


class TestTracing:
    def test_tracer_sees_signal_commits(self, sim):
        module = Module(sim, "top")
        signal = module.signal("s", width=8, init=0)
        seen = []

        class Recorder:
            def record_change(self, time, sig, value):
                seen.append((time, sig.name, value.to_int()))

        sim.add_tracer(Recorder())

        def writer():
            from repro.kernel import Timeout
            signal.write(5)
            yield Timeout(10 * NS)
            signal.write(9)
            yield Timeout(1)

        sim.spawn(writer, "w")
        sim.run(20 * NS)
        assert (0, "top.s", 5) in seen
        assert (10 * NS, "top.s", 9) in seen


class TestIdleRun:
    """A run that goes idle with a guarded call still blocked."""

    def test_blocked_guarded_call_is_reported(self, sim):
        from repro.osss import GlobalObject, guarded_method

        class Latch:
            def __init__(self):
                self.ready = False

            @guarded_method(lambda self: self.ready)
            def take(self):
                return True

        top = Module(sim, "top")
        latch = GlobalObject(top, "latch", Latch)

        def starved():
            yield from latch.take()

        sim.spawn(starved, "starved")
        sim.run(100 * NS)
        blocked = sim.blocked_processes()
        assert len(blocked) == 1
        assert blocked[0].method == "take"
        assert blocked[0].object_path == "top.latch"
        assert blocked[0].process_name == "starved"


class TestDetections:
    def test_report_detection_records(self, sim):
        sim.report_detection("top.monitor", "TRDY# without DEVSEL#")
        assert len(sim.detections) == 1
        record = sim.detections[0]
        assert record.source == "top.monitor"
        assert "TRDY#" in record.message
        assert record.time == sim.time

    def test_nonstrict_monitor_violation_is_still_a_detection(self, sim):
        """A bus monitor feeds detections even when not raising."""
        from repro.hdl import Clock
        from repro.wishbone import WishboneBus, WishboneMonitor

        top = Module(sim, "top")
        clk = Clock(top, "clock", period=10 * NS).clk
        bus = WishboneBus(top, "wb")
        WishboneMonitor(top, "mon", bus, clk, strict=False)

        ack = bus.ack.get_driver("tester")

        def writer():
            from repro.kernel import Timeout
            yield Timeout(10 * NS)
            ack.write(1)  # ACK with no cycle in progress
            yield Timeout(10 * NS)

        sim.spawn(writer, "w")
        sim.run(50 * NS)
        assert sim.detections
        assert sim.detections[0].source == "top.mon"
