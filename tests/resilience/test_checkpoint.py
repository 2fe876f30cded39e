"""Kernel checkpoint/restore and replay-based rollback."""

import io

import pytest

from repro.core.command import CommandType
from repro.errors import CheckpointError
from repro.flow.platforms import PciPlatformConfig, build_platform
from repro.hdl import Clock
from repro.hdl.module import Module
from repro.kernel.process import Timeout
from repro.kernel.simtime import MS, NS, US
from repro.kernel.simulator import Simulator
from repro.osss.global_object import GlobalObject
from repro.osss.guarded_method import guarded_method
from repro.resilience import capture, restore
from repro.synthesis import SynthesisConfig, synthesize_communication
from repro.trace.vcd import VcdTracer


class _Accumulator:
    def __init__(self):
        self.total = 0

    def add(self, amount):
        self.total += amount
        return self.total


class _Counter(Module):
    """A register that ticks every microsecond plus a shared total."""

    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.reg = self.signal("reg", width=8, init=0)
        self.acc = GlobalObject(self, "acc", _Accumulator)
        self.thread(self._tick, "tick")

    def _tick(self):
        value = 0
        while True:
            yield Timeout(1 * US)
            value += 1
            self.reg.write(value)
            yield from self.acc.call("add", 1)
            # Idle gap: every microsecond boundary is quiescent.
            yield Timeout(1 * NS)


def _build():
    sim = Simulator()
    top = _Counter(sim, "top")
    return sim, top


class TestCaptureRestore:
    def test_roundtrip_restores_signals_and_shared_state(self):
        sim, top = _build()
        sim.run(int(5.5 * US))
        checkpoint = sim.checkpoint()
        assert checkpoint.time == int(5.5 * US)
        sim.run(4 * US)  # keep mutating past the snapshot
        assert top.acc.state.total == 9
        sim.restore(checkpoint)
        assert top.acc.state.total == 5
        assert top.reg.read().to_int() == 5

    def test_identical_runs_produce_equal_checkpoints(self):
        a_sim, __ = _build()
        b_sim, __ = _build()
        a_sim.run(int(7.5 * US))
        b_sim.run(int(7.5 * US))
        assert capture(a_sim) == capture(b_sim)
        assert capture(a_sim).signature() == capture(b_sim).signature()

    def test_capture_refuses_in_flight_guarded_calls(self):
        class _DeadCell:
            def __init__(self):
                self.ready = False

            @guarded_method(lambda self: self.ready)
            def take(self):
                return 1

        sim = Simulator()

        class _Stuck(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.cell = GlobalObject(self, "cell", _DeadCell)
                self.thread(self._caller, "caller")

            def _caller(self):
                yield from self.cell.call("take")

        _Stuck(sim, "top")
        sim.run(1 * US)
        with pytest.raises(CheckpointError, match="in-flight"):
            capture(sim)

    def test_restored_state_replays_the_same_changes(self):
        """State-level restore at a quiescent point: a design whose
        whole state lives in signals and shared objects evolves through
        the same change sequence after restore as it did the first
        time (relative to the restore point — program counters are not
        rewound, absolute time keeps running)."""

        class _SignalCounter(Module):
            """No generator-local state: next value is read from reg.
            The exact 1 us period keeps the process phase-aligned across
            the restore point (program counters are not rewound)."""

            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.reg = self.signal("reg", width=8, init=0)
                self.thread(self._tick, "tick")

            def _tick(self):
                while True:
                    yield Timeout(1 * US)
                    self.reg.write(self.reg.read().to_int() + 1)

        class _Recorder:
            def __init__(self, origin):
                self.origin = origin
                self.changes = []

            def record_change(self, time, signal, value):
                self.changes.append((time - self.origin, str(value)))

        sim = Simulator()
        _SignalCounter(sim, "top")
        sim.run(int(5.5 * US))
        checkpoint = sim.checkpoint()

        recorder = _Recorder(sim.time)
        sim.add_tracer(recorder)
        sim.run(3 * US)
        first = list(recorder.changes)

        # The restore's own commits are not part of either run.
        sim.restore(checkpoint)
        recorder.origin, recorder.changes = sim.time, []
        sim.run(3 * US)

        assert first
        assert first == recorder.changes

    def test_restore_rejects_foreign_hierarchy(self):
        sim, __ = _build()
        sim.run(int(2.5 * US))
        checkpoint = capture(sim)
        other = Simulator()

        class _Different(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.other_reg = self.signal("other_reg", width=8, init=0)

        _Different(other, "top")
        with pytest.raises(CheckpointError, match="missing"):
            restore(other, checkpoint)


class _Amount:
    """A mutable call argument, like a command a consumer tags later."""

    def __init__(self, value):
        self.value = value


class _Total:
    def __init__(self):
        self.total = 0

    @guarded_method()
    def add(self, amount):
        self.total += amount.value
        return self.total


class _Adder(Module):
    """One guarded call every microsecond; quiescent in between."""

    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.acc = GlobalObject(self, "acc", _Total)
        self.results = []
        self.thread(self._work, "work")

    def _work(self):
        while True:
            yield Timeout(1 * US)
            total = yield from self.acc.add(_Amount(1))
            self.results.append(total)


class TestSynthesizedChannel:
    def test_roundtrip_with_requests_on_the_wires(self):
        """The payload wire carries the last call's request, whose done
        event reaches the kernel's generators: the checkpoint copies the
        request and its arguments and shares only the event, and calls
        go on after a restore."""
        sim = Simulator()
        clock = Clock(sim, "clock", period=10 * NS)
        top = _Adder(sim, "top")
        synthesis = synthesize_communication(
            sim, clock.clk, SynthesisConfig(emit_hdl=False)
        )
        payload = synthesis.groups[0].channel.payload[0]
        sim.run(int(5.5 * US))
        issued = payload.read()
        checkpoint = sim.checkpoint()
        saved = checkpoint.signal_values[payload.name]
        assert saved is not issued and saved.done_event is issued.done_event
        assert saved.args is not issued.args
        assert saved.args[0] is not issued.args[0]
        assert saved.kwargs is not issued.kwargs
        # A consumer tagging the live call's argument after the capture
        # leaves the checkpoint as it was taken.
        issued.args[0].txn_id = "late"
        issued.kwargs["late"] = True
        assert not hasattr(saved.args[0], "txn_id") and saved.kwargs == {}
        assert (saved.method, saved.args[0].value, saved.result) == ("add", 1, 5)
        sim.run(4 * US)
        assert top.acc.state.total == 9
        sim.restore(checkpoint)
        assert top.acc.state.total == 5
        restored = payload.read()
        assert restored is not saved and restored.args[0] is not saved.args[0]
        assert restored.done_event is saved.done_event
        assert restored.result == 5 and not hasattr(restored.args[0], "txn_id")
        sim.run(2 * US)
        assert top.results == [1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 7]


_COMMANDS = [
    CommandType.write(0x40, [11, 22, 33]),
    CommandType.read(0x40, count=3),
]


def _vcd_dump(config):
    bundle = build_platform([list(_COMMANDS)], config, bus="pci")
    sim = bundle.handle.sim
    stream = io.StringIO()
    tracer = VcdTracer(stream)
    tracer.add_signals([bundle.clock.clk] + bundle.bus.shared_signals())
    sim.add_tracer(tracer)
    bundle.run(10 * MS)
    tracer.close(sim.time)
    return stream.getvalue()


class TestVcdDeterminism:
    def test_recovery_off_platform_reproduces_vcd_exactly(self):
        """Two fresh builds with resilience off dump identical VCDs —
        the recovery machinery's off path must not perturb a single
        signal edge (the fig4 byte-stability gate in miniature)."""
        assert _vcd_dump(PciPlatformConfig()) == _vcd_dump(
            PciPlatformConfig()
        )
