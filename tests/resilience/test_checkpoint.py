"""Kernel checkpoint/restore and replay-based rollback."""

import io

import pytest

from repro.core.command import CommandType
from repro.errors import CheckpointError
from repro.flow.platforms import PciPlatformConfig, build_platform
from repro.hdl.module import Module
from repro.kernel.process import Timeout
from repro.kernel.simtime import MS, NS, US
from repro.kernel.simulator import Simulator
from repro.osss.global_object import GlobalObject
from repro.osss.guarded_method import guarded_method
from repro.resilience import ReplayCheckpointer, capture, restore
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

        first = _Recorder(sim.time)
        sim.add_tracer(first)
        sim.run(3 * US)
        sim.remove_tracer(first)

        sim.restore(checkpoint)
        second = _Recorder(sim.time)
        sim.add_tracer(second)
        sim.run(3 * US)
        sim.remove_tracer(second)

        assert first.changes
        assert first.changes == second.changes

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


_COMMANDS = [
    CommandType.write(0x40, [11, 22, 33]),
    CommandType.read(0x40, count=3),
]


def _platform_builder():
    return build_platform([list(_COMMANDS)], PciPlatformConfig(), bus="pci")


class TestReplayCheckpointer:
    def test_rollback_reproduces_the_baseline(self):
        checkpointer = ReplayCheckpointer(_platform_builder)
        __, baseline = checkpointer.baseline(2 * US)
        replayed = checkpointer.rollback()
        assert capture(replayed.handle.sim, strict=False) == baseline

    def test_rollback_reproduces_the_vcd(self):
        """Replay-based restore + re-run dumps the identical waveform:
        every build gets its own tracer and the baseline and replayed
        VCD streams must match byte for byte."""
        captures = []

        def builder():
            bundle = _platform_builder()
            stream = io.StringIO()
            tracer = VcdTracer(stream)
            tracer.add_signals(
                [bundle.clock.clk] + bundle.bus.shared_signals()
            )
            bundle.handle.sim.add_tracer(tracer)
            captures.append((stream, tracer))
            return bundle

        checkpointer = ReplayCheckpointer(builder)
        baseline_platform, __ = checkpointer.baseline(2 * US)
        replayed = checkpointer.rollback()
        (a_stream, a_tracer), (b_stream, b_tracer) = captures
        a_tracer.close(baseline_platform.handle.sim.time)
        b_tracer.close(replayed.handle.sim.time)
        assert a_stream.getvalue() == b_stream.getvalue()

    def test_rollback_before_baseline_raises(self):
        with pytest.raises(CheckpointError, match="baseline"):
            ReplayCheckpointer(_platform_builder).rollback()

    def test_nondeterministic_builder_is_rejected(self):
        builds = []

        def flaky_builder():
            # Second build carries different traffic: replay diverges.
            builds.append(None)
            commands = (
                list(_COMMANDS)
                if len(builds) == 1
                else [CommandType.write(0x40, [99])]
            )
            return build_platform([commands], PciPlatformConfig(), bus="pci")

        checkpointer = ReplayCheckpointer(flaky_builder)
        checkpointer.baseline(2 * US)
        with pytest.raises(CheckpointError, match="not deterministic"):
            checkpointer.rollback()


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
