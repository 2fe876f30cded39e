"""Probe bus mechanics + kernel probe emission."""

import pytest

from repro.hdl.module import Module
from repro.instrument import (
    DELTA_BEGIN,
    DELTA_END,
    EVENT_NOTIFY,
    PROBE_KINDS,
    PROCESS_ACTIVATE,
    PROCESS_SUSPEND,
    SIGNAL_COMMIT,
    ProbeBus,
    default_bus,
    set_default_bus,
)
from repro.instrument.probes import ProbeError
from repro.kernel import NS, Simulator, Timeout


class TestBusMechanics:
    def test_subscribe_and_emit(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe(SIGNAL_COMMIT, lambda *a: seen.append(a))
        bus.signal_commit(5, "sig", 1)
        assert seen == [(5, "sig", 1)]

    def test_emit_without_subscribers_is_noop(self):
        bus = ProbeBus()
        bus.signal_commit(0, "sig", 1)  # must not raise
        bus.emit(EVENT_NOTIFY, 0, None)

    def test_unknown_kind_rejected(self):
        bus = ProbeBus()
        with pytest.raises(ProbeError):
            bus.subscribe("no.such.kind", lambda: None)
        with pytest.raises(KeyError):
            bus.emit("no.such.kind")

    def test_unsubscribe_is_idempotent(self):
        bus = ProbeBus()

        def callback(*args):
            pass

        bus.unsubscribe(SIGNAL_COMMIT, callback)  # never subscribed: no raise
        bus.subscribe(SIGNAL_COMMIT, callback)
        bus.unsubscribe(SIGNAL_COMMIT, callback)
        bus.unsubscribe(SIGNAL_COMMIT, callback)  # again: still no raise
        assert not bus.wants(SIGNAL_COMMIT)

    def test_wants_and_subscribers(self):
        bus = ProbeBus()
        assert not bus.wants(DELTA_BEGIN)
        token = bus.subscribe(DELTA_BEGIN, lambda *a: None)
        assert bus.wants(DELTA_BEGIN)
        assert bus.subscribers(DELTA_BEGIN) == (token,)

    def test_clear(self):
        bus = ProbeBus()
        for kind in PROBE_KINDS:
            bus.subscribe(kind, lambda *a: None)
        bus.clear()
        assert all(not bus.wants(kind) for kind in PROBE_KINDS)

    def test_unsubscribe_self_during_emission(self):
        """A callback removing itself mid-emission must not corrupt the
        iteration: the other subscriber still fires."""
        bus = ProbeBus()
        seen = []

        def once(*args):
            seen.append("once")
            bus.unsubscribe(SIGNAL_COMMIT, once)

        bus.subscribe(SIGNAL_COMMIT, once)
        bus.subscribe(SIGNAL_COMMIT, lambda *a: seen.append("steady"))
        bus.signal_commit(0, "s", 1)
        bus.signal_commit(1, "s", 0)
        assert seen == ["once", "steady", "steady"]

    def test_default_bus_install_and_restore(self):
        bus = ProbeBus()
        previous = set_default_bus(bus)
        try:
            assert default_bus() is bus
            sim = Simulator()
            assert sim._probes is bus
        finally:
            set_default_bus(previous)
        assert default_bus() is previous


class _Counter(Module):
    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.clk = self.signal("clk", width=1, init=0)
        self.count = self.signal("count", width=8, init=0)
        self.thread(self._tick, "tick")
        self.thread(self._count, "count_proc")

    def _tick(self):
        while True:
            yield Timeout(10 * NS)
            self.clk.write(1 - self.clk.read().to_int())

    def _count(self):
        while True:
            yield self.clk.posedge
            self.count.write(self.count.read().to_int() + 1)


class TestKernelProbes:
    def test_null_bus_by_default(self):
        sim = Simulator()
        assert sim._probes is None
        assert sim.scheduler._probes is None

    def test_probes_property_attaches_lazily(self):
        sim = Simulator()
        bus = sim.probes
        assert sim._probes is bus
        assert sim.scheduler._probes is bus
        assert sim.probes is bus  # stable

    def test_process_and_delta_probes(self):
        sim = Simulator()
        top = _Counter(sim, "top")
        kinds = []
        for kind in (PROCESS_ACTIVATE, PROCESS_SUSPEND, DELTA_BEGIN,
                     DELTA_END, EVENT_NOTIFY, SIGNAL_COMMIT):
            sim.probes.subscribe(
                kind, lambda *a, kind=kind: kinds.append(kind)
            )
        sim.run(100 * NS)
        assert kinds.count(DELTA_BEGIN) == kinds.count(DELTA_END)
        assert kinds.count(PROCESS_ACTIVATE) == kinds.count(PROCESS_SUSPEND)
        assert kinds.count(DELTA_BEGIN) == sim.delta_count
        # 10 clock edges, 5 of them rising -> 5 count commits + clk commits.
        commits = kinds.count(SIGNAL_COMMIT)
        assert commits == 10 + 5
        assert top.count.read().to_int() == 5

    def test_activation_payload_is_the_process(self):
        sim = Simulator()
        _Counter(sim, "top")
        names = set()
        sim.probes.subscribe(
            PROCESS_ACTIVATE, lambda t, p, cause: names.add(p.name)
        )
        sim.run(30 * NS)
        assert "top.tick" in names and "top.count_proc" in names

    def test_signal_commit_signature_matches_tracers(self):
        """The probe payload is exactly (time, signal, value) — what
        tracer.record_change() historically received."""
        sim = Simulator()
        top = _Counter(sim, "top")
        seen = []
        sim.probes.subscribe(SIGNAL_COMMIT, lambda *a: seen.append(a))
        sim.run(10 * NS)
        time, signal, value = seen[0]
        assert time == 10 * NS
        assert signal is top.clk
        assert value == top.clk.read()


class TestMidRunAttachDetach:
    """Satellite: observers added/removed while the simulation runs."""

    def _recorder(self):
        class Recorder:
            def __init__(self):
                self.changes = []

            def record_change(self, time, signal, value):
                self.changes.append((time, signal.name, value))

        return Recorder()

    def test_tracer_added_mid_run_sees_subsequent_commits(self):
        sim = Simulator()
        _Counter(sim, "top")
        recorder = self._recorder()

        def attacher():
            yield Timeout(35 * NS)
            sim.add_tracer(recorder)

        sim.spawn(attacher, "attacher")
        sim.run(100 * NS)
        assert recorder.changes, "late tracer saw nothing"
        assert all(t >= 35 * NS for t, *_ in recorder.changes)
        # It still catches the clock edges after attach: 40..100 ns.
        clk_changes = [c for c in recorder.changes if c[1] == "top.clk"]
        assert len(clk_changes) == 7

    def test_detach_during_delta_does_not_corrupt_iteration(self):
        """A tracer that removes itself from inside its own callback —
        i.e. during the update phase of a delta — must not break the
        other subscribers or the kernel loop."""
        sim = Simulator()
        top = _Counter(sim, "top")
        steady = self._recorder()

        class SelfDetaching:
            def __init__(self):
                self.changes = 0

            def record_change(self, time, signal, value):
                self.changes += 1
                sim.probes.unsubscribe(SIGNAL_COMMIT, self.record_change)

        flighty = SelfDetaching()
        sim.add_tracer(flighty)
        sim.add_tracer(steady)
        sim.run(100 * NS)
        assert flighty.changes == 1
        assert len(steady.changes) == 15
        assert top.count.read().to_int() == 5

    def test_add_tracer_twice_is_single_subscription(self):
        sim = Simulator()
        _Counter(sim, "top")
        recorder = self._recorder()
        sim.add_tracer(recorder)
        sim.add_tracer(recorder)
        sim.run(10 * NS)
        # clk edge + the count increment it triggers: each exactly once.
        assert sorted(c[1] for c in recorder.changes) == \
            ["top.clk", "top.count"]
