"""Per-kind probe sites: the kernel pays only for the kinds observed.

Each hot kernel site checks its own kind's subscribers on the attached
bus. A bus whose subscribers all listen to cold kinds (detections,
method calls, transactions) leaves the kernel on its uninstrumented
loop, and no causal edge is ever recorded. Subscribing a kernel kind on
an attached bus, a shared default bus included, takes effect from the
next delta.
"""

import pytest

from repro.core.workload import generate_workload
from repro.flow import build_platform
from repro.hdl import Clock
from repro.instrument import (
    DETECTION,
    PROCESS_ACTIVATE,
    DetectionLog,
    ProbeBus,
    set_default_bus,
)
from repro.instrument.probes import KERNEL_KINDS
from repro.kernel import NS, US, Event, Simulator, Timeout
from repro.kernel.process import Process
from repro.telemetry import ScorecardProbe
from repro.trace import SpanTracer


@pytest.fixture
def created(monkeypatch):
    """Every Event and Process created while the test runs."""
    objects = []
    for cls in (Event, Process):
        init = cls.__init__

        def recording(self, *args, __init=init, **kwargs):
            __init(self, *args, **kwargs)
            objects.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    return objects


@pytest.fixture
def instrumented_deltas(monkeypatch):
    """How many deltas ran the scheduler's instrumented loop."""
    deltas = []
    begin = ProbeBus.delta_begin

    def counting(self, time, index):
        deltas.append(index)
        begin(self, time, index)

    monkeypatch.setattr(ProbeBus, "delta_begin", counting)
    return deltas


def _pci_bundle():
    workload = generate_workload(seed=5, n_commands=12, address_span=0x400,
                                 max_burst=4)
    return build_platform([workload], bus="pci", synthesize=True)


class TestColdSubscribers:
    def test_cold_kinds_keep_the_kernel_uninstrumented(
        self, created, instrumented_deltas
    ):
        bundle = _pci_bundle()
        probes = bundle.handle.sim.probes
        DetectionLog().attach(probes)
        SpanTracer(causal=False).attach(probes)
        ScorecardProbe(cycle_fs=bundle.clock.period).attach(probes)
        assert not any(probes.wants(kind) for kind in KERNEL_KINDS)
        run = bundle.run(10 * US)

        assert instrumented_deltas == []
        events = [obj for obj in created if isinstance(obj, Event)]
        processes = [obj for obj in created if isinstance(obj, Process)]
        assert events and processes
        assert all(event._notify_cause is None for event in events)
        assert all(process._wake_trigger is None for process in processes)
        # Observing cold kinds changes nothing simulated.
        bare = _pci_bundle().run(10 * US)
        assert (run.sim_time, run.delta_cycles, run.traces) == \
            (bare.sim_time, bare.delta_cycles, bare.traces)

    def test_bus_flags_follow_kernel_subscriptions(self):
        bus = ProbeBus()
        bus.subscribe(DETECTION, print)
        assert not bus._evaluation_observed and not bus._kernel_observed
        token = bus.subscribe("signal.commit", print)
        assert bus._kernel_observed and not bus._evaluation_observed
        bus.subscribe(PROCESS_ACTIVATE, print)
        assert bus._evaluation_observed
        bus.unsubscribe(PROCESS_ACTIVATE, print)
        assert not bus._evaluation_observed and bus._kernel_observed
        bus.unsubscribe("signal.commit", token)
        assert not bus._kernel_observed
        bus.subscribe("delta.end", print)
        bus.clear()
        assert not bus._evaluation_observed and not bus._kernel_observed


def _design(sim, subscribe_at, bus, activations):
    """A clock, a posedge counter and a process that subscribes
    ``process.activate`` on *bus* at *subscribe_at*. Returns two lists
    filled as the run goes: the delta of the subscription, and the
    times of the clock edges run inline."""
    clock = Clock(sim, "clk", period=10 * NS)
    subscribed = []
    inline_edges = []
    inline = clock._timer._inline

    def counted():
        ran = inline()
        if ran:
            inline_edges.append(sim.time)
        return ran

    clock._timer._inline = counted

    def on_activate(time, process, cause):
        activations.append((time, sim.delta_count, process.name))

    def counter():
        while True:
            yield clock.posedge

    def subscriber():
        yield Timeout(subscribe_at)
        bus.subscribe(PROCESS_ACTIVATE, on_activate)
        subscribed.append(sim.delta_count)

    sim.spawn(counter, "counter")
    sim.spawn(subscriber, "subscriber")
    return subscribed, inline_edges


def _reference(subscribe_at):
    """Every activation of the same design, observed from the start."""
    sim = Simulator()
    activations = []
    _design(sim, subscribe_at, ProbeBus(), activations)
    sim.probes.subscribe(
        PROCESS_ACTIVATE,
        lambda time, process, cause: activations.append(
            (time, sim.delta_count, process.name)
        ),
    )
    sim.run(100 * NS)
    return sim, activations


class TestMidRunSubscription:
    SUBSCRIBE_AT = 42 * NS

    def _check(self, sim, activations, design):
        subscribed, inline_edges = design
        reference_sim, reference = _reference(self.SUBSCRIBE_AT)
        (delta,) = subscribed
        assert activations == [
            entry for entry in reference if entry[1] > delta
        ]
        # Edges ran inline until the subscription, then as activations.
        assert inline_edges and max(inline_edges) < self.SUBSCRIBE_AT
        assert any(name == "clk.toggle" for __, __, name in activations)
        assert (sim.time, sim.delta_count) == \
            (reference_sim.time, reference_sim.delta_count)

    def test_attached_bus_serves_from_the_next_delta(self):
        sim = Simulator()
        sim.probes.subscribe(DETECTION, print)
        activations = []
        design = _design(sim, self.SUBSCRIBE_AT, sim.probes, activations)
        sim.run(100 * NS)
        self._check(sim, activations, design)

    def test_shared_default_bus_serves_from_the_next_delta(self):
        shared = ProbeBus()
        previous = set_default_bus(shared)
        try:
            sim = Simulator()
            other = Simulator()
        finally:
            set_default_bus(previous)
        assert sim._probes is shared and other._probes is shared
        activations = []
        design = _design(sim, self.SUBSCRIBE_AT, shared, activations)
        sim.run(100 * NS)
        self._check(sim, activations, design)
        # The other simulator on the bus is served from its first delta.
        seen = []
        shared.subscribe(
            PROCESS_ACTIVATE,
            lambda time, process, cause: seen.append(process.name),
        )
        Clock(other, "clk", period=10 * NS)
        other.run(30 * NS)
        # The first activation, then an edge every 5 ns up to 30 ns.
        assert seen.count("clk.toggle") == 1 + 6
