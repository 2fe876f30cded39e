"""A fused clock cycle simulates exactly what the process path does.

Unobserved, a lone clock's falling edge runs inline together with the
next rising edge (one time step per cycle). Each case runs one design
twice: once as is, and once with a no-op ``process.activate``
subscriber, which puts every edge on the process path. Both runs must
end at the same time with the same delta count, cycle count and
per-posedge samples. Each case also counts the fused calls, so a
fallback that should keep the falling edge apart is seen doing so.
"""

import pytest

from repro.hdl import Clock, LogicVector
from repro.instrument.probes import PROCESS_ACTIVATE, SIGNAL_COMMIT
from repro.kernel import NS, Simulator, Timeout

PERIOD = 10 * NS
#: Clock edges: rising at 5, 15, 25 ns ..., falling at 10, 20, 30 ns ...
END = 200 * NS


def _simulate(build, process_path, until=(END,)):
    """Run the design *build* sets up for the *until* durations in turn.

    :returns: what an observer sees, and the falling-edge times of the
        fused calls.
    """
    sim = Simulator()
    samples = []
    clock = Clock(sim, "clk", period=PERIOD)
    posedge = clock.posedge

    def sampler():
        while True:
            yield posedge
            samples.append((sim.time, sim.delta_count, clock.cycle_count,
                            str(clock.clk.read())))

    sim.spawn(sampler, "sampler")
    build(sim, clock, samples)
    fused = []
    hook = clock._timer._inline

    def counted():
        before = sim.time
        ran = hook()
        if sim.time != before:
            fused.append(before)
        return ran

    clock._timer._inline = counted
    if process_path:
        sim.probes.subscribe(PROCESS_ACTIVATE, lambda *args: None)
    for duration in until:
        sim.run(duration)
        samples.append(("stop", sim.time, sim.delta_count, clock.cycle_count))
    return (sim.time, sim.delta_count, clock.cycle_count, samples), fused


def _check(build, until=(END,)):
    """Both paths agree; returns the fused calls of the unobserved run."""
    reference, none_fused = _simulate(build, True, until)
    observed, fused = _simulate(build, False, until)
    assert none_fused == []
    assert observed == reference
    return fused


def _nothing(sim, clock, samples):
    pass


class TestFusedCycleMatchesTheProcessPath:
    def test_unobserved_falling_edges_fuse(self):
        fused = _check(_nothing)
        # Every falling edge before the end (10, 20, ... 190 ns).
        assert fused == [t * NS for t in range(10, 200, 10)]

    def test_negedge_waiter(self):
        def build(sim, clock, samples):
            negedge = clock.negedge

            def waiter():
                while True:
                    yield negedge
                    samples.append(("negedge", sim.time, sim.delta_count))

            sim.spawn(waiter, "waiter")

        assert _check(build) == []

    def test_changed_waiter(self):
        def build(sim, clock, samples):
            changed = clock.clk.changed

            def waiter():
                while True:
                    yield changed
                    samples.append(("changed", sim.time, sim.delta_count))

            sim.spawn(waiter, "waiter")

        assert _check(build) == []

    def test_signal_commit_subscriber(self):
        def build(sim, clock, samples):
            sim.probes.subscribe(
                SIGNAL_COMMIT,
                lambda time, signal, value: samples.append(
                    ("commit", time, signal.name, str(value))
                ),
            )

        # The observed kernel runs no edge inline at all.
        assert _check(build) == []

    def test_timer_between_the_edges(self):
        def build(sim, clock, samples):
            def poller():
                # Wakes at 12 and 42 ns, in low phases, and at 65 ns, on
                # a rising edge.
                for delay in (12, 30, 23):
                    yield Timeout(delay * NS)
                    samples.append(("poll", sim.time, sim.delta_count,
                                    str(clock.clk.read())))

            sim.spawn(poller, "poller")

        fused = _check(build)
        assert 10 * NS not in fused and 40 * NS not in fused
        assert 60 * NS not in fused
        assert 20 * NS in fused and 70 * NS in fused

    def test_deadline_between_the_edges(self):
        fused = _check(_nothing, until=(12 * NS, 20 * NS, 3 * NS, END))
        # Runs end at 12, 32 and 35 ns: the falling edges at 10 and 30 ns
        # run alone, the one at 20 ns fuses.
        assert 10 * NS not in fused and 30 * NS not in fused
        assert 20 * NS in fused

    def test_deadline_at_the_rising_edge(self):
        fused = _check(_nothing, until=(15 * NS, 10 * NS, 0, END))
        assert 10 * NS in fused and 20 * NS in fused

    @pytest.mark.parametrize("level", [0, 1])
    def test_forced_clk(self, level):
        def build(sim, clock, samples):
            def forcer():
                # A non-shared vector in the low (33 ns) and the high
                # (47 ns) phase: the falling edge at 50 ns meets it.
                yield Timeout(33 * NS)
                clock.clk.force(LogicVector(1, level))
                yield Timeout(14 * NS)
                clock.clk.force(LogicVector(1, level))

            sim.spawn(forcer, "forcer")

        fused = _check(build)
        assert 10 * NS in fused and 50 * NS not in fused
