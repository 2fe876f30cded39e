"""A fused clock cycle simulates exactly what the process path does.

Unobserved, a lone clock's falling edge runs inline together with the
next rising edge (one time step per cycle). Each case runs one design
with a posedge sampler twice, as is and on the process path, and
compares them as :func:`tests.hdl.test_clock_inline.check` does. Each
case also looks at the fused calls, so a fallback that should keep the
falling edge apart is seen doing so.
"""

import pytest

from repro.hdl import LogicVector
from repro.instrument.probes import SIGNAL_COMMIT
from repro.kernel import NS, Timeout

from tests.hdl.test_clock_inline import END, check, sample_posedges


def _fused(build, until=(END,)):
    """The falling-edge times the unobserved run fused."""
    def sampled(sim, clock, samples):
        sample_posedges(sim, clock, samples)
        build(sim, clock, samples)

    __, __, fused = check(sampled, until)
    return fused


def _nothing(sim, clock, samples):
    pass


class TestFusedCycleMatchesTheProcessPath:
    def test_unobserved_falling_edges_fuse(self):
        # Every falling edge before the end (10, 20, ... 190 ns).
        assert _fused(_nothing) == [t * NS for t in range(10, 200, 10)]

    def test_signal_commit_subscriber(self):
        def build(sim, clock, samples):
            sim.probes.subscribe(
                SIGNAL_COMMIT,
                lambda time, signal, value: samples.append(
                    ("commit", time, signal.name, str(value))
                ),
            )

        # The observed kernel runs no edge inline at all.
        assert _fused(build) == []

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

        fused = _fused(build)
        assert 10 * NS not in fused and 40 * NS not in fused
        assert 60 * NS not in fused
        assert 20 * NS in fused and 70 * NS in fused

    def test_deadline_between_the_edges(self):
        fused = _fused(_nothing, until=(12 * NS, 20 * NS, 3 * NS, END))
        # Runs end at 12, 32 and 35 ns: the falling edges at 10 and 30 ns
        # run alone, the one at 20 ns fuses.
        assert 10 * NS not in fused and 30 * NS not in fused
        assert 20 * NS in fused

    def test_deadline_at_the_rising_edge(self):
        fused = _fused(_nothing, until=(15 * NS, 10 * NS, 0, END))
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

        fused = _fused(build)
        assert 10 * NS in fused and 50 * NS not in fused
