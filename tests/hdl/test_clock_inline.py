"""Inline clock edges simulate exactly what the clock's process does.

When a clock's timer is the only notification due at an instant and no
kernel probe kind is observed, the scheduler runs that edge's delta
itself. Each case runs one design twice: once as is, and once with a
no-op ``process.activate`` subscriber, which puts every edge on the
process path. Both runs must end at the same time with the same delta
count, cycle count and ``clk`` level, and log the same samples: every
posedge a waiter sees, and whatever the design's own processes record.
"""

import pytest

from repro.fault import make_fault
from repro.hdl import Clock
from repro.instrument.probes import PROCESS_ACTIVATE
from repro.kernel import NS, Simulator, Timeout

PERIOD = 10 * NS
#: Clock edges: rising at 5, 15, 25 ns ..., falling at 10, 20, 30 ns ...
END = 200 * NS


def sample_posedges(sim, clock, samples):
    """A waiter on ``clk.posedge`` that samples the clock at every wake."""
    posedge = clock.clk.posedge

    def sampler():
        while True:
            yield posedge
            samples.append(("posedge", sim.time, sim.delta_count,
                            clock.cycle_count, str(clock.clk.read())))

    sim.spawn(sampler, "sampler")


def simulate(build, process_path, until=(END,), period=PERIOD):
    """Run the design *build* sets up for the *until* durations in turn.

    :returns: what an observer sees, the times of the edges the clock's
        inline hook ran (a fused call's rising edge), and the
        falling-edge times of the calls that fused the falling edge into
        the next rising edge.
    """
    sim = Simulator()
    samples = []
    clock = Clock(sim, "clk", period=period)
    build(sim, clock, samples)
    inline, fused = [], []
    hook = clock._timer._inline

    def counted():
        before = sim.time
        ran = hook()
        if ran:
            inline.append(sim.time)
        if sim.time != before:
            fused.append(before)
        return ran

    clock._timer._inline = counted
    if process_path:
        sim.probes.subscribe(PROCESS_ACTIVATE, lambda *args: None)
    for duration in until:
        sim.run(duration)
        samples.append(("stop", sim.time, sim.delta_count,
                        clock.cycle_count, str(clock.clk.read())))
    return samples, inline, fused


def check(build, until=(END,), period=PERIOD):
    """Both paths agree; returns the samples and the inline and fused
    edges of the unobserved run."""
    reference, none_inline, none_fused = simulate(build, True, until, period)
    observed, inline, fused = simulate(build, False, until, period)
    assert none_inline == [] and none_fused == []
    assert observed == reference
    return observed, inline, fused


def _posedges(samples):
    return [entry[1] for entry in samples if entry[0] == "posedge"]


class TestInlineEdgesMatchTheProcessPath:
    def test_plain_clock(self):
        samples, inline, __ = check(sample_posedges)
        assert _posedges(samples) == [t * NS for t in range(5, 200, 10)]
        assert samples[-1][3] == 20
        assert inline

    def test_odd_period(self):
        # High 3.5 ns, low 3.5 ns + 1 fs.
        samples, inline, __ = check(sample_posedges, period=7 * NS + 1)
        assert _posedges(samples)[:3] == [3_500_001, 10_500_002, 17_500_003]
        assert inline

    def test_unobserved_clock(self):
        def build(sim, clock, samples):
            pass

        samples, inline, __ = check(build)
        assert [entry[3] for entry in samples] == [20]
        assert inline

    def test_timeout_coinciding_with_edges(self):
        def build(sim, clock, samples):
            sample_posedges(sim, clock, samples)

            def poller():
                # Every wake coincides with an edge; every third wake
                # follows one that did not.
                for delay in (5, 5, 5, 7, 3, 10, 1, 4):
                    yield Timeout(delay * NS)
                    samples.append(("poll", sim.time, sim.delta_count,
                                    clock.cycle_count, str(clock.clk.read())))

            sim.spawn(poller, "poller")

        check(build)

    def test_reading_clk_in_the_low_phase(self):
        def build(sim, clock, samples):
            def reader():
                while True:
                    yield Timeout(7 * NS + 1)
                    samples.append(("read", sim.time, sim.delta_count,
                                    clock.cycle_count, str(clock.clk.read())))

            sim.spawn(reader, "reader")

        samples, inline, __ = check(build)
        assert {entry[4] for entry in samples if entry[0] == "read"} == {
            "0", "1"
        }
        assert inline

    def test_posedge_waiter_added_mid_run(self):
        def build(sim, clock, samples):
            def late():
                yield Timeout(53 * NS)
                # The posedge event does not exist before this point.
                sample_posedges(sim, clock, samples)

            sim.spawn(late, "late")

        samples, __, __ = check(build)
        assert _posedges(samples)[0] == 55 * NS

    def test_stuck_at_fault_on_clk(self):
        def build(sim, clock, samples):
            sample_posedges(sim, clock, samples)
            make_fault("stuck_at", "clk.clk", (42 * NS, 87 * NS), value=1).arm(
                sim
            )

        # The fault hooks clk's update, so every edge takes the process
        # path and the clamp and release land exactly as before.
        samples, inline, __ = check(build)
        assert inline == []
        posedges = _posedges(samples)
        assert 42 * NS in posedges
        assert not [t for t in posedges if 42 * NS < t < 95 * NS]
        assert 95 * NS in posedges

    def test_glitch_on_clk(self):
        def build(sim, clock, samples):
            sample_posedges(sim, clock, samples)
            make_fault("glitch", "clk.clk", (42 * NS, 47 * NS), value=1).arm(
                sim
            )

        # The glitch forces clk without hooking its update: the edge at
        # 45 ns meets a forced level and takes the process path.
        samples, inline, __ = check(build)
        posedges = _posedges(samples)
        assert 42 * NS in posedges
        assert 45 * NS not in posedges
        assert 55 * NS in posedges
        assert 45 * NS not in inline and 35 * NS in inline

    def test_callback_renotifying_the_edge(self):
        def build(sim, clock, samples):
            sample_posedges(sim, clock, samples)
            posedge = clock.clk.posedge

            def arm():
                yield Timeout(33 * NS)
                # Runs as the 35 ns edge triggers posedge, which it
                # notifies again for the next delta.
                posedge.add_callback(posedge.notify_delta)

            sim.spawn(arm, "arm")

        samples, inline, __ = check(build)
        assert _posedges(samples).count(35 * NS) == 2
        assert 35 * NS in inline

    @pytest.mark.parametrize("until", [
        (15 * NS, 5 * NS, 10 * NS, 1, 10 * NS - 1, 0, 20 * NS),
        (5 * NS, 5 * NS - 1, 1, 0, 45 * NS),
    ], ids=["edges", "first-edge"])
    def test_runs_ending_at_edges(self, until):
        check(sample_posedges, until=until)
