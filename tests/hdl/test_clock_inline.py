"""Inline clock edges simulate exactly what the clock's process does.

When a clock's timer is the only notification due at an instant and no
kernel probe kind is observed, the scheduler runs that edge's delta
itself. Each case runs one design twice, once with the inline hook
removed from the clock's timer (every edge a process activation), and
compares every edge seen, the end time, the delta count, ``clk`` and
``cycle_count``.
"""

import pytest

from repro.fault import make_fault
from repro.hdl import Clock
from repro.kernel import NS, Simulator, Timeout


def _watch(sim, clock, log, event_name):
    event = getattr(clock, event_name)

    def watcher():
        while True:
            yield event
            log.append((event_name, sim.time, sim.delta_count,
                        str(clock.clk.read()), clock.cycle_count))

    sim.spawn(watcher, f"watch_{event_name}")


def _simulate(build, inline, until=(200 * NS,)):
    """Run the design *build* sets up for the *until* durations in turn;
    returns what it observed and the number of edges run inline."""
    sim = Simulator()
    log = []
    clock = build(sim, log)
    edges = []
    if inline:
        hook = clock._timer._inline

        def counted():
            ran = hook()
            edges.append(ran)
            return ran

        clock._timer._inline = counted
    else:
        clock._timer._inline = None
    for duration in until:
        sim.run(duration)
        log.append(("stop", sim.time, sim.delta_count))
    final = (sim.time, sim.delta_count, str(clock.clk.read()),
             clock.cycle_count, clock._high)
    return (log, final), sum(edges)


def _check(build, until=(200 * NS,), inline_expected=True):
    reference, __ = _simulate(build, inline=False, until=until)
    observed, inline_edges = _simulate(build, inline=True, until=until)
    assert observed == reference
    assert bool(inline_edges) == inline_expected
    return observed


def _edge_watchers(**clock_args):
    """A clock watched on ``changed``, ``posedge`` and ``negedge``: the log
    order shows the order the edge's events woke their waiters."""
    def build(sim, log):
        clock = Clock(sim, "clk", **clock_args)
        changed = clock.clk.changed

        def on_change():
            while True:
                yield changed
                log.append(("changed", sim.time, sim.delta_count,
                            str(clock.clk.read()), clock.cycle_count))

        sim.spawn(on_change, "watch_changed")
        _watch(sim, clock, log, "posedge")
        _watch(sim, clock, log, "negedge")
        return clock
    return build


class TestInlineEdgesMatchTheProcessPath:
    def test_plain_clock(self):
        (log, final) = _check(_edge_watchers(period=10 * NS))
        assert final[3] == 20
        assert [entry[0] for entry in log[:4]] == [
            "changed", "posedge", "changed", "negedge"
        ]
        assert len([entry for entry in log if entry[0] != "stop"]) == 80

    def test_start_high(self):
        (log, __) = _check(_edge_watchers(period=10 * NS, start_high=True))
        assert log[1][:2] == ("negedge", 5 * NS)

    def test_odd_duty(self):
        (log, final) = _check(_edge_watchers(period=7 * NS, duty=0.3))
        assert [entry[1] for entry in log if entry[0] != "changed"][:3] == [
            4_900_000, 7_000_000, 11_900_000
        ]

    def test_unobserved_clock(self):
        def build(sim, log):
            return Clock(sim, "clk", period=10 * NS, duty=0.7)
        _check(build)

    def test_timeout_coinciding_with_edges(self):
        def build(sim, log):
            clock = Clock(sim, "clk", period=10 * NS)
            _watch(sim, clock, log, "posedge")

            def poller():
                # Every wake coincides with an edge; every third wake
                # follows one that did not.
                for delay in (5, 5, 5, 7, 3, 10, 1, 4):
                    yield Timeout(delay * NS)
                    log.append(("poll", sim.time, sim.delta_count,
                                str(clock.clk.read()), clock.cycle_count))

            sim.spawn(poller, "poller")
            return clock
        _check(build)

    def test_reading_clk_in_the_low_phase(self):
        def build(sim, log):
            clock = Clock(sim, "clk", period=10 * NS, duty=0.3)

            def reader():
                while True:
                    yield Timeout(7 * NS + 1)
                    log.append(("read", sim.time, sim.delta_count,
                                str(clock.clk.read()), clock.cycle_count))

            sim.spawn(reader, "reader")
            return clock
        (log, __) = _check(build)
        assert {entry[3] for entry in log if entry[0] == "read"} == {"0", "1"}

    def test_negedge_waiter_added_mid_run(self):
        def build(sim, log):
            clock = Clock(sim, "clk", period=10 * NS)
            _watch(sim, clock, log, "posedge")

            def late():
                yield Timeout(53 * NS)
                # The negedge event does not exist before this point.
                _watch(sim, clock, log, "negedge")

            sim.spawn(late, "late")
            return clock
        (log, __) = _check(build)
        negedges = [entry[1] for entry in log if entry[0] == "negedge"]
        assert negedges[0] == 60 * NS

    def test_stuck_at_fault_on_clk(self):
        def build(sim, log):
            clock = _edge_watchers(period=10 * NS)(sim, log)
            make_fault("stuck_at", "clk.clk", (42 * NS, 87 * NS), value=1).arm(
                sim
            )
            return clock
        # The fault hooks clk's update, so every edge takes the process
        # path and the clamp and release land exactly as before.
        (log, __) = _check(build, inline_expected=False)
        edges = [entry[:2] for entry in log]
        assert ("posedge", 42 * NS) in edges
        assert ("negedge", 50 * NS) not in edges
        assert ("negedge", 90 * NS) in edges

    def test_glitch_on_clk(self):
        def build(sim, log):
            clock = _edge_watchers(period=10 * NS)(sim, log)
            make_fault("glitch", "clk.clk", (42 * NS, 47 * NS), value=1).arm(
                sim
            )
            return clock
        # The glitch forces clk without hooking its update: the edge at
        # 45 ns meets a forced level and takes the process path.
        (log, __) = _check(build)
        edges = [entry[:2] for entry in log]
        assert ("posedge", 42 * NS) in edges
        assert ("posedge", 45 * NS) not in edges
        assert ("negedge", 47 * NS) in edges
        assert ("posedge", 55 * NS) in edges

    def test_callback_renotifying_the_edge(self):
        def build(sim, log):
            clock = _edge_watchers(period=10 * NS)(sim, log)
            clk = clock.clk

            def arm():
                yield Timeout(33 * NS)
                # Runs as the 35 ns edge triggers clk.changed, while the
                # posedge it re-notifies is already pending in that delta.
                clk.changed.add_callback(clk.posedge.notify_delta)

            sim.spawn(arm, "arm")
            return clock
        (log, __) = _check(build)
        assert [entry[1] for entry in log if entry[0] == "posedge"].count(
            35 * NS
        ) == 1

    @pytest.mark.parametrize("until", [
        (15 * NS, 5 * NS, 10 * NS, 1, 10 * NS - 1, 0, 20 * NS),
        (5 * NS, 5 * NS - 1, 1, 0, 45 * NS),
    ], ids=["edges", "first-edge"])
    def test_runs_ending_at_edges(self, until):
        _check(_edge_watchers(period=10 * NS), until=until)
