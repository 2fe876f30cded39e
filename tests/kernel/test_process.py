"""Unit tests for thread processes."""

import pytest

from repro.errors import SimulationError
from repro.instrument.probes import EVENT_NOTIFY, PROCESS_ACTIVATE
from repro.kernel import NS, AnyOf, Simulator, Timeout


def _noop():
    """A generator thread that terminates immediately."""
    return
    yield


@pytest.fixture
def sim():
    return Simulator()


class TestThreads:
    def test_thread_runs_at_time_zero(self, sim):
        log = []

        def thread():
            log.append(sim.time)
            yield Timeout(1)

        sim.spawn(thread, "t")
        sim.run(10)
        assert log == [0]

    def test_dont_initialize_defers_start(self, sim):
        log = []

        def thread():
            log.append("ran")
            yield Timeout(1)

        sim.spawn(thread, "t", initialize=False)
        sim.run(10 * NS)
        assert log == []

    def test_sequential_timeouts_accumulate(self, sim):
        stamps = []

        def thread():
            for __ in range(3):
                yield Timeout(10 * NS)
                stamps.append(sim.time)

        sim.spawn(thread, "t")
        sim.run(100 * NS)
        assert stamps == [10 * NS, 20 * NS, 30 * NS]

    def test_generator_return_value_terminates(self, sim):
        process = sim.spawn(_noop, "empty")
        sim.run(1)
        assert process.done

    def test_plain_function_thread_finishes_immediately(self, sim):
        log = []

        def not_a_generator():
            log.append("ran")

        process = sim.spawn(not_a_generator, "plain")
        sim.run(1)
        assert log == ["ran"]
        assert process.done

    def test_yielding_garbage_raises(self, sim):
        def bad():
            yield "not a wait spec"

        sim.spawn(bad, "bad")
        with pytest.raises(SimulationError):
            sim.run(10)

    def test_terminated_event_fires(self, sim):
        log = []

        def short():
            yield Timeout(5 * NS)

        process = sim.spawn(short, "short")

        def watcher():
            yield process.terminated_event
            log.append(sim.time)

        sim.spawn(watcher, "watcher")
        sim.run(100 * NS)
        assert log == [5 * NS]

    def test_kill_stops_process(self, sim):
        log = []

        def forever():
            while True:
                yield Timeout(10 * NS)
                log.append(sim.time)

        process = sim.spawn(forever, "forever")

        def killer():
            yield Timeout(25 * NS)
            process.kill()

        sim.spawn(killer, "killer")
        sim.run(100 * NS)
        assert log == [10 * NS, 20 * NS]
        assert process.done

    def test_yield_from_composition(self, sim):
        log = []

        def helper(n):
            yield Timeout(n * NS)
            return n * 2

        def thread():
            result = yield from helper(5)
            log.append((sim.time, result))

        sim.spawn(thread, "t")
        sim.run(100 * NS)
        assert log == [(5 * NS, 10)]


class TestTimeoutReuse:
    """Every Timeout wait of a thread reuses one kernel event; these pin
    the invariants that reuse relies on."""

    def test_delay_is_read_only(self):
        timeout = Timeout(5 * NS)
        with pytest.raises(AttributeError):
            timeout.delay = 7 * NS  # type: ignore[attr-defined]
        assert repr(timeout) == f"Timeout({5 * NS})"

    @pytest.mark.parametrize("delay", [-1, True, False, 1.5, "10"])
    def test_bad_delays_rejected(self, delay):
        with pytest.raises(SimulationError):
            Timeout(delay)

    def test_killed_mid_timeout_never_woken_by_stale_entry(self, sim):
        activations, notified = [], []
        sim.probes.subscribe(
            PROCESS_ACTIVATE,
            lambda time, process, cause: activations.append(
                (time, process.name)
            ),
        )
        sim.probes.subscribe(
            EVENT_NOTIFY,
            lambda time, event, cause: notified.append((time, event.name)),
        )
        log = []

        def victim():
            yield Timeout(50 * NS)
            log.append(sim.time)

        process = sim.spawn(victim, "victim")

        def killer():
            yield Timeout(20 * NS)
            process.kill()

        sim.spawn(killer, "killer")
        sim.run(100 * NS)
        assert log == []
        assert process.done
        # The stale heap entry still fires at 50 ns, but wakes nobody.
        assert (50 * NS, "victim.timeout") in notified
        assert [t for t, name in activations if name == "victim"] == [0]

    def test_back_to_back_timeouts_resume_on_time(self, sim):
        stamps = []
        wait = Timeout(10 * NS)

        def thread():
            yield wait
            stamps.append((sim.time, sim.delta_count))
            yield Timeout(0)
            stamps.append((sim.time, sim.delta_count))
            yield wait
            stamps.append((sim.time, sim.delta_count))

        sim.spawn(thread, "t")
        sim.run(100 * NS)
        (t1, d1), (t2, d2), (t3, __) = stamps
        assert (t1, t2, t3) == (10 * NS, 10 * NS, 20 * NS)
        # Timeout(0) resumes in the very next delta at the same time.
        assert d2 == d1 + 1

    def test_timeout_after_any_of_leaves_no_registration(self, sim):
        first, second = sim.event("first"), sim.event("second")
        log = []

        def thread():
            yield AnyOf(first, second)
            log.append(("any", sim.time))
            yield Timeout(10 * NS)
            log.append(("timeout", sim.time))

        sim.spawn(thread, "t")

        def notifier():
            yield Timeout(5 * NS)
            first.notify()
            yield Timeout(3 * NS)
            # Must not cut the 10 ns wait short.
            second.notify()

        sim.spawn(notifier, "n")
        sim.run(6 * NS)
        assert second._dynamic_waiters == []
        sim.run(100 * NS)
        assert log == [("any", 5 * NS), ("timeout", 15 * NS)]

    def test_blocked_processes_names_waiters(self, sim):
        from repro.hdl import Module
        from repro.osss import GlobalObject, guarded_method

        class Latch:
            def __init__(self):
                self.ready = False

            @guarded_method(lambda self: self.ready)
            def take(self):
                return True

        latch = GlobalObject(Module(sim, "top"), "latch", Latch)

        def starved():
            yield from latch.take()

        def bounded():
            # Waits on AnyOf(done, expiry) rather than a single event.
            yield from latch.call("take", timeout=1000 * NS)

        sim.spawn(starved, "starved")
        sim.spawn(bounded, "bounded")
        sim.run(100 * NS)
        names = sorted(b.process_name for b in sim.blocked_processes())
        assert names == ["bounded", "starved"]
