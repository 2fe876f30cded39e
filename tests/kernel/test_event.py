"""Unit tests for events and notification flavours."""

import pytest

from repro.errors import SimulationError
from repro.kernel import AnyOf, NS, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestImmediateNotify:
    def test_wakes_waiter_same_evaluation(self, sim):
        event = sim.event("e")
        log = []

        def waiter():
            yield event
            log.append(sim.time)

        def notifier():
            yield Timeout(10 * NS)
            event.notify()

        sim.spawn(waiter, "waiter")
        sim.spawn(notifier, "notifier")
        sim.run(100 * NS)
        assert log == [10 * NS]

    def test_notify_with_no_waiters_is_lost(self, sim):
        event = sim.event("e")
        log = []

        def notifier():
            event.notify()
            yield Timeout(1 * NS)

        def late_waiter():
            yield Timeout(5 * NS)
            yield event  # notification already happened: waits forever
            log.append("woken")

        sim.spawn(notifier, "n")
        sim.spawn(late_waiter, "w")
        sim.run(100 * NS)
        assert log == []


class TestDeltaNotify:
    def test_wakes_in_next_delta_same_time(self, sim):
        event = sim.event("e")
        times = []

        def waiter():
            yield event
            times.append((sim.time, sim.delta_count))

        def notifier():
            yield Timeout(10 * NS)
            event.notify_delta()

        sim.spawn(waiter, "w")
        sim.spawn(notifier, "n")
        sim.run(100 * NS)
        assert len(times) == 1
        assert times[0][0] == 10 * NS


class TestTimedNotify:
    def test_notify_after_delay(self, sim):
        event = sim.event("e")
        log = []

        def waiter():
            yield event
            log.append(sim.time)

        def notifier():
            event.notify_after(25 * NS)
            yield Timeout(1)

        sim.spawn(waiter, "w")
        sim.spawn(notifier, "n")
        sim.run(100 * NS)
        assert log == [25 * NS]

    def test_notify_after_zero_is_delta(self, sim):
        event = sim.event("e")
        log = []

        def waiter():
            yield event
            log.append(sim.time)

        def notifier():
            event.notify_after(0)
            yield Timeout(1)

        sim.spawn(waiter, "w")
        sim.spawn(notifier, "n")
        sim.run(10 * NS)
        assert log == [0]

    def test_negative_delay_rejected(self, sim):
        event = sim.event("e")
        with pytest.raises(SimulationError):
            event.notify_after(-5)


class TestCompositeWaits:
    def test_any_of_first_wins(self, sim):
        fast, slow = sim.event("fast"), sim.event("slow")
        log = []

        def waiter():
            yield AnyOf(fast, slow)
            log.append(sim.time)

        def driver():
            fast.notify_after(10 * NS)
            slow.notify_after(50 * NS)
            yield Timeout(1)

        sim.spawn(waiter, "w")
        sim.spawn(driver, "d")
        sim.run(100 * NS)
        assert log == [10 * NS]

    def test_empty_composite_rejected(self, sim):
        with pytest.raises(SimulationError):
            AnyOf()

    def test_composite_rejects_non_events(self, sim):
        with pytest.raises(SimulationError):
            AnyOf("not an event")


class TestMultipleWaiters:
    def test_all_waiters_wake(self, sim):
        event = sim.event("e")
        log = []

        def make_waiter(tag):
            def waiter():
                yield event
                log.append(tag)
            return waiter

        for i in range(5):
            sim.spawn(make_waiter(i), f"w{i}")

        def notifier():
            yield Timeout(5 * NS)
            event.notify()

        sim.spawn(notifier, "n")
        sim.run(10 * NS)
        assert sorted(log) == [0, 1, 2, 3, 4]


class TestEventCallbacks:
    def test_callback_runs_once_on_trigger(self, sim):
        event = sim.event("e")
        calls = []
        event.add_callback(lambda: calls.append(sim.time))

        def driver():
            yield Timeout(10 * NS)
            event.notify()
            yield Timeout(10 * NS)
            event.notify()  # callback already consumed

        sim.spawn(driver, "d")
        sim.run(100 * NS)
        assert calls == [10 * NS]

    def test_callbacks_and_waiters_both_fire(self, sim):
        event = sim.event("e")
        log = []
        event.add_callback(lambda: log.append("callback"))

        def waiter():
            yield event
            log.append("waiter")

        def driver():
            yield Timeout(5 * NS)
            event.notify()

        sim.spawn(waiter, "w")
        sim.spawn(driver, "d")
        sim.run(50 * NS)
        assert "callback" in log and "waiter" in log
