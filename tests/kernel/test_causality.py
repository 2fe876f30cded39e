"""Notify→wake causal edges surfaced through the probe bus.

While ``event.notify`` is subscribed, every event notification records
the notifying process, and while ``process.activate`` is subscribed,
every process activation records the waking event — the raw edges span
tracing turns into critical paths. Otherwise neither attribute is ever
written (the zero-cost off path; ``test_probe_gating`` covers a bus
with only other kinds subscribed).
"""

from repro.instrument import EVENT_NOTIFY, PROCESS_ACTIVATE, ProbeBus
from repro.kernel import NS, Simulator, Timeout


def _ping_pong(sim):
    event = sim.event("ping")
    woken = []

    def waiter():
        yield event
        woken.append(sim.time)

    def notifier():
        yield Timeout(10 * NS)
        event.notify()

    sim.spawn(waiter, "waiter")
    sim.spawn(notifier, "notifier")
    return event, woken


class TestCausalEdges:
    def test_event_notify_carries_notifying_process(self):
        sim = Simulator()
        notifies = []
        sim.probes.subscribe(
            EVENT_NOTIFY,
            lambda t, e, cause: notifies.append(
                (e.name, cause.name if cause is not None else None)
            ),
        )
        _ping_pong(sim)
        sim.run(100 * NS)
        assert ("ping", "notifier") in notifies

    def test_process_activate_carries_waking_event(self):
        sim = Simulator()
        activations = []
        sim.probes.subscribe(
            PROCESS_ACTIVATE,
            lambda t, p, cause: activations.append(
                (p.name, cause.name if cause is not None else None)
            ),
        )
        _ping_pong(sim)
        sim.run(100 * NS)
        # Spawn-time activations have no cause; the wake by the event does.
        assert ("waiter", None) in activations
        assert ("waiter", "ping") in activations

    def test_timed_notification_records_cause(self):
        sim = Simulator()
        notifies = []
        sim.probes.subscribe(
            EVENT_NOTIFY,
            lambda t, e, cause: notifies.append(
                (t, cause.name if cause is not None else None)
            ),
        )
        event = sim.event("later")

        def waiter():
            yield event

        def notifier():
            event.notify_after(20 * NS)
            yield Timeout(1 * NS)

        sim.spawn(waiter, "waiter")
        sim.spawn(notifier, "notifier")
        sim.run(100 * NS)
        assert (20 * NS, "notifier") in notifies

    def test_cause_resets_between_notifications(self):
        sim = Simulator()
        causes = []
        sim.probes.subscribe(
            EVENT_NOTIFY,
            lambda t, e, cause: causes.append(
                cause.name if cause is not None else None
            ),
        )
        event = sim.event("e")

        def waiter():
            while True:
                yield event

        def named_notifier():
            yield Timeout(10 * NS)
            event.notify()

        sim.spawn(waiter, "waiter")
        sim.spawn(named_notifier, "named")
        sim.run(5 * NS)
        # Notify from outside any process: no stale cause may leak into
        # this notification (it fires first, in the next delta).
        event.notify_delta()
        sim.run(100 * NS)
        assert causes[0] is None
        assert "named" in causes

    def test_uninstrumented_run_never_writes_causes(self):
        sim = Simulator()
        event, woken = _ping_pong(sim)
        sim.run(100 * NS)
        assert woken
        assert event._notify_cause is None
        for process in sim.scheduler.processes:
            assert process._wake_trigger is None

    def test_two_arg_subscribers_still_work(self):
        # Pre-cause subscribers that default the third argument continue
        # to receive callbacks (the bus passes cause positionally).
        bus = ProbeBus()
        seen = []
        bus.subscribe(EVENT_NOTIFY, lambda t, e, cause=None: seen.append(t))
        bus.event_notify(5, object())
        bus.event_notify(7, object(), None)
        assert seen == [5, 7]
