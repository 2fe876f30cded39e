"""Simulation events.

An :class:`Event` is the primitive synchronisation object of the kernel,
with the three SystemC notification flavours:

* ``notify()`` — *immediate*: waiting processes become runnable in the
  current evaluation phase;
* ``notify_delta()`` — wake waiters at the next delta cycle;
* ``notify_after(delay)`` — wake waiters *delay* femtoseconds from now.

A thread waits on an event by yielding it, or on several at once by
yielding :class:`AnyOf`.
"""

from __future__ import annotations

import typing

from ..errors import SimulationError
from .simtime import check_delay

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import Process
    from .scheduler import Scheduler


class Event:
    """A notifiable synchronisation point.

    :param scheduler: the kernel this event belongs to.
    :param name: optional label used in traces and error messages.

    Every signal, clock and process creates events, so the layout is
    fixed by ``__slots__`` and the callback list is created on first
    use: most events never get one.
    """

    __slots__ = (
        "_scheduler", "name", "_dynamic_waiters",
        "_callbacks", "_delta_pending", "_notify_cause", "_inline",
    )

    def __init__(self, scheduler: "Scheduler", name: str = "") -> None:
        self._scheduler = scheduler
        self.name = name
        self._dynamic_waiters: list["Process"] = []
        #: One-shot callbacks for the next trigger; None when there are none.
        self._callbacks: list[typing.Callable[[], None]] | None = None
        #: Set while queued for the next delta (O(1) dedup in
        #: Scheduler._schedule_delta_event).
        self._delta_pending: bool = False
        #: Causal edge for the probe bus: the Process that requested the
        #: pending notification. Recorded only while ``event.notify`` has
        #: a subscriber and consumed by _trigger.
        self._notify_cause: "Process | None" = None
        #: None, or a callable the scheduler may run instead of
        #: triggering this timer when it is the only timed notification
        #: due at an instant and no kernel probe kind is observed. It
        #: runs the whole delta the trigger would start (the one woken
        #: process's activation, its commit and the notifications that
        #: follow) and returns True, or does nothing and returns False
        #: to take the process path. A clock's timer carries one.
        self._inline: "typing.Callable[[], bool] | None" = None

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"Event({label})"

    # -- registration -----------------------------------------------------

    def _add_dynamic(self, process: "Process") -> None:
        self._dynamic_waiters.append(process)

    def _remove_dynamic(self, process: "Process") -> None:
        try:
            self._dynamic_waiters.remove(process)
        except ValueError:
            pass

    def add_callback(self, callback: typing.Callable[[], None]) -> None:
        """Run *callback* once, at the next trigger of this event.

        Callbacks fire during the triggering phase (no process context);
        they must not wait — intended for lightweight plumbing such as
        delayed signal writes.
        """
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = [callback]
        else:
            callbacks.append(callback)

    # -- notification -----------------------------------------------------

    def notify(self) -> None:
        """Immediately wake all waiting processes (same evaluation phase)."""
        probes = self._scheduler._probes
        if probes is not None and probes._event_notify is not None:
            self._notify_cause = self._scheduler.current_process
        self._trigger()

    def notify_delta(self) -> None:
        """Schedule a wake-up of all waiting processes at the next delta."""
        scheduler = self._scheduler
        probes = scheduler._probes
        if probes is not None and probes._event_notify is not None:
            self._notify_cause = scheduler.current_process
        scheduler._schedule_delta_event(self)

    def notify_after(self, delay: int) -> None:
        """Schedule a wake-up *delay* femtoseconds in the future."""
        self._schedule_after(check_delay(delay))

    def _schedule_after(self, delay: int) -> None:
        """notify_after for a *delay* the caller has already validated."""
        scheduler = self._scheduler
        probes = scheduler._probes
        if probes is not None and probes._event_notify is not None:
            self._notify_cause = scheduler.current_process
        if delay:
            scheduler._schedule_timed_event(self, delay)
        else:
            scheduler._schedule_delta_event(self)

    def _trigger(self) -> None:
        """Make every waiter runnable; called by the scheduler or notify()."""
        scheduler = self._scheduler
        probes = scheduler._probes
        record = False
        if probes is not None:
            if probes._event_notify is not None:
                cause, self._notify_cause = self._notify_cause, None
                probes.event_notify(scheduler._time, self, cause)
            record = probes._process_activate is not None
        waiters = self._dynamic_waiters
        if waiters:
            self._dynamic_waiters = []
            runnable = scheduler._runnable
            for process in waiters:
                if process._wait_event is not self:
                    process._wake(self)
                    continue
                # A single-event wait on this event: Process._wake inlined.
                process._wait_event = None
                if record:
                    process._wake_trigger = self
                if not process._runnable:
                    process._runnable = True
                    runnable.append(process)
        callbacks = self._callbacks
        if callbacks is not None:
            # Detach first: a callback added by a callback waits for the
            # next trigger.
            self._callbacks = None
            for callback in callbacks:
                callback()


class AnyOf:
    """Wait until *any one* of the given events is notified."""

    def __init__(self, *events: Event) -> None:
        if not events:
            raise SimulationError("AnyOf needs at least one event")
        for event in events:
            if not isinstance(event, Event):
                raise SimulationError(f"expected Event, got {event!r}")
        self.events: tuple[Event, ...] = tuple(events)
