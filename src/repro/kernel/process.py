"""Simulation processes.

Two SystemC-like process kinds are supported:

* **thread** — a Python generator that ``yield``\\ s wait specifications
  (:class:`Timeout`, an :class:`~repro.kernel.event.Event`, ``AnyOf``,
  ``AllOf``). The kernel resumes it when the wait completes. Threads
  compose naturally: helper coroutines are invoked with ``yield from``,
  which is how blocking guarded-method calls are built.
* **method** — a plain callable re-invoked from the top whenever an event
  in its static sensitivity triggers. Methods cannot wait.
"""

from __future__ import annotations

import heapq
import typing
from collections.abc import Generator

from ..errors import SimulationError
from .event import AllOf, AnyOf, Event
from .simtime import check_delay

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import Scheduler


class Timeout:
    """Wait specification: suspend for a fixed number of femtoseconds.

    Immutable: the constructor validates the delay once, so one instance
    may be yielded any number of times (a clock builds its two up front)
    and the kernel trusts ``_delay`` without re-checking it.
    """

    __slots__ = ("_delay",)

    def __init__(self, delay: int) -> None:
        self._delay = check_delay(delay)

    @property
    def delay(self) -> int:
        """The wait in femtoseconds."""
        return self._delay

    def __repr__(self) -> str:
        return f"Timeout({self._delay})"


#: What a thread may yield to the kernel.
WaitSpec = typing.Union[Timeout, Event, AnyOf, AllOf]

#: Type alias for the generator a thread function must return.
ThreadGenerator = Generator[WaitSpec, object, object]


class Process:
    """Kernel bookkeeping for one thread or method process."""

    THREAD = "thread"
    METHOD = "method"

    def __init__(
        self,
        scheduler: "Scheduler",
        name: str,
        func: typing.Callable[[], object],
        kind: str = THREAD,
    ) -> None:
        if kind not in (self.THREAD, self.METHOD):
            raise SimulationError(f"unknown process kind {kind!r}")
        self._scheduler = scheduler
        self.name = name
        self.kind = kind
        self._func = func
        self._generator: ThreadGenerator | None = None
        #: The running generator's bound ``send``, cached at start.
        self._send: typing.Callable[[object], object] | None = None
        #: The event of a pending Event or Timeout wait.
        self._wait_event: Event | None = None
        #: The events of a pending AnyOf / AllOf wait.
        self._wait_events: tuple[Event, ...] = ()
        #: AllOf members not yet notified (None outside an AllOf wait).
        self._all_of_pending: set[Event] | None = None
        #: The event every Timeout wait of this thread reuses, created on
        #: first use. Reuse is safe because a Timeout wait ends only when
        #: this event fires or the process finishes, so at most one of
        #: its notifications is ever outstanding while anyone waits.
        self._timeout_event: Event | None = None
        self.done = False
        self.started = False
        #: Notified when the process terminates (thread return / StopIteration).
        self.terminated_event = Event(scheduler, f"{name}.terminated")
        self._static_sensitivity: list[Event] = []
        self._runnable = False
        self.exception: BaseException | None = None
        #: Causal edge for the probe bus: the Event whose trigger made
        #: this process runnable (None for the initial activation).
        #: Recorded only while ``process.activate`` has a subscriber;
        #: consumed and reset by the scheduler's instrumented evaluation
        #: loop.
        self._wake_trigger: Event | None = None

    def __repr__(self) -> str:
        return f"Process({self.name}, {self.kind})"

    def is_waiting_on(self, event: Event) -> bool:
        """True while a dynamic wait of this thread includes *event*."""
        return event is self._wait_event or event in self._wait_events

    # -- static sensitivity -------------------------------------------------

    def add_sensitivity(self, event: Event) -> None:
        """Statically sensitise this process to *event*."""
        self._static_sensitivity.append(event)
        event.add_static(self)

    # -- waking ---------------------------------------------------------------

    def _wake(self, trigger: Event) -> None:
        """Called by an event this process dynamically waits on.

        *trigger* has already dropped this process from its waiter list;
        a single-event wait therefore has nothing left to unregister.
        """
        if self.done:
            return
        events = self._wait_events
        if events:
            pending = self._all_of_pending
            if pending is not None:
                pending.discard(trigger)
                if pending:
                    return
                self._all_of_pending = None
            for event in events:
                if event is not trigger:
                    event._remove_dynamic(self)
            self._wait_events = ()
        else:
            self._wait_event = None
        probes = self._scheduler._probes
        if probes is not None and probes._process_activate is not None:
            self._wake_trigger = trigger
        if not self._runnable:
            self._runnable = True
            self._scheduler._runnable.append(self)

    def _wake_static(self, trigger: Event) -> None:
        """Called by an event in the static sensitivity list."""
        if self.done:
            return
        if self._wait_event is not None or self._wait_events:
            # A thread with an explicit dynamic wait ignores static triggers.
            return
        probes = self._scheduler._probes
        if probes is not None and probes._process_activate is not None:
            self._wake_trigger = trigger
        self._make_runnable()

    def _make_runnable(self) -> None:
        if not self._runnable:
            self._runnable = True
            self._scheduler._make_runnable(self)

    def _clear_waits(self) -> None:
        event = self._wait_event
        if event is not None:
            event._remove_dynamic(self)
            self._wait_event = None
        for event in self._wait_events:
            event._remove_dynamic(self)
        self._wait_events = ()
        self._all_of_pending = None

    # -- execution ------------------------------------------------------------

    def _execute(self) -> None:
        """Run one activation; called only by the scheduler.

        The scheduler's uninstrumented loop resumes a started thread
        (``_send`` set) itself, with the same steps as below.
        """
        self._runnable = False
        if self.done:
            return
        send = self._send
        if send is None:
            if self.kind == self.METHOD:
                self.started = True
                self._func()
                return
            send = self._start()
            if send is None:
                return
        try:
            wait_spec = send(None)
        except StopIteration:
            self._finish()
            return
        # Events are the commonest wait; register them inline.
        if isinstance(wait_spec, Event):
            self._wait_event = wait_spec
            wait_spec._dynamic_waiters.append(self)
            return
        self._register_wait(wait_spec)

    def _start(self) -> typing.Callable[[object], object] | None:
        """First activation of a thread: call its function; returns the
        generator's ``send``, or None when the thread already finished."""
        self.started = True
        result = self._func()
        if result is None:
            # A thread function with no yields runs to completion at start.
            self._finish()
            return None
        if not isinstance(result, Generator):
            raise SimulationError(
                f"thread {self.name!r} must be a generator function, "
                f"got {result!r}"
            )
        self._generator = result
        self._send = result.send
        return self._send

    def _timer(self) -> Event:
        """The event every Timeout wait of this thread reuses."""
        event = self._timeout_event
        if event is None:
            event = self._timeout_event = Event(
                self._scheduler, f"{self.name}.timeout"
            )
        return event

    def _register_wait(self, wait_spec: object) -> None:
        if isinstance(wait_spec, Timeout):
            event = self._timeout_event
            if event is None:
                event = self._timer()
            # Event._schedule_after inlined. The Timeout validated its
            # delay when it was built and cannot change.
            scheduler = self._scheduler
            probes = scheduler._probes
            if probes is not None and probes._event_notify is not None:
                event._notify_cause = scheduler.current_process
            delay = wait_spec._delay
            if delay:
                scheduler._timed_seq = seq = scheduler._timed_seq + 1
                heapq.heappush(
                    scheduler._timed, (scheduler._time + delay, seq, event)
                )
            else:
                scheduler._schedule_delta_event(event)
            self._wait_event = event
            event._dynamic_waiters.append(self)
            return
        if isinstance(wait_spec, AnyOf):
            self._wait_events = wait_spec.events
            for event in wait_spec.events:
                event._add_dynamic(self)
            return
        if isinstance(wait_spec, AllOf):
            self._wait_events = wait_spec.events
            self._all_of_pending = set(wait_spec.events)
            for event in wait_spec.events:
                event._add_dynamic(self)
            return
        raise SimulationError(
            f"thread {self.name!r} yielded {wait_spec!r}, which is not a "
            "wait specification (Timeout, Event, AnyOf or AllOf)"
        )

    def _finish(self) -> None:
        self.done = True
        # A finished thread is never resumed: the scheduler's fast loop
        # hands a process without ``_send`` to _execute, which skips it.
        self._send = None
        self._clear_waits()
        self.terminated_event.notify_delta()

    def kill(self) -> None:
        """Forcefully terminate the process (it never runs again)."""
        if self.done:
            return
        if self._generator is not None:
            self._generator.close()
        self._finish()
