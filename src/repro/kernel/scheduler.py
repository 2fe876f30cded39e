"""The discrete-event scheduler.

Implements the SystemC evaluation/update/delta-notification cycle:

1. **Evaluate** — run every runnable process until it waits. Immediate
   notifications during this phase make further processes runnable in
   the *same* phase.
2. **Update** — commit staged primitive-channel writes (signals). A
   committed change performs delta notification of the channel's
   value-changed events.
3. **Delta notify** — trigger delta-notified events, waking waiters. If
   anything became runnable, start a new delta cycle at the same time.
4. **Time advance** — otherwise pop the earliest timed notifications,
   advance simulation time, and evaluate again.

Two fast paths keep the schedule identical while skipping work nobody
observes. The uninstrumented evaluation loop resumes started threads
itself. And when the only notification due at an instant is a timer
carrying an ``_inline`` hook (a clock's) and no kernel probe kind has a
subscriber, the hook runs that instant's first delta itself; the delta
is counted as if the woken process had run. A clock's hook may go
further and run a falling edge that nothing observes together with the
next rising edge (:meth:`repro.hdl.clock.Clock._inline_edge`), when
:meth:`Scheduler._skip_to` finds nothing else due in between.
"""

from __future__ import annotations

import heapq
import typing
from collections import deque

from ..errors import SimulationError
from .event import Event
from .process import Process
from .simtime import check_delay, format_time

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..instrument.probes import ProbeBus
    from .signal_base import UpdateTarget


class Scheduler:
    """Event queues and the simulation main loop.

    :param max_deltas_per_timestep: safety limit that turns a
        combinational feedback loop into a diagnosable error instead of
        a hang.
    """

    def __init__(self, max_deltas_per_timestep: int = 10_000) -> None:
        self._time = 0
        self._delta_count = 0
        self._runnable: deque[Process] = deque()
        self._delta_events: list[Event] = []
        self._timed: list[tuple[int, int, Event]] = []
        self._timed_seq = 0
        self._update_queue: list["UpdateTarget"] = []
        self._processes: list[Process] = []
        self._max_deltas = max_deltas_per_timestep
        self._stop_requested = False
        #: The end of the current :meth:`run` (None: until starvation).
        self._deadline: int | None = None
        #: The process being evaluated right now (None between activations).
        self.current_process: Process | None = None
        #: Probe bus attached by the owning Simulator; None keeps every
        #: probe site on the single-truthiness-check fast path. Each hot
        #: site then checks its own kind's subscribers on the bus.
        self._probes: "ProbeBus | None" = None

    # -- introspection ------------------------------------------------------

    @property
    def time(self) -> int:
        """Current simulation time in femtoseconds."""
        return self._time

    @property
    def delta_count(self) -> int:
        """Total number of delta cycles executed so far."""
        return self._delta_count

    @property
    def processes(self) -> tuple[Process, ...]:
        return tuple(self._processes)

    def time_str(self) -> str:
        return format_time(self._time)

    # -- construction ---------------------------------------------------------

    def register_process(self, process: Process, initialize: bool = True) -> None:
        """Add *process* to the kernel.

        :param initialize: if true (the SystemC default), the process is
            runnable in the first delta of the simulation (or of the next
            step when registered mid-run).
        """
        self._processes.append(process)
        if initialize:
            process._runnable = True
            self._runnable.append(process)

    def spawn(
        self,
        func: typing.Callable[[], object],
        name: str = "spawned",
        initialize: bool = True,
    ) -> Process:
        """Create and register a thread process in one call."""
        process = Process(self, name, func)
        self.register_process(process, initialize=initialize)
        return process

    # -- internal hooks used by Event / Signal --------------------------------

    def _schedule_delta_event(self, event: Event) -> None:
        # O(1) dedup flag, mirroring request_update: a linear `in` scan
        # over the pending list is quadratic when many events collapse
        # into one delta.
        if not event._delta_pending:
            event._delta_pending = True
            self._delta_events.append(event)

    def _schedule_timed_event(self, event: Event, delay: int) -> None:
        self._timed_seq += 1
        heapq.heappush(self._timed, (self._time + delay, self._timed_seq, event))

    def request_update(self, target: "UpdateTarget") -> None:
        """Queue *target* for the update phase of the current delta."""
        if not target._update_requested:
            target._update_requested = True
            self._update_queue.append(target)

    # -- control ---------------------------------------------------------------

    def stop(self) -> None:
        """Request the main loop to stop at the end of the current delta."""
        self._stop_requested = True

    def run(self, duration: int | None = None) -> int:
        """Run the simulation.

        :param duration: femtoseconds to simulate; ``None`` runs until no
            activity remains (event starvation) or :meth:`stop` is called.
        :returns: the simulation time when the run ended.
        """
        if duration is not None:
            check_delay(duration)
        self._deadline = deadline = (
            None if duration is None else self._time + duration
        )
        self._stop_requested = False
        timed = self._timed
        deltas_run = 0
        while True:
            self._run_delta_cycles(deltas_run)
            if self._stop_requested:
                break
            if not timed:
                break
            next_time = timed[0][0]
            if deadline is not None and next_time > deadline:
                self._time = deadline
                break
            deltas_run = self._advance_to(next_time)
            if deltas_run and self._stop_requested:
                # The inline delta ended like any delta: on a stop.
                break
        if deadline is not None and self._time < deadline and not self._stop_requested:
            self._time = deadline
        return self._time

    def _advance_to(self, next_time: int) -> int:
        """Trigger the timed notifications due at *next_time*.

        :returns: the deltas already run at the instant the step ends
            at: 1 when a lone timer's ``_inline`` hook ran the first one,
            else 0. A hook that fuses a clock's falling edge into its
            next rising edge counts the falling edge's delta and moves
            the time on to the rising edge itself.
        """
        self._time = next_time
        timed = self._timed
        event = heapq.heappop(timed)[2]
        if not timed or timed[0][0] != next_time:
            inline = event._inline
            if inline is not None:
                probes = self._probes
                if (probes is None or not probes._kernel_observed) and inline():
                    self._delta_count += 1
                    return 1
        event._trigger()
        while timed and timed[0][0] == next_time:
            heapq.heappop(timed)[2]._trigger()
        return 0

    def _skip_to(self, time: int) -> bool:
        """Let an inline hook end its step at the later instant *time*.

        Declines (returns False, changing nothing) when a timer is due at
        or before *time* or the current run ends before it. Otherwise
        counts the delta the hook's elided instant would have run, moves
        the time on to *time* and returns True; the hook then runs that
        instant's first delta, which :meth:`_advance_to` counts.
        """
        timed = self._timed
        if timed and timed[0][0] <= time:
            return False
        deadline = self._deadline
        if deadline is not None and deadline < time:
            return False
        self._delta_count += 1
        self._time = time
        return True

    def _run_delta_cycles(self, deltas_this_step: int = 0) -> None:
        runnable = self._runnable
        popleft = runnable.popleft
        while runnable or self._delta_events or self._update_queue:
            deltas_this_step += 1
            if deltas_this_step > self._max_deltas:
                raise SimulationError(
                    f"more than {self._max_deltas} delta cycles at time "
                    f"{self.time_str()}: probable zero-delay feedback loop"
                )
            self._delta_count += 1
            probes = self._probes
            observed = probes is not None and probes._evaluation_observed
            # Evaluation phase. current_process names each process while
            # it runs and is reset once, when the phase ends or raises.
            try:
                if observed:
                    probes.delta_begin(self._time, self._delta_count)
                    while runnable:
                        process = popleft()
                        self.current_process = process
                        cause, process._wake_trigger = process._wake_trigger, None
                        probes.process_activate(self._time, process, cause)
                        try:
                            process._execute()
                        finally:
                            probes.process_suspend(self._time, process)
                else:
                    while runnable:
                        process = popleft()
                        self.current_process = process
                        send = process._send
                        if send is None:
                            # First activations and finished threads.
                            process._execute()
                            continue
                        # Process._execute inlined for a started thread.
                        process._runnable = False
                        try:
                            wait_spec = send(None)
                        except StopIteration:
                            process._finish()
                            continue
                        if isinstance(wait_spec, Event):
                            process._wait_event = wait_spec
                            wait_spec._dynamic_waiters.append(process)
                        else:
                            process._register_wait(wait_spec)
            finally:
                self.current_process = None
            # Update phase.
            updates = self._update_queue
            if updates:
                self._update_queue = []
                for target in updates:
                    target._update_requested = False
                    target._perform_update()
            # Delta notification phase. Clear the dedup flag before the
            # trigger so a callback may re-notify for the next delta.
            events = self._delta_events
            if events:
                self._delta_events = []
                for event in events:
                    event._delta_pending = False
                    event._trigger()
            if observed:
                probes.delta_end(self._time, self._delta_count)
            if self._stop_requested:
                return
