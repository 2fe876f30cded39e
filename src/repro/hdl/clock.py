"""The clock generator."""

from __future__ import annotations

from ..errors import SimulationError
from ..kernel.process import Timeout
from ..kernel.simulator import Simulator
from .bitvector import BITS
from .logic import L0
from .module import Module


class Clock(Module):
    """A free-running clock with a 50% duty cycle, starting low.

    The clock level lives on the 1-bit signal :attr:`clk`; waiters take
    ``clk.posedge``.

    The phase lives on the object and the toggle thread has one wait
    point, so the scheduler may run an edge inline (:meth:`_inline_edge`)
    when the clock's timer is the only notification due at an instant,
    and the thread resumes correctly after either kind of edge. A falling
    edge runs inline with the next rising edge, so an unobserved cycle
    costs the scheduler one time step.

    :param period: full period in femtoseconds.
    """

    def __init__(self, parent: "Module | Simulator", name: str, period: int) -> None:
        super().__init__(parent, name)
        if period <= 1:
            raise SimulationError(f"clock period must be > 1 fs, got {period}")
        self.period = period
        self.high_time = period // 2
        self.low_time = period - self.high_time
        self.clk = self.signal("clk", width=1, init=L0)
        self.cycle_count = 0
        #: The level of the current phase.
        self._high = False
        self._process = self.thread(self._toggle, "toggle")
        self._timer = self._process._timer()
        self._timer._inline = self._inline_edge

    def _toggle(self):
        # Timeouts are immutable, so each phase's wait is built once.
        high = Timeout(self.high_time)
        low = Timeout(self.low_time)
        while True:
            yield high if self._high else low
            self._high = level = not self._high
            self.clk.write(BITS[level])
            if level:
                self.cycle_count += 1

    def _inline_edge(self) -> bool:
        """The scheduler's inline form of one :meth:`_toggle` activation.

        Declines (returns False, changing nothing) unless the thread
        waits on its timer and ``clk`` holds the current phase's shared
        vector with no per-instance update hook (a fault on the clock).
        Otherwise it re-arms the timer as the thread's next wait would,
        commits the new level as the update phase would, and triggers
        ``posedge`` on a rising edge as the delta notification phase
        would.

        A falling edge triggers nothing (the scheduler calls this hook
        only while no kernel probe kind, ``signal.commit`` included, is
        observed), so it is fused into the next rising edge when the
        scheduler can skip to that edge
        (:meth:`~repro.kernel.scheduler.Scheduler._skip_to`: no timer due
        by then, no run end before it). The skip counts the falling
        edge's delta and moves the time on; the call then runs the rising
        edge: one time step per cycle. It leaves the low level
        uncommitted, as nothing could read it before the rising edge.
        """
        clk = self.clk
        high = self._high
        if (
            clk._value is not BITS[high]
            or self._process.done
            or "_perform_update" in clk.__dict__
        ):
            return False
        scheduler = self.sim.scheduler
        if high and scheduler._skip_to(scheduler._time + self.low_time):
            high = False
        self._high = high = not high
        # Inline edges run only while event.notify is unobserved, so the
        # re-arm records no notify cause.
        scheduler._schedule_timed_event(
            self._timer, self.high_time if high else self.low_time
        )
        clk._value = clk._next = BITS[high]
        if high:
            self.cycle_count += 1
            posedge = clk._posedge
            if posedge is not None:
                posedge._trigger()
        return True
