"""The clock generator."""

from __future__ import annotations

from ..errors import SimulationError
from ..kernel.event import Event
from ..kernel.process import Timeout
from ..kernel.simulator import Simulator
from .bitvector import BITS
from .logic import L0, L1
from .module import Module


class Clock(Module):
    """A free-running clock.

    The clock level lives on the 1-bit signal :attr:`clk`; the
    convenience events :attr:`posedge` / :attr:`negedge` come from it.

    The phase lives on the object and the toggle thread has one wait
    point, so the scheduler may run an edge inline (:meth:`_inline_edge`)
    when the clock's timer is the only notification due at an instant,
    and the thread resumes correctly after either kind of edge. An
    unobserved falling edge runs inline with the next rising edge, so an
    unobserved cycle costs the scheduler one time step.

    :param period: full period in femtoseconds.
    :param duty: high fraction of the period (default 0.5).
    :param start_high: initial level.
    """

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        period: int,
        duty: float = 0.5,
        start_high: bool = False,
    ) -> None:
        super().__init__(parent, name)
        if period <= 1:
            raise SimulationError(f"clock period must be > 1 fs, got {period}")
        if not 0.0 < duty < 1.0:
            raise SimulationError(f"duty cycle must be in (0, 1), got {duty}")
        self.period = period
        self.high_time = max(1, int(period * duty))
        self.low_time = period - self.high_time
        if self.low_time < 1:
            raise SimulationError(
                f"duty cycle {duty} leaves no low time at period {period}"
            )
        self.clk = self.signal("clk", width=1, init=L1 if start_high else L0)
        self.cycle_count = 0
        #: The level of the current phase.
        self._high = start_high
        self._process = self.thread(self._toggle, "toggle")
        self._timer = self._process._timer()
        self._timer._inline = self._inline_edge

    @property
    def posedge(self) -> Event:
        return self.clk.posedge

    @property
    def negedge(self) -> Event:
        return self.clk.negedge

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
        ``changed`` and the edge event in the order the delta
        notification phase would.

        A falling edge that triggers nothing (``clk`` has no ``changed``
        or ``negedge`` event; the scheduler calls this hook only while
        no kernel probe kind, ``signal.commit`` included, is observed)
        is fused into the next rising edge when the scheduler can skip
        to that edge (:meth:`~repro.kernel.scheduler.Scheduler._skip_to`:
        no timer due by then, no run end before it). The skip counts the
        falling edge's delta and moves the time on; the call then runs
        the rising edge: one time step per cycle. It leaves the low level
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
        if (
            high
            and clk._changed is None
            and clk._negedge is None
            and scheduler._skip_to(scheduler._time + self.low_time)
        ):
            high = False
        self._high = high = not high
        # Inline edges run only while event.notify is unobserved, so the
        # re-arm records no notify cause.
        scheduler._schedule_timed_event(
            self._timer, self.high_time if high else self.low_time
        )
        if high:
            self.cycle_count += 1
        clk._value = clk._next = BITS[high]
        changed = clk._changed
        edge = clk._posedge if high else clk._negedge
        if edge is None:
            if changed is not None:
                changed._trigger()
        elif changed is None:
            edge._trigger()
        else:
            # Both were pending in one delta: the edge stays pending
            # (deduplicating re-notifications) until its own trigger.
            edge._delta_pending = True
            changed._trigger()
            edge._delta_pending = False
            edge._trigger()
        return True

