"""In-sim run supervision: wall budget and stall detection."""

from repro.hdl.clock import Clock
from repro.hdl.module import Module
from repro.kernel.process import Timeout
from repro.kernel.simtime import US
from repro.kernel.simulator import Simulator
from repro.osss.global_object import GlobalObject
from repro.osss.guarded_method import guarded_method
from repro.resilience import RunWatchdog, communication_progress
from repro.resilience.watchdog import POLL


class _DeadCell:
    def __init__(self):
        self.ready = False

    @guarded_method(lambda self: self.ready)
    def take(self):
        return 1


class _Stuck(Module):
    """One caller blocked forever on a guard nothing opens."""

    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.cell = GlobalObject(self, "cell", _DeadCell)
        self.thread(self._caller, "caller")

    def _caller(self):
        yield from self.cell.call("take")


class _Busy(Module):
    """Healthy traffic: a call completes every couple of microseconds."""

    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.cell = GlobalObject(self, "cell", _DeadCell)
        self.cell.state.ready = True
        self.served = 0
        self.thread(self._caller, "caller")

    def _caller(self):
        while True:
            yield from self.cell.call("take")
            self.served += 1
            yield Timeout(2 * US)


class TestWallBudget:
    def test_exhausted_budget_stops_the_run(self):
        sim = Simulator()
        Clock(sim, "clock", period=1 * US)
        watchdog = RunWatchdog(sim, wall_budget=1e-9)
        sim.run(1000 * US)
        assert watchdog.fired
        assert watchdog.reason == "wall"
        assert sim.time == POLL  # stopped at the first tick

    def test_generous_budget_never_fires(self):
        sim = Simulator()
        Clock(sim, "clock", period=1 * US)
        watchdog = RunWatchdog(sim, wall_budget=300.0)
        sim.run(100 * US)
        assert not watchdog.fired
        assert sim.time == 100 * US


class TestStallDetection:
    def test_frozen_pending_traffic_fires_stall(self):
        sim = Simulator()
        _Stuck(sim, "top")
        watchdog = RunWatchdog(sim, stall_strikes=3)
        sim.run(1000 * US)
        assert watchdog.fired
        assert watchdog.reason == "stall"
        # strikes only start accumulating once the snapshot stabilises,
        # so the trigger lands a few polls in — far before the horizon.
        assert sim.time <= 5 * POLL

    def test_progressing_traffic_never_stalls(self):
        sim = Simulator()
        top = _Busy(sim, "top")
        watchdog = RunWatchdog(sim, stall_strikes=3)
        sim.run(50 * US)
        assert not watchdog.fired
        assert top.served > 10

    def test_zero_strikes_disables_stall_detection(self):
        sim = Simulator()
        _Stuck(sim, "top")
        watchdog = RunWatchdog(sim, stall_strikes=0)
        sim.run(50 * US)
        assert not watchdog.fired
        assert sim.time == 50 * US

    def test_idle_platform_is_not_a_stall(self):
        """No pending calls: a quiet bus must never trip the watchdog."""
        sim = Simulator()
        Clock(sim, "clock", period=1 * US)
        watchdog = RunWatchdog(sim, stall_strikes=2)
        sim.run(50 * US)
        assert not watchdog.fired


class TestCancel:
    def test_cancel_disarms(self):
        sim = Simulator()
        _Stuck(sim, "top")
        watchdog = RunWatchdog(sim, stall_strikes=1)
        watchdog.cancel()
        sim.run(50 * US)
        assert not watchdog.fired


class TestProgressSnapshot:
    def test_counts_submissions_completions_and_pending(self):
        sim = Simulator()
        _Stuck(sim, "top")
        assert communication_progress(sim) == (0, 0, 0)
        sim.run(1 * US)
        submitted, completed, pending = communication_progress(sim)
        assert submitted == 1
        assert completed == 0
        assert pending == 1
