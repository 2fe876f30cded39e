"""Unit tests for the scheduler's delta-cycle and time-advance machinery."""

import pytest

from repro.errors import SimulationError
from repro.kernel import NS, Simulator, Timeout


def _noop():
    """A generator thread that terminates immediately."""
    return
    yield


@pytest.fixture
def sim():
    return Simulator()


class TestTimeAdvance:
    def test_run_to_duration(self, sim):
        sim.spawn(_noop, "noop")
        end = sim.run(100 * NS)
        assert end == 100 * NS
        assert sim.time == 100 * NS

    def test_run_until_starvation(self, sim):
        def thread():
            yield Timeout(30 * NS)

        sim.spawn(thread, "t")
        end = sim.run()  # unbounded: ends when no events remain
        assert end == 30 * NS

    def test_resume_continues_from_current_time(self, sim):
        stamps = []

        def thread():
            while True:
                yield Timeout(10 * NS)
                stamps.append(sim.time)

        sim.spawn(thread, "t")
        sim.run(25 * NS)
        assert stamps == [10 * NS, 20 * NS]
        sim.run(20 * NS)
        assert stamps == [10 * NS, 20 * NS, 30 * NS, 40 * NS]

    def test_simultaneous_timeouts_all_fire(self, sim):
        log = []

        def make(tag):
            def thread():
                yield Timeout(10 * NS)
                log.append(tag)
            return thread

        for i in range(4):
            sim.spawn(make(i), f"t{i}")
        sim.run(20 * NS)
        assert sorted(log) == [0, 1, 2, 3]


class TestStop:
    def test_stop_ends_run_early(self, sim):
        def stopper():
            yield Timeout(10 * NS)
            sim.stop()

        def late():
            yield Timeout(50 * NS)
            raise AssertionError("should not run")

        sim.spawn(stopper, "s")
        sim.spawn(late, "l")
        end = sim.run(100 * NS)
        assert end == 10 * NS


class TestDeltaCycles:
    def test_delta_count_increases(self, sim):
        def thread():
            for __ in range(5):
                yield Timeout(0)

        sim.spawn(thread, "t")
        sim.run(1)
        assert sim.delta_count >= 5

    def test_zero_delay_feedback_loop_detected(self):
        sim = Simulator(max_deltas_per_timestep=50)
        event = sim.event("ping")

        def looper():
            while True:
                event.notify_delta()
                yield event

        sim.spawn(looper, "loop")
        with pytest.raises(SimulationError, match="delta cycles"):
            sim.run(10)

    def test_current_process_tracked(self, sim):
        seen = []

        def thread():
            seen.append(sim.scheduler.current_process)
            yield Timeout(1)

        process = sim.spawn(thread, "t")
        sim.run(10)
        assert seen == [process]
        assert sim.scheduler.current_process is None


class TestSpawnHelpers:
    def test_spawn_returns_process(self, sim):
        process = sim.spawn(_noop, "x")
        assert process.name == "x"
        assert process in sim.scheduler.processes
