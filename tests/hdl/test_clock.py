"""Unit tests for clock and reset generators."""

import pytest

from repro.errors import SimulationError
from repro.hdl import Clock
from repro.kernel import NS, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_period_and_edges(self, sim):
        clock = Clock(sim, "clk", period=10 * NS)
        edges = []

        def watcher():
            while True:
                yield clock.clk.posedge
                edges.append(sim.time)

        sim.spawn(watcher, "w")
        sim.run(32 * NS)
        assert edges == [5 * NS, 15 * NS, 25 * NS]
        assert clock.cycle_count == 3

    def test_duty_cycle(self, sim):
        clock = Clock(sim, "clk", period=10 * NS)
        assert (clock.high_time, clock.low_time) == (5 * NS, 5 * NS)
        odd = Clock(sim, "odd", period=7)
        assert (odd.high_time, odd.low_time) == (3, 4)

    def test_invalid_parameters(self, sim):
        with pytest.raises(SimulationError):
            Clock(sim, "c1", period=1)
