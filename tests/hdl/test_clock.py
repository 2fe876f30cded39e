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
                yield clock.posedge
                edges.append(sim.time)

        sim.spawn(watcher, "w")
        sim.run(32 * NS)
        assert edges == [5 * NS, 15 * NS, 25 * NS]
        assert clock.cycle_count == 3

    def test_start_high(self, sim):
        clock = Clock(sim, "clk", period=10 * NS, start_high=True)
        assert clock.clk.read().to_int() == 1
        negedges = []

        def watcher():
            yield clock.negedge
            negedges.append(sim.time)

        sim.spawn(watcher, "w")
        sim.run(20 * NS)
        assert negedges == [5 * NS]

    def test_duty_cycle(self, sim):
        clock = Clock(sim, "clk", period=10 * NS, duty=0.3)
        assert clock.high_time == 3 * NS
        assert clock.low_time == 7 * NS

    def test_invalid_parameters(self, sim):
        with pytest.raises(SimulationError):
            Clock(sim, "c1", period=1)
        with pytest.raises(SimulationError):
            Clock(sim, "c2", period=10 * NS, duty=0.0)
        with pytest.raises(SimulationError):
            Clock(sim, "c3", period=10 * NS, duty=1.5)

