"""Tests of the synthesis driver (discovery, lowering, reporting)."""

import pytest

from repro.errors import SynthesisError
from repro.hdl import Clock, Module
from repro.kernel import MS, NS, Simulator
from repro.osss import GlobalObject, connect, guarded_method
from repro.synthesis import (
    SynthesisConfig,
    discover_groups,
    synthesize_communication,
)


class Latch:
    def __init__(self):
        self.value = 0

    @guarded_method()
    def store(self, v):
        self.value = v

    @guarded_method()
    def load(self):
        return self.value


def _design(n_groups=1, hosts_per_group=2):
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    groups = []
    for g in range(n_groups):
        hosts = []
        for h in range(hosts_per_group):
            module = Module(sim, f"g{g}h{h}")
            hosts.append(GlobalObject(module, "obj", Latch))
        connect(*hosts)
        groups.append(hosts)
    return sim, clock, groups


class TestDiscovery:
    def test_groups_found(self):
        sim, __, groups = _design(n_groups=3, hosts_per_group=2)
        found = discover_groups(sim)
        assert len(found) == 3
        assert all(len(g) == 2 for g in found)

    def test_handles_sorted_by_path(self):
        sim, __, ___ = _design()
        found = discover_groups(sim)
        paths = [h.path for h in found[0]]
        assert paths == sorted(paths)


class TestSynthesisDriver:
    def test_synthesizes_all_groups(self):
        sim, clock, groups = _design(n_groups=2)
        result = synthesize_communication(sim, clock.clk)
        assert len(result.groups) == 2
        assert result.report.total_fsm_states >= 6

    def test_only_filter(self):
        sim, clock, groups = _design(n_groups=2)
        result = synthesize_communication(sim, clock.clk, only=[groups[0][0]])
        assert len(result.groups) == 1
        # The untouched group still has its behavioural server.
        assert groups[1][0]._root()._lowered is None

    def test_empty_design_rejected(self):
        sim = Simulator()
        clock = Clock(sim, "clock", period=10 * NS)
        with pytest.raises(SynthesisError):
            synthesize_communication(sim, clock.clk)

    def test_elaborated_design_rejected(self):
        sim, clock, __ = _design()
        sim.run(10 * NS)
        with pytest.raises(SynthesisError):
            synthesize_communication(sim, clock.clk)

    def test_design_with_traffic_rejected(self):
        sim, clock, groups = _design()
        # Pre-run a different sim? Instead: simulate traffic counters.
        groups[0][0].space.stats.total_requests = 1
        with pytest.raises(SynthesisError):
            synthesize_communication(sim, clock.clk)

    def test_hdl_emission_toggle(self):
        sim, clock, __ = _design()
        result = synthesize_communication(
            sim, clock.clk, SynthesisConfig(emit_hdl=False)
        )
        assert result.groups[0].verilog == ""
        assert result.all_verilog() == ""

    def test_hdl_emitted_by_default(self):
        sim, clock, __ = _design()
        result = synthesize_communication(sim, clock.clk)
        assert "module chan0" in result.all_verilog()
        assert "entity chan0" in result.all_vhdl()

    def test_report_render(self):
        sim, clock, __ = _design()
        result = synthesize_communication(sim, clock.clk)
        text = result.report.render()
        assert "communication synthesis report" in text
        assert "lowered channels:" in text
        assert "Latch" in text

    def test_config_validation(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(body_cycles=0)
        with pytest.raises(SynthesisError):
            SynthesisConfig(data_width=0)

    def test_post_synthesis_behaviour_preserved(self):
        sim, clock, groups = _design()
        synthesize_communication(sim, clock.clk)
        results = []

        def writer():
            yield from groups[0][0].store(0x77)

        def reader():
            from repro.kernel import Timeout

            yield Timeout(500 * NS)
            value = yield from groups[0][1].load()
            results.append(value)

        sim.spawn(writer, "w")
        sim.spawn(reader, "r")
        sim.run(2 * MS)
        assert results == [0x77]
