"""Integration tests mirroring the paper's experiments (see DESIGN.md)."""

import io


from repro.core import (
    CommandType,
    compare_refinement,
    generate_workload,
)
from repro.flow import (
    DesignFlow,
    PciPlatformConfig,
    build_platform,
    standard_flow_builders,
)
from repro.hdl import Module
from repro.kernel import MS, NS, Simulator, Timeout
from repro.osss import GlobalObject, connect, guarded_method
from repro.trace import VcdTracer, WaveformCapture, render
from repro.verify import check_bus_transactions, check_traces


class TestFig1SharedBistable:
    """Figure 1: connected global objects share one state space."""

    def test_three_connected_bistables(self):
        class Bistable:
            def __init__(self):
                self.state = False

            @guarded_method()
            def set(self):
                self.state = True

            @guarded_method()
            def get_state(self):
                return self.state

        sim = Simulator()
        m1, m2 = Module(sim, "m1"), Module(sim, "m2")
        b1 = GlobalObject(m1, "bistable", Bistable)
        b2 = GlobalObject(m2, "bistable", Bistable)
        b_top = GlobalObject(m1, "top_bistable", Bistable)
        connect(b1, b2, b_top)
        observations = []

        def setter():
            yield Timeout(10 * NS)
            yield from b1.set()

        def getter():
            value = yield from b2.get_state()
            observations.append(("before", value))
            yield Timeout(20 * NS)
            value = yield from b2.get_state()
            observations.append(("after", value))

        sim.spawn(setter, "s")
        sim.spawn(getter, "g")
        sim.run(1 * MS)
        assert ("before", False) in observations
        assert ("after", True) in observations


class TestFig3Refinement:
    """Figure 3: interface swap preserves traces; TLM simulates cheaper."""

    def test_traces_identical_and_tlm_cheaper(self):
        workload = generate_workload(seed=77, n_commands=25,
                                     address_span=0x400, max_burst=4,
                                     partial_byte_enable_fraction=0.2)
        report = compare_refinement(
            lambda: build_platform([workload], bus="functional").handle,
            lambda: build_platform([workload], bus="pci").handle,
            max_time=50 * MS,
        )
        assert report.consistent
        assert report.delta_ratio > 2.0

    def test_swap_under_pathological_target_still_consistent(self):
        workload = generate_workload(seed=78, n_commands=10,
                                     address_span=0x100, max_burst=3)
        config = PciPlatformConfig(wait_states=2, retry_count=1,
                                   disconnect_after=2)
        report = compare_refinement(
            lambda: build_platform(
                [workload], config, bus="functional"
            ).handle,
            lambda: build_platform([workload], config, bus="pci").handle,
            max_time=100 * MS,
        )
        assert report.consistent


class TestExpSynConsistency:
    """Section 3, steps 1-3: simulate, synthesize, re-simulate, compare."""

    def _run(self, synthesize):
        workload = generate_workload(seed=55, n_commands=15,
                                     address_span=0x200, max_burst=3)
        bundle = build_platform([workload], bus="pci", synthesize=synthesize)
        result = bundle.run(50 * MS)
        return result, bundle

    def test_application_traces_consistent(self):
        pre, __ = self._run(False)
        post, ___ = self._run(True)
        check_traces(pre.traces, post.traces).require_consistent()

    def test_bus_transactions_consistent(self):
        __, bundle_pre = self._run(False)
        ___, bundle_post = self._run(True)
        report = check_bus_transactions(
            bundle_pre.monitor.signatures(),
            bundle_post.monitor.signatures(),
        )
        report.require_consistent()

    def test_post_synthesis_takes_longer_sim_time(self):
        pre, __ = self._run(False)
        post, ___ = self._run(True)
        # Cycle-accurate method calls cost clock cycles the behavioural
        # channel did not: simulated end time must grow.
        assert post.sim_time > pre.sim_time

    def test_full_design_flow(self):
        workloads = [generate_workload(seed=9, n_commands=10,
                                       address_span=0x100)]
        flow = DesignFlow({"name": "exp-syn"},
                          *standard_flow_builders(workloads))
        report = flow.run(50 * MS)
        assert report.succeeded


class TestFig4Waveforms:
    """Figure 4: post-synthesis simulation waveforms of the PCI handler."""

    def test_vcd_and_ascii_artifacts(self):
        commands = [
            CommandType.write(0x100, [0xDEADBEEF, 0x12345678]),
            CommandType.read(0x100, count=2),
        ]
        bundle = build_platform([commands], bus="pci", synthesize=True)
        sim = bundle.handle.sim
        stream = io.StringIO()
        vcd = VcdTracer(stream)
        capture = WaveformCapture()
        watched = [bundle.clock.clk] + bundle.bus.shared_signals()
        vcd.add_signals(watched)
        capture.add_signals(watched)
        sim.add_tracer(vcd)
        sim.add_tracer(capture)
        bundle.run(10 * MS)
        vcd.close(sim.time)

        vcd_text = stream.getvalue()
        assert "$var wire 32" in vcd_text       # the AD bus
        assert "frame_n" in vcd_text
        assert vcd_text.count("#") > 10         # real activity

        art = render(capture, [s.name for s in watched], 0, 3000 * NS,
                     15 * NS)
        assert "#" in art and "_" in art and "~" in art
        # The write burst's data words crossed the AD bus.
        ad_values = [v for __, v in capture.changes("top.bus.ad")]
        assert any(v.is_fully_defined and v.to_int() == 0xDEADBEEF
                   for v in ad_values)
        assert any(v.is_fully_defined and v.to_int() == 0x12345678
                   for v in ad_values)

    def test_waveforms_show_the_handshake(self):
        commands = [CommandType.write(0x100, [0x1])]
        bundle = build_platform([commands], bus="pci")
        sim = bundle.handle.sim
        capture = WaveformCapture()
        capture.add_signals([bundle.bus.frame_n, bundle.bus.irdy_n,
                             bundle.bus.trdy_n, bundle.bus.devsel_n])
        sim.add_tracer(capture)
        bundle.run(10 * MS)
        # FRAME# must have been asserted (driven low) at least once.
        frames = [v for __, v in capture.changes("top.bus.frame_n")]
        assert any(v.is_fully_defined and v.to_int() == 0 for v in frames)
        trdys = [v for __, v in capture.changes("top.bus.trdy_n")]
        assert any(v.is_fully_defined and v.to_int() == 0 for v in trdys)
