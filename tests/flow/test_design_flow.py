"""Tests of the Figure 2 design-flow driver."""

import pytest

from repro.core import CommandType, generate_workload
from repro.errors import ConsistencyError, RefinementError
from repro.flow import (
    DesignFlow,
    PciPlatformConfig,
    build_functional_platform,
    build_pci_platform,
    standard_flow_builders,
)
from repro.iface import IfaceParams
from repro.kernel import MS


WORKLOADS = [generate_workload(seed=31, n_commands=8, address_span=0x100,
                               max_burst=2)]


class TestFullFlow:
    def test_all_stages_pass(self):
        flow = DesignFlow({"name": "demo"}, *standard_flow_builders(WORKLOADS))
        report = flow.run(20 * MS)
        assert report.succeeded
        assert len(report.stages) == 8
        assert report.lint_report is not None
        assert not report.lint_report.has_errors
        assert report.analysis_report is not None
        assert not report.analysis_report.has_errors
        assert report.refinement_check.consistent
        assert report.synthesis_check.consistent
        assert report.synthesis_result is not None
        assert report.post_synthesis_result.transactions == 8

    def test_summary_lists_stages(self):
        flow = DesignFlow({"name": "demo"}, *standard_flow_builders(WORKLOADS))
        report = flow.run(20 * MS)
        text = report.summary()
        assert "communication synthesis" in text
        assert "static design-rule lint" in text
        assert "post-synthesis netlist analysis" in text
        assert "[  ok]" in text

    def test_missing_name_fails_first_stage(self):
        flow = DesignFlow({}, *standard_flow_builders(WORKLOADS))
        with pytest.raises(RefinementError):
            flow.run(20 * MS)

    def test_divergent_functional_model_caught(self):
        """Inject a functional model that disagrees -> stage 4 fails."""
        different = [generate_workload(seed=99, n_commands=8,
                                       address_span=0x100)]

        def bad_functional():
            return build_functional_platform(different).handle

        __, implementation = standard_flow_builders(WORKLOADS)
        flow = DesignFlow({"name": "broken"}, bad_functional, implementation)
        with pytest.raises(ConsistencyError):
            flow.run(20 * MS)


class TestFlowDataWidth:
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    @pytest.mark.parametrize("bus", ["wishbone", "axi4lite"])
    @pytest.mark.parametrize("width", [16, 64])
    def test_synthesized_data_buses_follow_params(self, width, bus, backend):
        """The flow synthesizes the platform's data width, as
        ``build_platform`` does, on either backend."""
        # Two-lane commands: legal on a 16-bit data path too.
        workloads = [[
            CommandType.write(0x10, [0x1234, 0xBEEF], byte_enables=0x3),
            CommandType.read(0x10, count=2, byte_enables=0x3),
        ]]
        config = PciPlatformConfig(params=IfaceParams(data_width=width))
        flow = DesignFlow(
            {"name": f"{bus}-{width}"},
            *standard_flow_builders(workloads, config, bus=bus),
            backend=backend,
        )
        report = flow.run(20 * MS)
        assert report.succeeded
        channel_ir = report.synthesis_result.groups[0].channel_ir
        widths = {port.name: port.width for port in channel_ir.ports}
        assert (widths["arg_data"], widths["ret_data"]) == (width, width)


class TestBuilders:
    def test_multiple_workloads_multiple_apps(self):
        workloads = [
            [CommandType.write(0x00, [1])],
            [CommandType.write(0x40, [2])],
        ]
        bundle = build_pci_platform(workloads)
        assert len(bundle.handle.applications) == 2
        bundle.run(5 * MS)
        assert bundle.memory.read_word(0x00) == 1
        assert bundle.memory.read_word(0x40) == 2

    def test_empty_workloads_rejected(self):
        with pytest.raises(RefinementError):
            standard_flow_builders([])

    def test_config_reaches_target(self):
        config = PciPlatformConfig(wait_states=3, decode_latency=2)
        bundle = build_pci_platform(WORKLOADS, config)
        assert bundle.top.mem_target.wait_states == 3
        assert bundle.top.mem_target.decode_latency == 2

    def test_synthesized_platform_reports(self):
        bundle = build_pci_platform(WORKLOADS, synthesize=True)
        assert bundle.synthesis is not None
        bundle.run(20 * MS)
        channel = bundle.synthesis.groups[0].channel
        assert channel.calls_serviced > 0
