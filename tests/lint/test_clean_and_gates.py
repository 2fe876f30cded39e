"""No false positives on the shipped platforms; error findings gate
both the design flow and the synthesis tool."""

import pytest

from repro.core import generate_workload
from repro.errors import SynthesisError
from repro.flow import DesignFlow, build_platform, standard_flow_builders
from repro.hdl.module import Module
from repro.kernel import MS
from repro.analyze import analyze_design
from repro.lint import LintConfig, lint_design
from repro.synthesis.ir import Const, RtlModule
from repro.synthesis.tool import _analyze_group_netlists

WORKLOADS = [generate_workload(seed=7, n_commands=4, address_span=0x100,
                               max_burst=2)]


class TestExamplesLintClean:
    """The checked-in example platforms must produce zero findings."""

    def test_functional_platform(self):
        bundle = build_platform(WORKLOADS, bus="functional")
        assert lint_design(bundle.handle.sim).clean

    def test_pci_platform(self):
        bundle = build_platform(WORKLOADS, bus="pci")
        assert lint_design(bundle.handle.sim).clean

    def test_wishbone_platform(self):
        bundle = build_platform(WORKLOADS, bus="wishbone")
        assert lint_design(bundle.handle.sim).clean

    def test_synthesized_pci_platform_and_netlists(self):
        bundle = build_platform(WORKLOADS, bus="pci", synthesize=True)
        assert lint_design(bundle.handle.sim).clean
        report = analyze_design(bundle.synthesis, label="netlists").lint
        assert report.clean
        # Every group's netlists were visited.
        assert report.subject == "netlists"
        assert {"IR001", "IR002", "IR003", "IR004", "IR005"} <= set(
            report.rules_run
        )


class TestFlowGate:
    def test_flow_refuses_design_with_errors(self):
        """An unbound port in the implementation model aborts the flow
        at the lint stage, before synthesis is attempted."""
        functional, implementation = standard_flow_builders(WORKLOADS)

        def broken_implementation(synthesize):
            handle, synthesis = implementation(synthesize)

            class Dangling(Module):
                def __init__(self, parent, name):
                    super().__init__(parent, name)
                    self.loose = self.in_port("loose", width=1)

            Dangling(handle.sim, "dangling")
            return handle, synthesis

        flow = DesignFlow({"name": "broken"}, functional,
                          broken_implementation)
        with pytest.raises(SynthesisError, match="MOD001"):
            flow.run(20 * MS)

    def test_suppression_lets_flow_pass(self):
        functional, implementation = standard_flow_builders(WORKLOADS)

        def broken_implementation(synthesize):
            handle, synthesis = implementation(synthesize)

            class Dangling(Module):
                def __init__(self, parent, name):
                    super().__init__(parent, name)
                    self.loose = self.in_port("loose", width=1)

            Dangling(handle.sim, "dangling")
            return handle, synthesis

        flow = DesignFlow(
            {"name": "waived"}, functional, broken_implementation,
            lint_config=LintConfig(suppress=["MOD001@dangling.*"]),
        )
        # The simulation stages still fail elaboration on the unbound
        # port, but lint itself must not be the stage that stops it.
        with pytest.raises(Exception) as excinfo:
            flow.run(20 * MS)
        assert "MOD001" not in str(excinfo.value)


class TestSynthesisGate:
    def test_broken_netlist_aborts_synthesis(self):
        module = RtlModule("broken")
        wire = module.add_net("wire", 1)
        out = module.add_port("out", "out", 1)
        module.add_assign(wire, Const(0, 1))
        module.add_assign(wire, Const(1, 1))
        module.add_assign(out, wire.ref())
        with pytest.raises(SynthesisError, match="IR005"):
            _analyze_group_netlists("g0", [module])

    def test_clean_netlist_passes(self):
        module = RtlModule("fine")
        out = module.add_port("out", "out", 1)
        module.add_assign(out, Const(1, 1))
        (analysis,) = _analyze_group_netlists("g0", [module])
        assert analysis.module is module
