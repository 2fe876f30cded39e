"""One analysis per netlist per process.

Synthesis builds one :class:`ModuleAnalysis` (one ``NetGraph``, one
levelization) per netlist when it first derives a group shape, and
every later reader takes that one: the analysis report, the lint CLI's
``pci-synth`` target, the design-flow gate, the compiled backend's
codegen and the compile CLI's cross-check. Each test starts from a
cold shape memo and counts what its command builds; the Figure-4 PCI
platform has two netlists (channel and object server).
"""

import pathlib

import pytest

from repro.__main__ import main
from repro.analyze import (
    LevelizationResult,
    ModuleAnalysis,
    NetGraph,
    analyze_design,
)
from repro.core import generate_workload
from repro.flow import PciPlatformConfig, build_platform
from repro.lint import DesignContext, astutils, lint_design
from repro.synthesis.tool import synthesize_group_shape

EXAMPLE = str(
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "pci_system.py"
)
WORKLOADS = [generate_workload(seed=7, n_commands=4, address_span=0x100,
                               max_burst=2)]
#: Two netlists: one analysis, one graph and one levelization each.
ONCE_EACH = {"analyses": 2, "graphs": 2, "levelizations": 2}


@pytest.fixture
def built(monkeypatch, tmp_path):
    """What the test builds, counted from a cold synthesis memo."""
    # The example script writes pci_system.vcd into the working dir.
    monkeypatch.chdir(tmp_path)
    counts = dict.fromkeys(ONCE_EACH, 0)
    for cls, key in ((ModuleAnalysis, "analyses"), (NetGraph, "graphs"),
                     (LevelizationResult, "levelizations")):
        original = cls.__init__

        def init(self, *args, _original=original, _key=key, **kwargs):
            counts[_key] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    synthesize_group_shape.cache_clear()
    yield counts
    synthesize_group_shape.cache_clear()


class TestOneAnalysisPerNetlist:
    def test_synthesis_then_report(self, built):
        bundle = build_platform(WORKLOADS, bus="pci", synthesize=True)
        assert built == ONCE_EACH
        report = analyze_design(bundle.synthesis, bundle.handle.sim)
        assert built == ONCE_EACH
        assert report.modules == list(bundle.synthesis.groups[0].analyses)

    def test_second_build_of_the_shape_builds_none(self, built):
        build_platform(WORKLOADS, bus="pci", synthesize=True)
        build_platform(WORKLOADS, bus="pci", synthesize=True)
        assert built == ONCE_EACH

    def test_compiled_backend_codegen(self, built):
        bundle = build_platform(
            WORKLOADS, PciPlatformConfig(backend="compiled"), bus="pci",
            synthesize=True,
        )
        assert bundle.synthesis.groups[0].channel.netlist is not None
        assert built == ONCE_EACH

    def test_analyze_cli(self, built):
        assert main(["analyze", "--quiet-script", EXAMPLE]) == 0
        assert built == ONCE_EACH

    def test_lint_cli_pci_synth(self, built):
        assert main(["lint", "--target", "pci-synth"]) == 0
        assert built == ONCE_EACH

    def test_design_flow_gate(self, built, capsys):
        assert main(["flow"]) == 0
        assert "post-synthesis netlist analysis" in capsys.readouterr().out
        assert built == ONCE_EACH

    def test_compile_cli_check(self, built, capsys):
        assert main(["compile", "--check", "8", "--quiet-script",
                     EXAMPLE]) == 0
        assert "check: 8 random vectors equal" in capsys.readouterr().out
        assert built == ONCE_EACH


class TestOneGroupViewPerGroup:
    def test_design_rules_share_the_views(self, monkeypatch):
        """The GRD, RES and RACE rules read one view per connection
        group, so each method body's writes are scanned once per
        design context."""
        bundle = build_platform(WORKLOADS, bus="pci", synthesize=True)
        sim = bundle.handle.sim
        views = DesignContext(sim).group_views()
        methods = sum(len(view.method_writes) for view in views)
        scans = []
        original = astutils.self_attr_writes

        def scan(node):
            scans.append(node)
            return original(node)

        monkeypatch.setattr(astutils, "self_attr_writes", scan)
        report = lint_design(sim)
        assert {"GRD001", "RES001", "RACE001"} <= set(report.rules_run)
        assert methods and len(scans) == methods
