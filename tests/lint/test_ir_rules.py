"""IR0xx rules over hand-built (and hand-broken) netlists."""

from repro.lint import Severity
from repro.synthesis.ir import Const, Fsm, RtlModule

from .fixtures import lint_netlist


def rule_ids(report):
    return {d.rule_id for d in report.diagnostics}


def clean_module() -> RtlModule:
    """A small but fully-legal netlist."""
    module = RtlModule("ok")
    module.add_port("clk", "in", 1)
    enable = module.add_port("enable", "in", 1)
    out = module.add_port("out", "out", 1)
    counter = module.add_register("counter", 4, 0)
    module.add_clocked_assign(counter, Const(1, 4), enable=enable.ref())
    wire = module.add_net("wire", 1)
    module.add_assign(wire, enable.ref())
    module.add_assign(out, wire.ref())
    fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
    fsm.add_transition("IDLE", enable.ref(), "RUN")
    fsm.add_transition("RUN", None, "IDLE")
    module.add_fsm(fsm)
    return module


class TestCleanModule:
    def test_no_findings(self):
        assert lint_netlist(clean_module()).clean


class TestUnreachableFsmState:
    def test_fires_ir001(self):
        module = RtlModule("m")
        go = module.add_port("go", "in", 1)
        fsm = Fsm("ctrl", ["IDLE", "RUN", "ORPHAN"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "RUN")
        fsm.add_transition("RUN", None, "IDLE")
        module.add_fsm(fsm)
        report = lint_netlist(module)
        assert rule_ids(report) == {"IR001"}
        (diag,) = report.by_rule("IR001")
        assert diag.severity is Severity.WARNING
        assert diag.path == "m.ctrl.ORPHAN"


class TestWidthMismatch:
    def test_fires_ir002_on_mutated_net(self):
        module = RtlModule("m")
        src = module.add_port("src", "in", 4)
        dst = module.add_port("dst", "out", 4)
        module.add_assign(dst, src.ref())
        # Post-construction surgery: widen the source net. The cached
        # Ref width (4) and the assign no longer agree.
        src.width = 8
        report = lint_netlist(module)
        assert "IR002" in rule_ids(report)
        assert any(d.severity is Severity.ERROR
                   for d in report.by_rule("IR002"))


class TestUndrivenRegister:
    def test_fires_ir003(self):
        module = RtlModule("m")
        module.add_port("clk", "in", 1)
        module.add_register("stale", 8, 0)
        report = lint_netlist(module)
        assert rule_ids(report) == {"IR003"}
        (diag,) = report.by_rule("IR003")
        assert diag.severity is Severity.WARNING
        assert diag.path == "m.stale"

    def test_fsm_state_register_not_flagged(self):
        module = RtlModule("m")
        fsm = Fsm("ctrl", ["IDLE"], "IDLE")
        fsm.add_transition("IDLE", None, "IDLE")
        module.add_fsm(fsm)
        assert lint_netlist(module).clean


class TestUndrivenNet:
    def test_fires_ir004(self):
        module = RtlModule("m")
        out = module.add_port("out", "out", 1)
        floating = module.add_net("floating", 1)
        module.add_assign(out, floating.ref())
        report = lint_netlist(module)
        assert rule_ids(report) == {"IR004"}
        (diag,) = report.by_rule("IR004")
        assert diag.severity is Severity.ERROR
        assert diag.path == "m.floating"

    def test_unreferenced_net_not_flagged(self):
        """A dangling but unread net is dead code, not an X source."""
        module = RtlModule("m")
        module.add_net("unused", 1)
        assert lint_netlist(module).clean


class TestMultiplyDrivenNet:
    def test_fires_ir005(self):
        module = RtlModule("m")
        wire = module.add_net("wire", 1)
        out = module.add_port("out", "out", 1)
        module.add_assign(wire, Const(0, 1))
        module.add_assign(wire, Const(1, 1))
        module.add_assign(out, wire.ref())
        report = lint_netlist(module)
        assert rule_ids(report) == {"IR005"}
        (diag,) = report.by_rule("IR005")
        assert diag.severity is Severity.ERROR
        assert "2 structural drivers" in diag.message

    def test_fires_on_driven_input_port(self):
        module = RtlModule("m")
        inp = module.add_port("inp", "in", 1)
        module.add_assign(inp, Const(0, 1))
        report = lint_netlist(module)
        assert "IR005" in rule_ids(report)
        assert "input port" in report.by_rule("IR005")[0].message
