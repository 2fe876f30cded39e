"""FSM0xx rules: liveness defects in synthesized state machines."""

from repro.lint import Severity
from repro.synthesis.ir import Const, Fsm, RtlModule

from .fixtures import lint_netlist


def _host(fsm):
    module = RtlModule("m")
    module.add_fsm(fsm)
    return module


class TestTerminalState:
    def test_dead_end_state_fires(self):
        module = RtlModule("m")
        go = module.add_port("go", "in", 1)
        fsm = Fsm("ctrl", ["IDLE", "STUCK"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "STUCK")
        module.add_fsm(fsm)
        (diag,) = lint_netlist(module).by_rule("FSM001")
        assert diag.severity is Severity.ERROR
        assert diag.path == "m.ctrl.STUCK"
        assert diag.hint

    def test_live_fsm_is_quiet(self):
        module = RtlModule("m")
        go = module.add_port("go", "in", 1)
        fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "RUN")
        fsm.add_transition("RUN", None, "IDLE")
        module.add_fsm(fsm)
        assert lint_netlist(module).by_rule("FSM001") == []


class TestFalseTransition:
    def test_const_false_guard_fires(self):
        module = RtlModule("m")
        go = module.add_port("go", "in", 1)
        fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "RUN")
        fsm.add_transition("IDLE", Const(0, 1), "RUN")
        fsm.add_transition("RUN", None, "IDLE")
        module.add_fsm(fsm)
        (diag,) = lint_netlist(module).by_rule("FSM002")
        assert diag.severity is Severity.WARNING
        assert diag.path == "m.ctrl.IDLE->RUN"


class TestLivelockCycle:
    def test_unconditional_spin_fires(self):
        fsm = Fsm("ctrl", ["A", "B"], "A")
        fsm.add_transition("A", None, "B")
        fsm.add_transition("B", None, "A")
        (diag,) = lint_netlist(_host(fsm)).by_rule("FSM003")
        assert diag.severity is Severity.WARNING
        assert diag.path.startswith("m.ctrl.")
        assert "A -> B" in diag.message

    def test_working_protocol_fsm_is_quiet(self):
        """The channel-shaped IDLE/EXEC/DONE machine must not be flagged."""
        module = RtlModule("m")
        go = module.add_port("go", "in", 1)
        done = module.add_port("done_in", "in", 1)
        fsm = Fsm("server", ["IDLE", "EXEC", "DONE"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "EXEC")
        fsm.add_transition("EXEC", done.ref(), "DONE")
        fsm.add_transition("DONE", None, "IDLE")
        module.add_fsm(fsm)
        report = lint_netlist(module)
        assert report.by_rule("FSM001") == []
        assert report.by_rule("FSM002") == []
        assert report.by_rule("FSM003") == []
