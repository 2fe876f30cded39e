"""FSM reachability, false guards and livelock detection."""

from repro.analyze.fsm import (
    analyze_fsms,
    const_fold,
    find_false_guards,
    find_livelock_cycles,
    find_terminal_states,
    reachable_states,
)
from repro.synthesis.ir import BinOp, Const, Fsm, Mux, RtlModule


def _ref(module, name="x", width=1):
    return module.add_port(name, "in", width).ref()


class TestConstFold:
    def test_basics(self):
        module = RtlModule("m")
        assert const_fold(Const(3, 4)) == 3
        assert const_fold(_ref(module)) is None
        assert const_fold(BinOp("+", Const(3, 4), Const(2, 4))) == 5

    def test_annihilators(self):
        """0 & x and 1-bit 1 | x fold despite the unknown side."""
        module = RtlModule("m")
        x = _ref(module)
        assert const_fold(BinOp("&", Const(0, 1), x)) == 0
        assert const_fold(BinOp("|", Const(1, 1), x)) == 1
        assert const_fold(BinOp("&", Const(1, 1), x)) is None

    def test_mux_arms_agree(self):
        module = RtlModule("m")
        x = _ref(module)
        assert const_fold(Mux(x, Const(2, 4), Const(2, 4))) == 2
        assert const_fold(Mux(x, Const(2, 4), Const(3, 4))) is None


def _module_with(fsm):
    module = RtlModule("m")
    module.add_fsm(fsm)
    return module


class TestTerminalStates:
    def test_reachable_dead_end(self):
        module = RtlModule("m")
        go = _ref(module, "go")
        fsm = Fsm("ctrl", ["IDLE", "STUCK"], "IDLE")
        fsm.add_transition("IDLE", go, "STUCK")
        module.add_fsm(fsm)
        (finding,) = find_terminal_states(fsm)
        assert finding.kind == "terminal"
        assert finding.subject == "STUCK"

    def test_false_guard_exit_still_terminal(self):
        module = RtlModule("m")
        go = _ref(module, "go")
        fsm = Fsm("ctrl", ["IDLE", "STUCK"], "IDLE")
        fsm.add_transition("IDLE", go, "STUCK")
        fsm.add_transition("STUCK", Const(0, 1), "IDLE")
        module.add_fsm(fsm)
        (finding,) = find_terminal_states(fsm)
        assert "statically-false" in finding.message

    def test_unreachable_dead_end_not_reported(self):
        """IR001's concern, not FSM001's."""
        fsm = Fsm("ctrl", ["IDLE", "ORPHAN"], "IDLE")
        fsm.add_transition("IDLE", None, "IDLE")
        _module_with(fsm)
        assert list(find_terminal_states(fsm)) == []


class TestFalseGuards:
    def test_const_zero_guard(self):
        module = RtlModule("m")
        go = _ref(module, "go")
        fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
        fsm.add_transition("IDLE", go, "RUN")
        fsm.add_transition("IDLE", Const(0, 1), "RUN")
        fsm.add_transition("RUN", None, "IDLE")
        module.add_fsm(fsm)
        (finding,) = find_false_guards(fsm)
        assert finding.kind == "false-guard"
        assert finding.subject == "IDLE->RUN"

    def test_reachability_ignores_false_arcs(self):
        fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
        fsm.add_transition("IDLE", Const(0, 1), "RUN")
        _module_with(fsm)
        assert reachable_states(fsm) == {"IDLE"}


class TestLivelock:
    def test_unconditional_two_state_spin(self):
        fsm = Fsm("ctrl", ["A", "B"], "A")
        fsm.add_transition("A", None, "B")
        fsm.add_transition("B", None, "A")
        _module_with(fsm)
        (finding,) = find_livelock_cycles(fsm)
        assert finding.kind == "livelock"
        assert "A -> B" in finding.message

    def test_conditional_arc_is_not_livelock(self):
        module = RtlModule("m")
        go = _ref(module, "go")
        fsm = Fsm("ctrl", ["A", "B"], "A")
        fsm.add_transition("A", go, "B")
        fsm.add_transition("B", None, "A")
        module.add_fsm(fsm)
        assert list(find_livelock_cycles(fsm)) == []

    def test_exit_arc_is_not_livelock(self):
        module = RtlModule("m")
        go = _ref(module, "go")
        fsm = Fsm("ctrl", ["A", "B", "OUT"], "A")
        fsm.add_transition("A", None, "B")
        fsm.add_transition("B", None, "A")
        fsm.add_transition("B", go, "OUT")
        fsm.add_transition("OUT", None, "A")
        module.add_fsm(fsm)
        assert list(find_livelock_cycles(fsm)) == []

    def test_one_state_placeholder_is_exempt(self):
        fsm = Fsm("ctrl", ["IDLE"], "IDLE")
        fsm.add_transition("IDLE", None, "IDLE")
        _module_with(fsm)
        assert list(find_livelock_cycles(fsm)) == []


class TestAnalyzeFsms:
    def test_collects_across_fsms(self):
        module = RtlModule("m")
        go = _ref(module, "go")
        dead = Fsm("dead", ["IDLE", "STUCK"], "IDLE")
        dead.add_transition("IDLE", go, "STUCK")
        module.add_fsm(dead)
        spin = Fsm("spin", ["A", "B"], "A")
        spin.add_transition("A", None, "B")
        spin.add_transition("B", None, "A")
        module.add_fsm(spin)
        kinds = {f.kind for f in analyze_fsms(module)}
        assert kinds == {"terminal", "livelock"}
