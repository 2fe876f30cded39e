"""FSM liveness rules over the synthesis IR (FSM0xx).

They report the :mod:`repro.analyze.fsm` findings of the netlist's
:class:`~repro.analyze.passes.ModuleAnalysis`: reachable states with no
way out (FSM001), transition guards that constant-fold to false
(FSM002) and unconditional do-nothing cycles (FSM003). IR001 (plain
unreachability) stays separate — these rules are about the *liveness*
of the states the machine does reach.
"""

from __future__ import annotations

import typing

from ..analyze.passes import ModuleAnalysis
from .diagnostics import Diagnostic, Severity
from .engine import IR, LintRule, register


class _FsmFindingRule(LintRule):
    """Reports the analysis's FSM findings of one kind."""

    kind = ""
    hint = ""

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        for finding in analysis.fsm_findings:
            if finding.kind == self.kind:
                yield self.emit(
                    f"{analysis.module.name}.{finding.fsm.name}."
                    f"{finding.subject}",
                    finding.message,
                    self.hint,
                )


@register
class TerminalStateRule(_FsmFindingRule):
    """A reachable FSM state with no live outgoing transition."""

    rule_id = "FSM001"
    name = "fsm-terminal-state"
    target = IR
    default_severity = Severity.ERROR
    description = (
        "once entered, a state with no live way out deadlocks the "
        "protocol: grants stop, every caller hangs"
    )
    kind = "terminal"
    hint = "add a transition out of the state (or back to reset)"


@register
class FalseGuardTransitionRule(_FsmFindingRule):
    """A transition whose condition is statically false."""

    rule_id = "FSM002"
    name = "fsm-false-transition"
    target = IR
    default_severity = Severity.WARNING
    description = (
        "a constant-false guard means the arc is dead weight — and "
        "often means a condition was wired to the wrong constant"
    )
    kind = "false-guard"
    hint = "fix the condition expression or delete the arc"


@register
class LivelockCycleRule(_FsmFindingRule):
    """An unconditional FSM cycle that does no protocol work."""

    rule_id = "FSM003"
    name = "fsm-livelock-cycle"
    target = IR
    default_severity = Severity.WARNING
    description = (
        "a reachable cycle with only unconditional arcs, no exit and "
        "no outputs spins forever without granting anything"
    )
    kind = "livelock"
    hint = (
        "guard an arc of the cycle, add an exit arc, or make a state "
        "produce an output"
    )
