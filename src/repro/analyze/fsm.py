"""FSM reachability, deadlock and guard analysis.

The synthesized arbiter/server FSMs must keep the protocol live: every
reachable state needs a way out, every transition guard must be
satisfiable, and no reachable cycle may spin without doing protocol
work. These checks back the ``FSM001``–``FSM003`` lint rules; the
functions return plain finding objects so both the rules and the
``analyze`` CLI can consume them.
"""

from __future__ import annotations

import typing

from ..synthesis import ir
from .graph import find_cycles


class FsmFinding:
    """One FSM analysis result."""

    __slots__ = ("kind", "fsm", "subject", "message")

    def __init__(
        self, kind: str, fsm: ir.Fsm, subject: str, message: str
    ) -> None:
        self.kind = kind  # "terminal" | "false-guard" | "livelock"
        self.fsm = fsm
        self.subject = subject
        self.message = message

    def __repr__(self) -> str:
        return f"FsmFinding({self.kind}: {self.fsm.name}.{self.subject})"


def const_fold(expr: ir.Expr) -> int | None:
    """The expression's constant value, or ``None`` if it reads a net."""
    if isinstance(expr, ir.Const):
        return expr.value
    if isinstance(expr, ir.Ref):
        return None
    if isinstance(expr, ir.UnOp):
        operand = const_fold(expr.operand)
        if operand is None:
            return None
        if expr.op == "~":
            return (~operand) & ((1 << expr.width) - 1)
        if expr.op == "|":
            return 1 if operand != 0 else 0
        return 1 if operand == (1 << expr.operand.width) - 1 else 0
    if isinstance(expr, ir.BinOp):
        left = const_fold(expr.left)
        right = const_fold(expr.right)
        # Short-circuit annihilators: 0 & x and 1-bit 1 | x fold even
        # when the other side is unknown.
        if expr.op == "&" and (left == 0 or right == 0):
            return 0
        if expr.op == "|" and expr.width == 1 and 1 in (left, right):
            return 1
        if left is None or right is None:
            return None
        mask = (1 << expr.width) - 1
        if expr.op == "&":
            return left & right
        if expr.op == "|":
            return left | right
        if expr.op == "^":
            return left ^ right
        if expr.op == "+":
            return (left + right) & mask
        if expr.op == "-":
            return (left - right) & mask
        if expr.op == "==":
            return 1 if left == right else 0
        if expr.op == "!=":
            return 1 if left != right else 0
        return 1 if left < right else 0
    if isinstance(expr, ir.Mux):
        select = const_fold(expr.select)
        if select is None:
            true_value = const_fold(expr.if_true)
            false_value = const_fold(expr.if_false)
            if true_value is not None and true_value == false_value:
                return true_value  # both arms agree: select is moot
            return None
        return const_fold(expr.if_true if select else expr.if_false)
    if isinstance(expr, ir.BitSelect):
        operand = const_fold(expr.operand)
        if operand is None:
            return None
        return (operand >> expr.index) & 1
    if isinstance(expr, ir.Concat):
        value = 0
        for part in expr.parts:
            part_value = const_fold(part)
            if part_value is None:
                return None
            value = (value << part.width) | part_value
        return value
    return None


def _live_transitions(fsm: ir.Fsm) -> list[ir.FsmTransition]:
    """Transitions whose guard is not statically false."""
    return [
        t for t in fsm.transitions
        if t.condition is None or const_fold(t.condition) != 0
    ]


def reachable_states(
    fsm: ir.Fsm,
    transitions: typing.Iterable[ir.FsmTransition] | None = None,
) -> set[str]:
    """States reachable from reset over *transitions* (default: the
    statically-live ones; ``IR001`` walks every transition)."""
    if transitions is None:
        transitions = _live_transitions(fsm)
    successors: dict[str, set[str]] = {s: set() for s in fsm.states}
    for transition in transitions:
        successors[transition.source].add(transition.target)
    reachable = {fsm.reset_state}
    frontier = [fsm.reset_state]
    while frontier:
        state = frontier.pop()
        for nxt in successors[state]:
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return reachable


def find_terminal_states(fsm: ir.Fsm) -> typing.Iterator[FsmFinding]:
    """Reachable states with no live way out (protocol deadlock)."""
    reachable = reachable_states(fsm)
    live = _live_transitions(fsm)
    for state in fsm.states:
        if state not in reachable:
            continue  # IR001's concern
        arcs = [t for t in live if t.source == state]
        if arcs:
            continue
        dead = [t for t in fsm.transitions if t.source == state]
        detail = (
            f" ({len(dead)} transition(s) with statically-false guards)"
            if dead else ""
        )
        yield FsmFinding(
            "terminal", fsm, state,
            f"reachable state {state!r} has no outgoing transition"
            f"{detail}; the FSM deadlocks there",
        )


def find_false_guards(fsm: ir.Fsm) -> typing.Iterator[FsmFinding]:
    """Transitions whose condition constant-folds to 0."""
    for transition in fsm.transitions:
        if transition.condition is None:
            continue
        if const_fold(transition.condition) == 0:
            yield FsmFinding(
                "false-guard", fsm,
                f"{transition.source}->{transition.target}",
                f"transition {transition.source!r} -> "
                f"{transition.target!r} guard is statically false; the "
                "arc can never be taken",
            )


def find_livelock_cycles(fsm: ir.Fsm) -> typing.Iterator[FsmFinding]:
    """Reachable cycles the FSM can never leave or do work in.

    A component is flagged when every internal arc is unconditional
    (the machine *must* keep cycling) and no live arc exits the
    component — the FSM spins forever without granting anything.
    """
    reachable = reachable_states(fsm)
    live = _live_transitions(fsm)
    successors: dict[str, set[str]] = {s: set() for s in fsm.states}
    for transition in live:
        successors[transition.source].add(transition.target)
    ordered = {state: sorted(targets) for state, targets in successors.items()}
    for component in find_cycles(ordered):
        members = set(component)
        internal = [
            t for t in live
            if t.source in members and t.target in members
        ]
        if len(members) == 1 and len(fsm.states) == 1:
            continue  # a one-state FSM necessarily self-loops
        if not members & reachable:
            continue  # IR001 reports unreachable states
        if any(t.source in members and t.target not in members
               for t in live):
            continue  # there is a way out
        if any(t.condition is not None for t in internal):
            continue  # a conditional arc means the FSM can hold/choose
        cycle = " -> ".join(sorted(members))
        yield FsmFinding(
            "livelock", fsm, sorted(members)[0],
            f"states {{{cycle}}} form an unconditional cycle with no "
            "exit and no outputs; the FSM spins without doing work",
        )


def analyze_fsms(module: ir.RtlModule) -> list[FsmFinding]:
    """All FSM findings of *module*, in rule order."""
    findings: list[FsmFinding] = []
    for fsm in module.fsms:
        findings.extend(find_terminal_states(fsm))
        findings.extend(find_false_guards(fsm))
        findings.extend(find_livelock_cycles(fsm))
    return findings
