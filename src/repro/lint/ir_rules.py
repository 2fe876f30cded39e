"""Sanity rules over the synthesis IR (IR0xx).

The :class:`~repro.synthesis.ir.RtlModule` constructors already validate
widths at build time, so these rules mostly guard against *post-
construction* surgery (netlist transformations, hand-patched IR) and
against structural gaps no constructor can see: states the FSM can never
reach, storage nothing clocks, wires nothing drives. They run on every
module right before HDL emission, over the netlist's
:class:`~repro.analyze.passes.ModuleAnalysis`, whose
:class:`~repro.analyze.graph.NetGraph` supplies drivers and readers.
"""

from __future__ import annotations

import typing

from ..analyze.fsm import reachable_states
from ..analyze.passes import ModuleAnalysis
from ..synthesis import ir
from .diagnostics import Diagnostic, Severity
from .engine import IR, LintRule, register


@register
class UnreachableFsmStateRule(LintRule):
    """FSM states no transition path from reset can ever enter."""

    rule_id = "IR001"
    name = "unreachable-fsm-state"
    target = IR
    default_severity = Severity.WARNING
    description = (
        "dead states cost state-register bits and hide intent errors"
    )

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        module = analysis.module
        for fsm in module.fsms:
            reachable = reachable_states(fsm, fsm.transitions)
            for state in fsm.states:
                if state not in reachable:
                    yield self.emit(
                        f"{module.name}.{fsm.name}.{state}",
                        "state is unreachable from the reset state "
                        f"{fsm.reset_state!r}",
                        "add a transition into the state or delete it",
                    )


@register
class WidthMismatchRule(LintRule):
    """Expression trees whose cached widths no longer add up."""

    rule_id = "IR002"
    name = "width-mismatch"
    target = IR
    default_severity = Severity.ERROR
    description = (
        "recomputes every expression width bottom-up; catches IR mutated "
        "after construction"
    )

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        module = analysis.module
        for site in module.iter_expr_sites():
            for problem in self._validate(site.expr):
                yield self.emit(
                    f"{module.name}: {site.label}",
                    problem,
                    "rebuild the expression instead of mutating it in place",
                )
        for assign in module.assigns:
            if assign.target.width != assign.expr.width:
                yield self.emit(
                    f"{module.name}.{assign.target.name}",
                    f"assign width mismatch: target is {assign.target.width} "
                    f"bits, expression is {assign.expr.width}",
                    "match the driver expression to the net width",
                )
        for clocked in module.clocked_assigns:
            if clocked.target.width != clocked.expr.width:
                yield self.emit(
                    f"{module.name}.{clocked.target.name}",
                    "clocked assign width mismatch: target is "
                    f"{clocked.target.width} bits, expression is "
                    f"{clocked.expr.width}",
                    "match the driver expression to the register width",
                )
            if clocked.enable is not None and clocked.enable.width != 1:
                yield self.emit(
                    f"{module.name}.{clocked.target.name}",
                    f"clocked-assign enable is {clocked.enable.width} bits "
                    "(must be 1)",
                    "reduce the enable to a single bit",
                )

    def _validate(self, expr: ir.Expr) -> list[str]:
        problems: list[str] = []

        def expect(node: ir.Expr, expected: int, label: str) -> None:
            if node.width != expected:
                problems.append(
                    f"{label} caches width {node.width}, expected {expected}"
                )

        def visit(node: ir.Expr) -> None:
            for child in node.children():
                visit(child)
            if isinstance(node, ir.Const):
                if not 0 <= node.value < (1 << node.width):
                    problems.append(
                        f"constant {node.value} does not fit in "
                        f"{node.width} bits"
                    )
            elif isinstance(node, ir.Ref):
                expect(node, node.net.width, f"ref to {node.net.name!r}")
            elif isinstance(node, ir.UnOp):
                expected = node.operand.width if node.op == "~" else 1
                expect(node, expected, f"unary {node.op!r}")
            elif isinstance(node, ir.BinOp):
                if node.left.width != node.right.width:
                    problems.append(
                        f"binary {node.op!r} operand widths differ: "
                        f"{node.left.width} vs {node.right.width}"
                    )
                expected = (
                    1 if node.op in ("==", "!=", "<") else node.left.width
                )
                expect(node, expected, f"binary {node.op!r}")
            elif isinstance(node, ir.Mux):
                if node.select.width != 1:
                    problems.append(
                        f"mux select is {node.select.width} bits (must be 1)"
                    )
                if node.if_true.width != node.if_false.width:
                    problems.append(
                        f"mux arm widths differ: {node.if_true.width} vs "
                        f"{node.if_false.width}"
                    )
                expect(node, node.if_true.width, "mux")
            elif isinstance(node, ir.BitSelect):
                if not 0 <= node.index < node.operand.width:
                    problems.append(
                        f"bit index {node.index} out of range for width "
                        f"{node.operand.width}"
                    )
                expect(node, 1, "bit select")
            elif isinstance(node, ir.Concat):
                expect(
                    node,
                    sum(part.width for part in node.parts),
                    "concat",
                )

        visit(expr)
        return problems


@register
class UndrivenRegisterRule(LintRule):
    """A register no clocked process ever updates."""

    rule_id = "IR003"
    name = "undriven-register"
    target = IR
    default_severity = Severity.WARNING
    description = (
        "a register with no clocked assign (and no FSM owning it) holds "
        "its reset value forever"
    )

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        module = analysis.module
        graph = analysis.graph
        for register in module.registers:
            if any(driver.kind in ("clocked", "fsm-state")
                   for driver in graph.drivers_of(register)):
                continue
            held = (
                "X" if register.reset_value is None else register.reset_value
            )
            yield self.emit(
                f"{module.name}.{register.name}",
                "register is never clocked; it will hold its reset value "
                f"({held}) forever",
                "add a clocked assign, or demote it to a constant net",
            )


@register
class UndrivenNetRule(LintRule):
    """A wire is read somewhere but nothing drives it."""

    rule_id = "IR004"
    name = "undriven-net"
    target = IR
    default_severity = Severity.ERROR
    description = (
        "reading an undriven net emits an X/dangling wire in the HDL"
    )

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        module = analysis.module
        graph = analysis.graph
        for net in graph.read_nets():
            if isinstance(net, ir.Register):
                continue  # clocked storage: IR003's concern
            if isinstance(net, ir.Port) and net.direction == "in":
                continue  # driven from outside
            if not graph.is_comb_driven(net):
                kind = "output port" if isinstance(net, ir.Port) else "net"
                yield self.emit(
                    f"{module.name}.{net.name}",
                    f"{kind} is read but has no driver",
                    "add a continuous assign driving it",
                )


@register
class MultiplyDrivenNetRule(LintRule):
    """Two structural drivers contend for the same wire."""

    rule_id = "IR005"
    name = "multiply-driven-net"
    target = IR
    default_severity = Severity.ERROR
    description = "a net may have exactly one structural driver"

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        module = analysis.module
        graph = analysis.graph
        # Registers are NET001's concern; strays are not the module's.
        named = {id(net) for net in (*module.nets, *module.ports)}
        for net in graph.driven_nets():
            # Each assign counts once; an FSM counts once per driven net
            # however many states set it (its decoder is one mux tree).
            count = len(graph.comb_drivers_of(net))
            if not count or id(net) not in named:
                continue
            if isinstance(net, ir.Port) and net.direction == "in":
                yield self.emit(
                    f"{module.name}.{net.name}",
                    "input port is driven from inside the module",
                    "drop the internal driver or flip the port "
                    "direction",
                )
                continue
            if count > 1:
                yield self.emit(
                    f"{module.name}.{net.name}",
                    f"net has {count} structural drivers",
                    "merge the drivers into one assign (mux the sources)",
                )
