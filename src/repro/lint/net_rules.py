"""Netlist dataflow rules over the synthesis IR (NET0xx).

These read the netlist's :class:`~repro.analyze.passes.ModuleAnalysis`
(driver/reader graph, levelization, X-propagation) and cover the
hazards the constructor-level IR0xx rules cannot see: conflicting
driver *kinds* on one net (NET001), dead driven-but-unread wires
(NET002), combinational loops (NET003) and X-propagation from unreset
registers to primary outputs (NET004). Like every IR rule they run
automatically right before HDL emission and inside
``python -m repro analyze``.
"""

from __future__ import annotations

import typing

from ..analyze.passes import ModuleAnalysis
from ..synthesis import ir
from .diagnostics import Diagnostic, Severity
from .engine import IR, LintRule, register


@register
class DriverConflictRule(LintRule):
    """Conflicting driver kinds (or widths) contending for one net."""

    rule_id = "NET001"
    name = "driver-conflict"
    target = IR
    default_severity = Severity.ERROR
    description = (
        "a net must be driven by one kind of logic: combinational "
        "drivers, one clocked process, or one FSM — never a mix"
    )

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        module = analysis.module
        graph = analysis.graph
        for net in graph.nets():
            drivers = graph.drivers_of(net)
            if len(drivers) < 2 and not any(
                d.kind == "assign" and isinstance(net, ir.Register)
                for d in drivers
            ):
                continue
            comb = [d for d in drivers if d.is_combinational]
            seq = [d for d in drivers if not d.is_combinational]
            if comb and seq:
                yield self.emit(
                    f"{module.name}.{net.name}",
                    "net is driven both combinationally "
                    f"({', '.join(d.label for d in comb)}) and by clocked "
                    f"logic ({', '.join(d.label for d in seq)})",
                    "pick one driver kind; mux the sources into it",
                )
                continue
            if comb and isinstance(net, ir.Register):
                yield self.emit(
                    f"{module.name}.{net.name}",
                    "register is driven by combinational logic "
                    f"({', '.join(d.label for d in comb)})",
                    "drive registers from clocked assigns only",
                )
            if len(seq) > 1:
                yield self.emit(
                    f"{module.name}.{net.name}",
                    f"register has {len(seq)} clocked drivers "
                    f"({', '.join(d.label for d in seq)}); last writer "
                    "wins in simulation, synthesis gives a short",
                    "merge the clocked assigns into one (mux on the "
                    "enables)",
                )
            widths = {
                d.expr_width for d in drivers if d.expr_width is not None
            }
            if len(widths) > 1:
                yield self.emit(
                    f"{module.name}.{net.name}",
                    f"{len(drivers)} drivers disagree on width: "
                    f"{sorted(widths)} bits onto a {net.width}-bit net",
                    "make every driver produce the net's width",
                )


@register
class UnreadNetRule(LintRule):
    """A wire is driven but nothing ever reads it (dead logic)."""

    rule_id = "NET002"
    name = "unread-net"
    target = IR
    default_severity = Severity.WARNING
    description = (
        "a driven wire with no reader is dead logic; registers are "
        "storage (IR003/IR005 territory) and ports face outward"
    )

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        module = analysis.module
        graph = analysis.graph
        for net in module.nets:
            if isinstance(net, (ir.Register, ir.Port)):
                continue
            if not graph.drivers_of(net):
                continue  # IR004's concern
            if graph.readers_of(net):
                continue
            yield self.emit(
                f"{module.name}.{net.name}",
                "net is driven but never read by any expression",
                "delete the net and its driver, or wire it to a reader",
            )


@register
class CombLoopRule(LintRule):
    """The combinational netlist has a cycle: no evaluation order exists."""

    rule_id = "NET003"
    name = "comb-loop"
    target = IR
    default_severity = Severity.ERROR
    description = (
        "a combinational cycle oscillates or latches; the netlist "
        "cannot be levelized into an evaluation schedule"
    )

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        for loop in analysis.levelization.loops:
            yield self.emit(
                f"{analysis.module.name}.{loop.nets[0].name}",
                f"combinational loop: {loop.describe()}",
                "break the cycle with a register, or restructure the "
                "priority logic",
            )


@register
class XPropagationRule(LintRule):
    """An unreset register's X reaches a primary output."""

    rule_id = "NET004"
    name = "x-propagation"
    target = IR
    default_severity = Severity.WARNING
    description = (
        "registers without a reset assign power up unknown; outputs "
        "computed from them expose X to the neighbours right after "
        "reset"
    )

    def check(self, analysis: ModuleAnalysis) -> typing.Iterator[Diagnostic]:
        for finding in analysis.xprop_findings:
            yield self.emit(
                f"{analysis.module.name}.{finding.port.name}",
                f"output is X after reset: register "
                f"{finding.source.name!r} has no reset assign and "
                f"reaches the port via {finding.describe_path()}",
                f"give {finding.source.name!r} a reset value, or gate "
                "the output until it is first written",
                extra={"source": finding.source.name,
                       "path": finding.describe_path()},
            )
