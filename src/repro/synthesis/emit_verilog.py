"""Verilog netlist emission.

Prints an :class:`~repro.synthesis.ir.RtlModule` as synthesizable
Verilog-2001 — the artifact handed to the downstream RTL-to-gate tool in
the paper's flow (CoCentric in the original, any commercial synthesizer
here).
"""

from __future__ import annotations

from ..errors import SynthesisError
from .ir import (
    BinOp,
    BitSelect,
    Concat,
    Const,
    Expr,
    Mux,
    Ref,
    RtlModule,
    UnOp,
)

_BINOP_VERILOG = {
    "&": "&", "|": "|", "^": "^", "+": "+", "-": "-",
    "==": "==", "!=": "!=", "<": "<",
}


def _expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return f"{expr.width}'d{expr.value}"
    if isinstance(expr, Ref):
        return expr.net.name
    if isinstance(expr, UnOp):
        if expr.op == "~":
            return f"(~{_expr(expr.operand)})"
        return f"({expr.op}{_expr(expr.operand)})"  # reduction | or &
    if isinstance(expr, BinOp):
        op = _BINOP_VERILOG[expr.op]
        return f"({_expr(expr.left)} {op} {_expr(expr.right)})"
    if isinstance(expr, Mux):
        return (
            f"({_expr(expr.select)} ? {_expr(expr.if_true)} : "
            f"{_expr(expr.if_false)})"
        )
    if isinstance(expr, BitSelect):
        operand = expr.operand
        if isinstance(operand, Ref):
            return f"{operand.net.name}[{expr.index}]"
        return f"(({_expr(operand)} >> {expr.index}) & 1'b1)"
    if isinstance(expr, Concat):
        return "{" + ", ".join(_expr(part) for part in expr.parts) + "}"
    raise SynthesisError(f"cannot emit expression {expr!r}")


def _range(width: int) -> str:
    return "" if width == 1 else f"[{width - 1}:0] "


def emit_verilog(module: RtlModule) -> str:
    """Render *module* as a Verilog source string."""
    lines: list[str] = []
    if module.comment:
        lines.append(f"// {module.comment}")
    lines.append(f"module {module.name} (")
    for index, port in enumerate(module.ports):
        direction = "input " if port.direction == "in" else "output"
        separator = "," if index < len(module.ports) - 1 else ""
        comment = f"  // {port.comment}" if port.comment else ""
        lines.append(
            f"    {direction} wire {_range(port.width)}{port.name}{separator}{comment}"
        )
    lines.append(");")
    lines.append("")

    fsm_regs = {fsm.state_register.name for fsm in module.fsms}
    for net in module.nets:
        comment = f"  // {net.comment}" if net.comment else ""
        lines.append(f"    wire {_range(net.width)}{net.name};{comment}")
    for register in module.registers:
        comment = f"  // {register.comment}" if register.comment else ""
        lines.append(f"    reg  {_range(register.width)}{register.name};{comment}")
    lines.append("")

    for fsm in module.fsms:
        for index, state in enumerate(fsm.states):
            lines.append(
                f"    localparam {fsm.name.upper()}_{state} = "
                f"{fsm.state_register.width}'d{index};"
            )
    lines.append("")

    for assign in module.assigns:
        comment = f"  // {assign.comment}" if assign.comment else ""
        lines.append(f"    assign {assign.target.name} = {_expr(assign.expr)};{comment}")
    lines.append("")

    clocked = [c for c in module.clocked_assigns]
    if clocked or module.fsms:
        lines.append("    always @(posedge clk or negedge rst_n) begin")
        lines.append("        if (!rst_n) begin")
        for register in module.registers:
            if register.reset_value is None:
                lines.append(
                    f"            // {register.name}: no reset (powers up X)"
                )
                continue
            lines.append(
                f"            {register.name} <= {register.width}'d"
                f"{register.reset_value};"
            )
        lines.append("        end else begin")
        for item in clocked:
            comment = f"  // {item.comment}" if item.comment else ""
            if item.enable is not None:
                lines.append(f"            if ({_expr(item.enable)})")
                lines.append(
                    f"                {item.target.name} <= {_expr(item.expr)};{comment}"
                )
            else:
                lines.append(
                    f"            {item.target.name} <= {_expr(item.expr)};{comment}"
                )
        for fsm in module.fsms:
            lines.append(f"            case ({fsm.state_register.name})")
            for state in fsm.states:
                arcs = [t for t in fsm.transitions if t.source == state]
                lines.append(f"                {fsm.name.upper()}_{state}: begin")
                first = True
                for arc in arcs:
                    target = f"{fsm.name.upper()}_{arc.target}"
                    if arc.condition is None:
                        lines.append(
                            f"                    {fsm.state_register.name} <= {target};"
                        )
                    else:
                        keyword = "if" if first else "else if"
                        lines.append(
                            f"                    {keyword} ({_expr(arc.condition)})"
                        )
                        lines.append(
                            f"                        {fsm.state_register.name} <= {target};"
                        )
                        first = False
                lines.append("                end")
            lines.append("                default: "
                         f"{fsm.state_register.name} <= "
                         f"{fsm.name.upper()}_{fsm.reset_state};")
            lines.append("            endcase")
        lines.append("        end")
        lines.append("    end")
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines)
