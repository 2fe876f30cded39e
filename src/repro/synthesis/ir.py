"""RTL intermediate representation.

The communication synthesizer lowers every global-object channel to a
register-transfer structure: an arbiter, a server FSM and per-client
handshake logic. This module is the structural vocabulary for that
output — nets, registers, expressions, combinational assigns, clocked
assigns and FSMs — from which the Verilog/VHDL writers emit text and the
report generator counts resources.

The IR describes *control*: the method-argument/return data paths remain
behavioural (carried as opaque buses), which is precisely the "mixed
RT-behavioural level" the ODETTE tool produces.
"""

from __future__ import annotations

import math
import typing

from ..errors import SynthesisError


def clog2(value: int) -> int:
    """Bits needed to count *value* distinct states (min 1)."""
    if value < 1:
        raise SynthesisError(f"clog2 of non-positive value {value}")
    return max(1, math.ceil(math.log2(value)))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class of all IR expressions."""

    width: int

    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> typing.Iterator["Expr"]:
        """This node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def referenced_nets(self) -> typing.Iterator["Net"]:
        """Every net read anywhere inside this expression (with repeats)."""
        for node in self.walk():
            if isinstance(node, Ref):
                yield node.net

    def count_nodes(self) -> int:
        return 1 + sum(child.count_nodes() for child in self.children())

    def count_muxes(self) -> int:
        own = 1 if isinstance(self, Mux) else 0
        return own + sum(child.count_muxes() for child in self.children())


class Const(Expr):
    """A literal constant of fixed width."""

    def __init__(self, value: int, width: int) -> None:
        if width < 1:
            raise SynthesisError(f"constant width must be >= 1, got {width}")
        if not 0 <= value < (1 << width):
            raise SynthesisError(f"constant {value} does not fit in {width} bits")
        self.value = value
        self.width = width

    def __repr__(self) -> str:
        return f"Const({self.value}, w{self.width})"


class Ref(Expr):
    """A reference to a net, register or port."""

    def __init__(self, net: "Net") -> None:
        self.net = net
        self.width = net.width

    def __repr__(self) -> str:
        return f"Ref({self.net.name})"


class UnOp(Expr):
    """Unary operator: ``~`` (bitwise not), ``|`` (reduce-or), ``&`` (reduce-and)."""

    OPS = ("~", "|", "&")

    def __init__(self, op: str, operand: Expr) -> None:
        if op not in self.OPS:
            raise SynthesisError(f"unknown unary op {op!r}")
        self.op = op
        self.operand = operand
        self.width = operand.width if op == "~" else 1

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"UnOp({self.op}, {self.operand!r})"


class BinOp(Expr):
    """Binary operator over equal-width operands (``==`` yields 1 bit)."""

    OPS = ("&", "|", "^", "+", "-", "==", "!=", "<")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self.OPS:
            raise SynthesisError(f"unknown binary op {op!r}")
        if left.width != right.width:
            raise SynthesisError(
                f"binary op {op!r} width mismatch: {left.width} vs {right.width}"
            )
        self.op = op
        self.left = left
        self.right = right
        self.width = 1 if op in ("==", "!=", "<") else left.width

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"BinOp({self.left!r} {self.op} {self.right!r})"


class Mux(Expr):
    """2:1 multiplexer: ``sel ? if_true : if_false``."""

    def __init__(self, select: Expr, if_true: Expr, if_false: Expr) -> None:
        if select.width != 1:
            raise SynthesisError("mux select must be 1 bit")
        if if_true.width != if_false.width:
            raise SynthesisError(
                f"mux arm width mismatch: {if_true.width} vs {if_false.width}"
            )
        self.select = select
        self.if_true = if_true
        self.if_false = if_false
        self.width = if_true.width

    def children(self) -> tuple[Expr, ...]:
        return (self.select, self.if_true, self.if_false)

    def __repr__(self) -> str:
        return f"Mux({self.select!r}, {self.if_true!r}, {self.if_false!r})"


class BitSelect(Expr):
    """Select one bit of an expression."""

    def __init__(self, operand: Expr, index: int) -> None:
        if not 0 <= index < operand.width:
            raise SynthesisError(
                f"bit index {index} out of range for width {operand.width}"
            )
        self.operand = operand
        self.index = index
        self.width = 1

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"BitSelect({self.operand!r}[{self.index}])"


class Concat(Expr):
    """Bit concatenation; first operand is most significant."""

    def __init__(self, *parts: Expr) -> None:
        if not parts:
            raise SynthesisError("concat needs at least one part")
        self.parts = parts
        self.width = sum(part.width for part in parts)

    def children(self) -> tuple[Expr, ...]:
        return tuple(self.parts)

    def __repr__(self) -> str:
        return f"Concat({', '.join(repr(p) for p in self.parts)})"


def mux_chain(
    default: Expr, cases: typing.Sequence[tuple[Expr, Expr]]
) -> Expr:
    """Priority mux chain: first matching condition wins."""
    result = default
    for condition, value in reversed(list(cases)):
        result = Mux(condition, value, result)
    return result


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

class Net:
    """A named wire (or port) of fixed width."""

    def __init__(self, name: str, width: int = 1, comment: str = "") -> None:
        if width < 1:
            raise SynthesisError(f"net {name!r}: width must be >= 1")
        self.name = name
        self.width = width
        self.comment = comment

    def ref(self) -> Ref:
        return Ref(self)

    def __repr__(self) -> str:
        return f"Net({self.name}, w{self.width})"


class Register(Net):
    """A clocked storage element with a reset value.

    ``reset_value=None`` declares a register with *no* reset assign: it
    powers up unknown (X) and stays unknown until first clocked. The
    synthesizer never produces these, but netlist transformations and
    imported IP may; the ``NET004`` analysis rule tracks the resulting
    X-propagation to primary outputs.
    """

    def __init__(
        self, name: str, width: int = 1, reset_value: "int | None" = 0,
        comment: str = "",
    ) -> None:
        super().__init__(name, width, comment)
        if reset_value is not None and not 0 <= reset_value < (1 << width):
            raise SynthesisError(
                f"register {name!r}: reset value {reset_value} does not fit "
                f"in {width} bits"
            )
        self.reset_value = reset_value

    @property
    def has_reset(self) -> bool:
        return self.reset_value is not None

    def __repr__(self) -> str:
        reset = "X" if self.reset_value is None else self.reset_value
        return f"Register({self.name}, w{self.width}, rst={reset})"


class Port(Net):
    """A module boundary net."""

    def __init__(
        self, name: str, direction: str, width: int = 1, comment: str = ""
    ) -> None:
        if direction not in ("in", "out"):
            raise SynthesisError(f"port {name!r}: bad direction {direction!r}")
        super().__init__(name, width, comment)
        self.direction = direction

    def __repr__(self) -> str:
        return f"Port({self.name}, {self.direction}, w{self.width})"


class Assign:
    """Continuous (combinational) assignment ``target = expr``."""

    def __init__(self, target: Net, expr: Expr, comment: str = "") -> None:
        if target.width != expr.width:
            raise SynthesisError(
                f"assign to {target.name!r}: width {target.width} != "
                f"expr width {expr.width}"
            )
        self.target = target
        self.expr = expr
        self.comment = comment


class ClockedAssign:
    """Registered assignment: ``target <= expr`` at the clock edge.

    *enable* (optional, 1 bit) gates the update.
    """

    def __init__(
        self,
        target: Register,
        expr: Expr,
        enable: Expr | None = None,
        comment: str = "",
    ) -> None:
        if not isinstance(target, Register):
            raise SynthesisError(
                f"clocked assign target {target.name!r} must be a Register"
            )
        if target.width != expr.width:
            raise SynthesisError(
                f"clocked assign to {target.name!r}: width {target.width} != "
                f"expr width {expr.width}"
            )
        if enable is not None and enable.width != 1:
            raise SynthesisError("clocked-assign enable must be 1 bit")
        self.target = target
        self.expr = expr
        self.enable = enable
        self.comment = comment


class FsmTransition:
    """One arc: in *source*, when *condition*, go to *target*."""

    def __init__(self, source: str, condition: Expr | None, target: str) -> None:
        if condition is not None and condition.width != 1:
            raise SynthesisError("FSM transition condition must be 1 bit")
        self.source = source
        self.condition = condition
        self.target = target


class Fsm:
    """A state machine: named states and guarded transitions."""

    def __init__(self, name: str, states: typing.Sequence[str], reset_state: str) -> None:
        if not states:
            raise SynthesisError(f"FSM {name!r} needs at least one state")
        if len(set(states)) != len(states):
            raise SynthesisError(f"FSM {name!r} has duplicate states")
        if reset_state not in states:
            raise SynthesisError(
                f"FSM {name!r}: reset state {reset_state!r} not in state list"
            )
        self.name = name
        self.states = list(states)
        self.reset_state = reset_state
        self.transitions: list[FsmTransition] = []
        self.state_register = Register(
            f"{name}_state", clog2(len(states)), self.states.index(reset_state)
        )

    def encode(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise SynthesisError(f"FSM {self.name!r}: unknown state {state!r}") from None

    def add_transition(self, source: str, condition: Expr | None, target: str) -> None:
        self.encode(source)
        self.encode(target)
        self.transitions.append(FsmTransition(source, condition, target))

    @property
    def state_bits(self) -> int:
        return self.state_register.width


class ExprSite:
    """One expression occurrence inside a module.

    :param kind: ``"assign"`` | ``"clocked"`` | ``"enable"`` |
        ``"transition"``.
    :param label: human-readable site description for diagnostics.
    :param target: the net the site drives (the FSM state register for
        transition conditions).
    :param expr: the expression read at the site.
    """

    __slots__ = ("kind", "label", "target", "expr")

    def __init__(self, kind: str, label: str, target: Net, expr: Expr) -> None:
        self.kind = kind
        self.label = label
        self.target = target
        self.expr = expr

    def __repr__(self) -> str:
        return f"ExprSite({self.kind}: {self.label})"


class RtlModule:
    """One synthesized structural module."""

    def __init__(self, name: str, comment: str = "") -> None:
        self.name = name
        self.comment = comment
        self.ports: list[Port] = []
        self.nets: list[Net] = []
        self.registers: list[Register] = []
        self.assigns: list[Assign] = []
        self.clocked_assigns: list[ClockedAssign] = []
        self.fsms: list[Fsm] = []
        self._names: set[str] = set()

    def _claim(self, name: str) -> None:
        if name in self._names:
            raise SynthesisError(f"module {self.name!r}: duplicate name {name!r}")
        self._names.add(name)

    def add_port(self, name: str, direction: str, width: int = 1, comment: str = "") -> Port:
        self._claim(name)
        port = Port(name, direction, width, comment)
        self.ports.append(port)
        return port

    def add_net(self, name: str, width: int = 1, comment: str = "") -> Net:
        self._claim(name)
        net = Net(name, width, comment)
        self.nets.append(net)
        return net

    def add_register(
        self, name: str, width: int = 1, reset_value: "int | None" = 0,
        comment: str = "",
    ) -> Register:
        self._claim(name)
        register = Register(name, width, reset_value, comment)
        self.registers.append(register)
        return register

    def add_assign(self, target: Net, expr: Expr, comment: str = "") -> Assign:
        assign = Assign(target, expr, comment)
        self.assigns.append(assign)
        return assign

    def add_clocked_assign(
        self,
        target: Register,
        expr: Expr,
        enable: Expr | None = None,
        comment: str = "",
    ) -> ClockedAssign:
        clocked = ClockedAssign(target, expr, enable, comment)
        self.clocked_assigns.append(clocked)
        return clocked

    def add_fsm(self, fsm: Fsm) -> Fsm:
        self._claim(fsm.state_register.name)
        self.fsms.append(fsm)
        self.registers.append(fsm.state_register)
        return fsm

    def port(self, name: str) -> Port:
        """The port called *name* (raises if absent)."""
        for port in self.ports:
            if port.name == name:
                return port
        raise SynthesisError(f"module {self.name!r} has no port {name!r}")

    # -- traversal -------------------------------------------------------------

    def all_nets(self) -> list[Net]:
        """Every named net of the module: wires, registers and ports."""
        return [*self.nets, *self.registers, *self.ports]

    def iter_expr_sites(self) -> "typing.Iterator[ExprSite]":
        """Every expression site, tagged with what reads it.

        Sites cover continuous assigns, clocked assigns (expression and
        enable separately) and FSM transition conditions — everything an
        analysis pass must visit to see all net reads in the module.
        """
        for assign in self.assigns:
            yield ExprSite("assign", f"assign {assign.target.name}",
                           assign.target, assign.expr)
        for clocked in self.clocked_assigns:
            yield ExprSite("clocked", f"clocked assign {clocked.target.name}",
                           clocked.target, clocked.expr)
            if clocked.enable is not None:
                yield ExprSite("enable", f"enable of {clocked.target.name}",
                               clocked.target, clocked.enable)
        for fsm in self.fsms:
            for transition in fsm.transitions:
                if transition.condition is not None:
                    yield ExprSite(
                        "transition",
                        f"{fsm.name} transition "
                        f"{transition.source}->{transition.target}",
                        fsm.state_register,
                        transition.condition,
                    )

    # -- resource accounting ---------------------------------------------------

    def flip_flop_bits(self) -> int:
        return sum(register.width for register in self.registers)

    def mux_count(self) -> int:
        total = sum(a.expr.count_muxes() for a in self.assigns)
        total += sum(c.expr.count_muxes() for c in self.clocked_assigns)
        return total

    def expression_nodes(self) -> int:
        total = sum(a.expr.count_nodes() for a in self.assigns)
        total += sum(c.expr.count_nodes() for c in self.clocked_assigns)
        return total
