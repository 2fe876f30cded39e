"""Lowering synthesized netlists to straight-line Python.

This is the compiled counterpart of the interpreted execution path:
where :class:`~repro.analyze.schedule.EvalSchedule` walks the IR
expression trees node by node, :func:`compile_module` emits the same
levelized evaluation order as *generated Python source* — one flat
function per netlist, no recursion, no event queue, no delta churn.

The generated artifact has three entry points:

``_comb(env)``
    One settled delta cycle over the full combinational netlist, with
    exactly the semantics of :meth:`EvalSchedule.evaluate` (boundary
    values masked to net widths, wrap-to-width arithmetic). The
    equivalence tests diff the two paths over random
    vectors; they must be interchangeable.

``_cycle(regs, ins, outs)``
    One clock edge in three phases:

    * **phase A** evaluates the pre-edge combinational slice needed by
      the sequential logic (FSM transition conditions, clocked-assign
      data/enable expressions);
    * **phase B** computes every register's next value from the
      pre-edge picture, then commits them together — the two-phase
      semantics a clocked process gets from the kernel's staged signal
      writes, without the kernel;
    * **phase C** re-evaluates the output-port cone from the *new*
      register values, so outputs carry the same values the interpreted
      channel commits at the same edge.

``_step(*registers, *inputs)``
    The same edge as positional slots, with no dict on the path: the
    register values in :attr:`CompiledNetlist.register_names` order,
    then the pre-edge inputs in :attr:`CompiledNetlist.step_inputs`
    order (input ports in declaration order, then ``external`` nets in
    the order given). The caller passes values that fit their widths;
    the step masks nothing on entry. It runs phases A and B and returns
    a tuple of the next register values, in the same order. Output
    ports are a function of the registers and are not part of the step;
    a caller that needs them runs ``_cycle`` or ``_comb``.

Netlist cones the runtime substitutes behaviourally (for the channel:
the arbiter-internal state, whose executable policy object is shared
with the interpreted backend) are cut out by naming their result nets
``external`` — they become plain inputs — and their private registers
via ``skip_register_prefixes``.
"""

from __future__ import annotations

import keyword
import typing

from ..analyze.passes import ModuleAnalysis
from ..analyze.schedule import EvalSchedule, EvaluationError
from ..errors import ReproError
from ..synthesis import ir


class CodegenError(ReproError):
    """The netlist cannot be lowered to code."""


def _mask(width: int) -> int:
    return (1 << width) - 1


def _local_names(nets: typing.Sequence[ir.Net]) -> dict[int, str]:
    """One safe Python identifier per net.

    A net name is used verbatim when it is a valid public identifier;
    anything else (keywords, collisions, leading underscores — which
    would collide with the generated ``_n_*`` next-value locals) is
    renamed positionally.
    """
    names: dict[int, str] = {}
    used: set[str] = set()
    for index, net in enumerate(nets):
        name = net.name
        if (
            not name.isidentifier()
            or keyword.iskeyword(name)
            or name.startswith("_")
            or name in used
        ):
            name = f"_v{index}"
        used.add(name)
        names[id(net)] = name
    return names


class _Emitter:
    """IR expression -> Python source, wrap-to-width everywhere."""

    def __init__(self, names: dict[int, str]) -> None:
        self._names = names

    def local(self, net: ir.Net) -> str:
        try:
            return self._names[id(net)]
        except KeyError:
            raise CodegenError(
                f"net {net.name!r} is not bound to a local"
            ) from None

    def emit(self, expr: ir.Expr) -> str:
        if isinstance(expr, ir.Const):
            return str(expr.value)
        if isinstance(expr, ir.Ref):
            return self.local(expr.net)
        if isinstance(expr, ir.UnOp):
            operand = self.emit(expr.operand)
            if expr.op == "~":
                return f"(~{operand} & {_mask(expr.width)})"
            if expr.op == "|":
                return f"(1 if {operand} else 0)"
            return f"(1 if {operand} == {_mask(expr.operand.width)} else 0)"
        if isinstance(expr, ir.BinOp):
            left = self.emit(expr.left)
            right = self.emit(expr.right)
            if expr.op in ("&", "|", "^"):
                return f"({left} {expr.op} {right})"
            if expr.op in ("+", "-"):
                return f"(({left} {expr.op} {right}) & {_mask(expr.width)})"
            return f"(1 if {left} {expr.op} {right} else 0)"
        if isinstance(expr, ir.Mux):
            select = self.emit(expr.select)
            if_true = self.emit(expr.if_true)
            if_false = self.emit(expr.if_false)
            return f"({if_true} if {select} else {if_false})"
        if isinstance(expr, ir.BitSelect):
            return f"(({self.emit(expr.operand)} >> {expr.index}) & 1)"
        if isinstance(expr, ir.Concat):
            pieces = []
            shift = 0
            for part in reversed(expr.parts):  # first part most significant
                code = self.emit(part)
                pieces.append(f"({code} << {shift})" if shift else code)
                shift += part.width
            if len(pieces) == 1:
                return pieces[0]
            return "(" + " | ".join(reversed(pieces)) + ")"
        raise CodegenError(f"cannot lower expression {expr!r}")


class CompiledNetlist:
    """One netlist lowered to executable Python.

    :attr:`source` holds the generated module text (what
    ``python -m repro compile --dump`` prints); :attr:`cycle`,
    :attr:`step` and :attr:`comb` are the compiled functions themselves.
    """

    def __init__(
        self,
        module: ir.RtlModule,
        source: str,
        cycle_fn,
        step_fn,
        comb_fn,
        resets: dict[str, int],
        input_names: list[str],
        step_inputs: list[str],
        stats: dict,
    ) -> None:
        self.module = module
        self.source = source
        self.cycle = cycle_fn
        self.step = step_fn
        self._comb = comb_fn
        self._resets = resets
        self.input_names = input_names
        self.step_inputs = step_inputs
        self.stats = stats

    def reset_registers(self) -> dict[str, int]:
        """A fresh register file at its reset values."""
        return dict(self._resets)

    @property
    def register_names(self) -> list[str]:
        return list(self._resets)

    def comb(self, env: typing.Mapping[str, int]) -> dict[str, int]:
        """One settled delta over the full comb netlist.

        Drop-in for :meth:`EvalSchedule.evaluate` — same boundary
        masking, same outputs, same error on a missing boundary value.
        """
        try:
            return self._comb(env)
        except KeyError as missing:
            raise EvaluationError(
                f"no value for net {missing.args[0]!r} in the environment"
            ) from None

    def describe(self) -> str:
        stats = self.stats
        return (
            f"compiled {self.module.name}: "
            f"{stats['comb_steps']} comb steps "
            f"(edge slice {stats['phase_a_steps']}+{stats['phase_c_steps']}), "
            f"{len(self._resets)} registers, "
            f"{len(self.input_names)} inputs, "
            f"{stats['source_lines']} source lines"
        )


def _comb_closure(
    roots: typing.Iterable[ir.Net],
    step_by_id: dict,
    register_ids: set[int],
    in_port_ids: set[int],
    external_names: set[str],
    skipped_ids: set[int],
    module_name: str,
) -> tuple[set[int], dict[str, ir.Net], set[int]]:
    """Backward slice from *roots* over the comb steps.

    Returns (needed comb-net ids, inputs by name, register ids read).
    External nets and skipped-register cones fall out of the slice;
    reading a skipped register from *kept* logic is an error, because
    the runtime would have no value to supply for it.
    """
    needed: set[int] = set()
    inputs: dict[str, ir.Net] = {}
    regs_read: set[int] = set()
    stack = list(roots)
    seen: set[int] = set()
    while stack:
        net = stack.pop()
        net_id = id(net)
        if net_id in seen:
            continue
        seen.add(net_id)
        if net.name in external_names:
            inputs[net.name] = net
            continue
        if net_id in register_ids:
            if net_id in skipped_ids:
                raise CodegenError(
                    f"module {module_name!r}: kept logic reads skipped "
                    f"register {net.name!r}"
                )
            regs_read.add(net_id)
            continue
        if net_id in in_port_ids:
            inputs[net.name] = net
            continue
        step = step_by_id.get(net_id)
        if step is None:
            raise CodegenError(
                f"module {module_name!r}: net {net.name!r} has no driver "
                "and is not an input"
            )
        needed.add(net_id)
        stack.extend(step.expr.referenced_nets())
    return needed, inputs, regs_read


def compile_module(
    analysis: ModuleAnalysis,
    external: typing.Sequence[str] = (),
    skip_register_prefixes: typing.Sequence[str] = (),
) -> CompiledNetlist:
    """Lower the analyzed netlist to a :class:`CompiledNetlist`.

    :param analysis: the netlist's
        :class:`~repro.analyze.passes.ModuleAnalysis`; its levelization
        orders the generated code.
    :param external: net names whose values the runtime supplies as
        inputs instead of their netlist drivers (cutting their cones
        out of the generated code).
    :param skip_register_prefixes: registers (by name prefix) owned by
        an externally-substituted cone; their clocked assigns are
        dropped and they carry no state in the compiled register file.
    """
    module = analysis.module
    result = analysis.levelization
    if not result.ok:
        loops = "; ".join(loop.describe() for loop in result.loops)
        raise CodegenError(
            f"module {module.name!r} has combinational loops: {loops}"
        )
    schedule: EvalSchedule = result.schedule
    ordered = schedule.steps
    step_by_id = {id(step.target): step for step in ordered}

    register_ids = {id(register) for register in module.registers}
    in_port_ids = {
        id(port) for port in module.ports if port.direction == "in"
    }
    out_ports = [port for port in module.ports if port.direction == "out"]
    external_names = set(external)
    skipped_ids = {
        id(register)
        for register in module.registers
        if any(register.name.startswith(p) for p in skip_register_prefixes)
    }
    kept_registers = [
        register for register in module.registers
        if id(register) not in skipped_ids
    ]
    fsm_state_ids = {
        id(fsm.state_register)
        for fsm in module.fsms
        if id(fsm.state_register) not in skipped_ids
    }
    kept_fsms = [
        fsm for fsm in module.fsms
        if id(fsm.state_register) not in skipped_ids
    ]
    # FSM state registers advance through the FSM dispatch; a stray
    # plain clocked assign onto one would double-drive it.
    plain_clocked = [
        clocked for clocked in module.clocked_assigns
        if id(clocked.target) not in skipped_ids
        and id(clocked.target) not in fsm_state_ids
    ]

    nets_by_name = {net.name: net for net in module.all_nets()}
    for name in external_names:
        if name not in nets_by_name:
            raise CodegenError(
                f"module {module.name!r} has no net {name!r}"
            )

    emitter = _Emitter(_local_names(module.all_nets()))

    # -- slice the edge function -------------------------------------------
    phase_a_roots: list[ir.Net] = []
    for fsm in kept_fsms:
        for transition in fsm.transitions:
            if transition.condition is not None:
                phase_a_roots.extend(transition.condition.referenced_nets())
    for clocked in plain_clocked:
        phase_a_roots.extend(clocked.expr.referenced_nets())
        if clocked.enable is not None:
            phase_a_roots.extend(clocked.enable.referenced_nets())
    needed_a, inputs_a, __ = _comb_closure(
        phase_a_roots, step_by_id, register_ids, in_port_ids,
        external_names, skipped_ids, module.name,
    )
    needed_c, inputs_c, __ = _comb_closure(
        out_ports, step_by_id, register_ids, in_port_ids,
        external_names, skipped_ids, module.name,
    )
    inputs = dict(sorted({**inputs_a, **inputs_c}.items()))

    # Phase A (the pre-edge slice) and the phase B next-value lines are
    # shared by both edge entry points.
    phase_a: list[str] = [
        f"    {emitter.local(step.target)} = {emitter.emit(step.expr)}"
        for step in ordered
        if id(step.target) in needed_a
    ]
    phase_b: list[str] = []
    committed: list[ir.Register] = []
    for fsm in kept_fsms:
        state_local = emitter.local(fsm.state_register)
        phase_b.append(f"    # fsm {fsm.name}: flattened state dispatch")
        first = True
        for state in fsm.states:
            arcs = [t for t in fsm.transitions if t.source == state]
            if not arcs:
                continue
            code = state_local  # no arc taken: hold
            for transition in reversed(arcs):
                target = fsm.encode(transition.target)
                if transition.condition is None:
                    code = str(target)
                else:
                    condition = emitter.emit(transition.condition)
                    code = f"({target} if {condition} else {code})"
            keyword_ = "if" if first else "elif"
            first = False
            phase_b.append(f"    {keyword_} {state_local} == {fsm.encode(state)}:")
            phase_b.append(f"        _n_{state_local} = {code}")
        if first:
            phase_b.append(f"    _n_{state_local} = {state_local}")
        else:
            phase_b.append("    else:")
            phase_b.append(f"        _n_{state_local} = {state_local}")
        committed.append(fsm.state_register)
    for clocked in plain_clocked:
        local = emitter.local(clocked.target)
        code = emitter.emit(clocked.expr)
        if clocked.enable is not None:
            enable = emitter.emit(clocked.enable)
            code = f"({code}) if {enable} else {local}"
        phase_b.append(f"    _n_{local} = {code}")
        committed.append(clocked.target)

    # -- generate ----------------------------------------------------------
    lines: list[str] = []
    emit = lines.append
    emit(f"# generated by repro.compile from netlist {module.name!r}")
    emit("")
    emit("def _cycle(__regs, __ins, __outs):")
    emit("    # inputs (masked to port width on entry)")
    for name, net in inputs.items():
        emit(
            f"    {emitter.local(net)} = "
            f"__ins[{name!r}] & {_mask(net.width):#x}"
        )
    if kept_registers:
        emit("    # committed register values")
    for register in kept_registers:
        emit(f"    {emitter.local(register)} = __regs[{register.name!r}]")
    emit("    # phase A: pre-edge combinational slice")
    lines.extend(phase_a)
    emit("    # phase B: next-state values, then a single commit")
    lines.extend(phase_b)
    for register in committed:
        local = emitter.local(register)
        emit(f"    __regs[{register.name!r}] = {local} = _n_{local}")
    emit("    # phase C: output cone from the new register values")
    for step in ordered:
        if id(step.target) in needed_c:
            emit(
                f"    {emitter.local(step.target)} = "
                f"{emitter.emit(step.expr)}"
            )
    for port in out_ports:
        emit(f"    __outs[{port.name!r}] = {emitter.local(port)}")
    if not (inputs or kept_registers or needed_a or committed or out_ports):
        emit("    pass")
    emit("")
    emit("")

    # -- the positional next-state step ---------------------------------------
    # Registers, then the pre-edge inputs: ports in declaration order,
    # then external nets in the order they were named.
    port_rank = {id(port): rank for rank, port in enumerate(module.ports)}
    external_rank = {name: rank for rank, name in enumerate(external)}
    step_inputs = sorted(
        inputs_a.values(),
        key=lambda net: (
            (1, external_rank[net.name]) if net.name in external_rank
            else (0, port_rank[id(net)])
        ),
    )
    committed_ids = {id(register) for register in committed}
    results = [
        f"_n_{emitter.local(register)}" if id(register) in committed_ids
        else emitter.local(register)
        for register in kept_registers
    ]
    params = [emitter.local(register) for register in kept_registers] + [
        emitter.local(net) for net in step_inputs
    ]
    emit(f"def _step({', '.join(params)}):")
    lines.extend(phase_a)
    lines.extend(phase_b)
    emit(f"    return ({''.join(result + ', ' for result in results)})")
    emit("")
    emit("")

    # -- the full-netlist comb function (EvalSchedule.evaluate twin) -------
    emit("def _comb(__env):")
    emit("    __out = dict(__env)")
    emit("    # boundary nets, masked to net width on entry")
    boundary = sorted(schedule.boundary_nets(), key=lambda net: net.name)
    for net in boundary:
        emit(
            f"    {emitter.local(net)} = __out[{net.name!r}] = "
            f"__env[{net.name!r}] & {_mask(net.width):#x}"
        )
    emit("    # levelized combinational evaluation")
    for step in ordered:
        emit(
            f"    {emitter.local(step.target)} = "
            f"__out[{step.target.name!r}] = {emitter.emit(step.expr)}"
        )
    emit("    return __out")
    emit("")

    source = "\n".join(lines)
    namespace: dict[str, typing.Any] = {}
    exec(compile(source, f"<repro.compile:{module.name}>", "exec"), namespace)

    resets = {
        register.name: (
            register.reset_value if register.reset_value is not None else 0
        )
        for register in kept_registers
    }
    stats = {
        "comb_steps": len(ordered),
        "phase_a_steps": len(needed_a),
        "phase_c_steps": len(needed_c),
        "levels": schedule.depth,
        "source_lines": len(lines),
    }
    return CompiledNetlist(
        module,
        source,
        namespace["_cycle"],
        namespace["_step"],
        namespace["_comb"],
        resets,
        list(inputs),
        [net.name for net in step_inputs],
        stats,
    )
