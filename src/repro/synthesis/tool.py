"""The communication synthesis driver (the "ODETTE tool").

:func:`synthesize_communication` takes a built (not yet run) design,
discovers every global-object connection group, stops the behavioural
servers and replaces each group's communication with an RT-level
:class:`~repro.synthesis.rtl_channel.RtlMethodChannel`, generating the
matching structural netlists, HDL text and the synthesis report along
the way. Application code is untouched: its guarded-method calls are
served by the synthesized channel from then on.

Only the channel instance is built per group. The netlists, HDL,
report rows and compiled code depend on nothing but the group's
:class:`GroupShape`, so :func:`synthesize_group_shape` derives each
distinct shape once per process and every later group shares it.
"""

from __future__ import annotations

import functools
import typing

from ..errors import SynthesisError
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..kernel.simulator import Simulator
from ..osss.global_object import GlobalObject
from ..osss.polymorphism import PolymorphicVar
from .arbiter_synth import RtlStaticPriorityPolicy
from .channel_synth import build_channel_ir
from .emit_verilog import emit_verilog
from .emit_vhdl import emit_vhdl
from .ir import RtlModule
from .object_synth import estimate_state_bits, object_server_ir
from .poly_synth import DispatchInfo, synthesize_dispatch
from .report import ModuleReport, SynthesisReport
from .rtl_channel import RtlMethodChannel

if typing.TYPE_CHECKING:
    from ..compile.codegen import CompiledNetlist


#: Execution backends a synthesized design can run on.
BACKENDS = ("interpreted", "compiled")


class SynthesisConfig:
    """Knobs of the communication synthesizer.

    :param body_cycles: clocks charged per method-body execution.
    :param data_width: width of the opaque data buses in the netlists.
    :param emit_hdl: generate Verilog/VHDL text (skip to save time in
        large parameter sweeps).
    :param lint_ir: run the IR design rules over every generated netlist
        before HDL emission; error-severity findings abort synthesis.
    :param backend: execution backend for the synthesized channels —
        ``"interpreted"`` (the generator-based RTL channel) or
        ``"compiled"`` (the channel IR lowered to generated Python by
        :mod:`repro.compile`; cycle-equivalent, much faster).
    """

    def __init__(
        self,
        body_cycles: int = 1,
        data_width: int = 32,
        emit_hdl: bool = True,
        lint_ir: bool = True,
        backend: str = "interpreted",
    ) -> None:
        if body_cycles < 1:
            raise SynthesisError("body_cycles must be >= 1")
        if data_width < 1:
            raise SynthesisError("data_width must be >= 1")
        if backend not in BACKENDS:
            raise SynthesisError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.body_cycles = body_cycles
        self.data_width = data_width
        self.emit_hdl = emit_hdl
        self.lint_ir = lint_ir
        self.backend = backend


class SynthesizedGroup:
    """Everything produced for one connection group."""

    def __init__(
        self,
        name: str,
        handles: list[GlobalObject],
        channel: RtlMethodChannel,
        channel_ir,
        object_ir,
        verilog: str,
        vhdl: str,
        dispatch_irs: list | None = None,
    ) -> None:
        self.name = name
        self.handles = handles
        self.channel = channel
        self.channel_ir = channel_ir
        self.object_ir = object_ir
        self.verilog = verilog
        self.vhdl = vhdl
        #: Netlists of polymorphic dispatches found in the object state.
        self.dispatch_irs = dispatch_irs or []

    @property
    def client_count(self) -> int:
        return len(self.channel.clients)


class SynthesisResult:
    """Outcome of one synthesis run."""

    def __init__(self, top: Module, report: SynthesisReport) -> None:
        self.top = top
        self.report = report
        self.groups: list[SynthesizedGroup] = []

    def group_for(self, handle: GlobalObject) -> SynthesizedGroup:
        root = handle._root()
        for group in self.groups:
            if any(h._root() is root for h in group.handles):
                return group
        raise SynthesisError(f"{handle.path} was not synthesized")

    def all_verilog(self) -> str:
        return "\n\n".join(g.verilog for g in self.groups if g.verilog)

    def all_vhdl(self) -> str:
        return "\n\n".join(g.vhdl for g in self.groups if g.vhdl)


#: When set, every completed synthesis run is reported here as
#: ``callback(sim, result)`` — how ``python -m repro analyze`` captures
#: the netlists built deep inside a user script it merely executes
#: (same pattern as the profile CLI's process-wide probe bus).
_SYNTHESIS_SINK: "typing.Callable[[Simulator, SynthesisResult], None] | None" \
    = None


def set_synthesis_sink(
    sink: "typing.Callable[[Simulator, SynthesisResult], None] | None",
) -> "typing.Callable[[Simulator, SynthesisResult], None] | None":
    """Install (or clear, with ``None``) the process-wide result sink.

    Returns the previous sink so callers can restore it.
    """
    global _SYNTHESIS_SINK
    previous = _SYNTHESIS_SINK
    _SYNTHESIS_SINK = sink
    return previous


def _lint_group_netlists(group_name: str, modules: list) -> None:
    """IR sanity pass over one group's netlists; errors abort synthesis."""
    # Imported lazily: the lint package imports synthesis.ir.
    from ..lint.runner import lint_rtl_module

    for module in modules:
        report = lint_rtl_module(module)
        if report.has_errors:
            raise SynthesisError(
                f"group {group_name!r}: netlist {module.name!r} failed the "
                "IR design rules:\n" + report.render()
            )


class GroupShape(typing.NamedTuple):
    """Everything the netlist builders read from one connection group.

    Two groups of equal shape synthesize to identical netlists, HDL,
    reports and compiled code, whatever bus or platform they sit in.
    """

    group_name: str
    object_name: str
    n_clients: int
    #: ``(method name, has a guard)`` in the channel's method indexing.
    methods: tuple[tuple[str, bool], ...]
    arbiter: str
    #: Per-client static priorities; None for other arbiter kinds.
    priorities: "tuple[int, ...] | None"
    body_cycles: int
    data_width: int
    state_class: str
    #: :func:`estimate_state_bits` of the shared state, sorted by name.
    state_bits: tuple[tuple[str, int], ...]
    #: ``(module name, variable name, base class, variants)`` per
    #: polymorphic member of the shared state.
    dispatches: tuple[tuple[str, str, type, tuple[type, ...]], ...]
    lint_ir: bool
    emit_hdl: bool
    backend: str


class GroupNetlists(typing.NamedTuple):
    """What one :class:`GroupShape` synthesizes to.

    Shared by every group of that shape in the process, so it is
    read-only: nothing mutates an IR module after synthesis.
    """

    channel_ir: RtlModule
    object_ir: RtlModule
    dispatch_irs: tuple[RtlModule, ...]
    modules: tuple[ModuleReport, ...]
    dispatches: tuple[DispatchInfo, ...]
    verilog: str
    vhdl: str
    #: The channel IR lowered to Python; None on the interpreted backend.
    compiled: "CompiledNetlist | None"


def _group_shape(
    index: int,
    group_name: str,
    channel: RtlMethodChannel,
    config: SynthesisConfig,
) -> GroupShape:
    """The shape of one group, read off its freshly bound channel."""
    space = channel.space
    state = space.state
    priorities = None
    if isinstance(channel.policy, RtlStaticPriorityPolicy):
        priorities = tuple(channel.policy.priorities)
    state_vars = vars(state) if hasattr(state, "__dict__") else {}
    return GroupShape(
        group_name=group_name,
        object_name=f"obj{index}_" + type(state).__name__.lower(),
        n_clients=len(channel.clients),
        methods=tuple(
            (name, space.methods[name].guard is not None)
            for name in channel.method_names
        ),
        arbiter=channel.policy.kind,
        priorities=priorities,
        body_cycles=config.body_cycles,
        data_width=config.data_width,
        state_class=type(state).__name__,
        state_bits=tuple(sorted(estimate_state_bits(state).items())),
        dispatches=tuple(
            (f"poly{index}_{name.lstrip('_')}", value.name, value.base,
             value.variants)
            for name, value in sorted(state_vars.items())
            if isinstance(value, PolymorphicVar)
        ),
        lint_ir=config.lint_ir,
        emit_hdl=config.emit_hdl,
        backend=config.backend,
    )


@functools.lru_cache(maxsize=32)
def synthesize_group_shape(shape: GroupShape) -> GroupNetlists:
    """Build, lint, emit and (compiled backend) lower one group shape.

    Memoized: each distinct shape is synthesized once per process, and
    every later group of that shape gets the same :class:`GroupNetlists`.
    A lint failure raises and is not cached, so it raises on every call.
    """
    channel_ir = build_channel_ir(
        shape.group_name,
        shape.n_clients,
        [name for name, __ in shape.methods],
        shape.arbiter,
        shape.body_cycles,
        shape.priorities,
        shape.data_width,
    )
    object_ir = object_server_ir(
        shape.object_name,
        shape.state_class,
        dict(shape.state_bits),
        shape.methods,
    )
    # Polymorphic members of the shared state lower to tag+mux
    # dispatch structures (the SystemC+ late-binding feature). The
    # dispatch reads only the variable's name and class set.
    dispatch_irs = []
    dispatches = []
    for module_name, var_name, base, variants in shape.dispatches:
        dispatch_module, dispatch_info = synthesize_dispatch(
            PolymorphicVar(base, variants, var_name), module_name
        )
        dispatch_irs.append(dispatch_module)
        dispatches.append(dispatch_info)
    modules = [channel_ir, object_ir, *dispatch_irs]
    if shape.lint_ir:
        _lint_group_netlists(shape.group_name, modules)
    verilog = vhdl = ""
    if shape.emit_hdl:
        verilog = "\n\n".join(emit_verilog(module) for module in modules)
        vhdl = "\n\n".join(emit_vhdl(module) for module in modules)
    compiled = None
    if shape.backend == "compiled":
        # Imported lazily: repro.compile imports synthesis and analyze.
        from ..compile.channel import compile_channel_ir

        compiled = compile_channel_ir(channel_ir, shape.n_clients)
    return GroupNetlists(
        channel_ir,
        object_ir,
        tuple(dispatch_irs),
        tuple(ModuleReport(module) for module in modules),
        tuple(dispatches),
        verilog,
        vhdl,
        compiled,
    )


def discover_groups(sim: Simulator) -> list[list[GlobalObject]]:
    """All global-object connection groups in the design, as handle lists."""
    by_root: dict[int, list[GlobalObject]] = {}
    for __, obj in sim.iter_named():
        if isinstance(obj, GlobalObject):
            by_root.setdefault(id(obj._root()), []).append(obj)
    return [sorted(handles, key=lambda h: h.path) for handles in by_root.values()]


def synthesize_communication(
    sim: Simulator,
    clk: Signal,
    config: SynthesisConfig | None = None,
    only: typing.Sequence[GlobalObject] | None = None,
    top_name: str = "odette_synth",
) -> SynthesisResult:
    """Lower global-object communication to RT level.

    :param sim: the built design (must not be elaborated/run yet).
    :param clk: the clock every synthesized channel runs on.
    :param only: restrict synthesis to the groups containing these
        handles (default: every group in the design).
    :returns: a :class:`SynthesisResult`; after this call the design is
        the paper's "mixed RT-behavioural" model and can be simulated
        for the post-synthesis validation step.
    """
    if sim.elaborated:
        raise SynthesisError("synthesize before elaborating/running the design")
    config = config or SynthesisConfig()
    groups = discover_groups(sim)
    if only is not None:
        wanted_roots = {id(handle._root()) for handle in only}
        groups = [g for g in groups if id(g[0]._root()) in wanted_roots]
    if not groups:
        raise SynthesisError("no global-object communication found to synthesize")

    top = Module(sim, top_name)
    report = SynthesisReport()
    result = SynthesisResult(top, report)

    for index, handles in enumerate(groups):
        root = handles[0]._root()
        space = root._space
        assert space is not None
        if space.stats.total_requests:
            raise SynthesisError(
                f"group of {root.path} already communicated; synthesize "
                "before running the model"
            )
        group_name = f"chan{index}_" + root.path.replace(".", "_")
        # Stop the behavioural server; the RTL channel takes over.
        space.server.kill()
        if config.backend == "compiled":
            # Imported lazily: repro.compile imports synthesis and analyze.
            from ..compile.channel import CompiledChannel

            channel: RtlMethodChannel = typing.cast(
                RtlMethodChannel,
                CompiledChannel(
                    top, group_name, space, handles, clk, config.body_cycles
                ),
            )
        else:
            channel = RtlMethodChannel(
                top, group_name, space, handles, clk, config.body_cycles
            )
        for handle in handles:
            handle._root()._lowered = channel
        shape = _group_shape(index, group_name, channel, config)
        netlists = synthesize_group_shape(shape)
        if netlists.compiled is not None:
            # The compiled backend *executes* the synthesized netlist.
            channel.bind_netlist(netlists.compiled)
        report.add_group(
            netlists.modules,
            netlists.dispatches,
            {
                "name": group_name,
                "clients": shape.n_clients,
                "methods": len(shape.methods),
                "arbiter": shape.arbiter,
                "cls": shape.state_class,
                "state_bits": sum(bits for __, bits in shape.state_bits),
            },
        )
        result.groups.append(
            SynthesizedGroup(
                group_name, list(handles), channel, netlists.channel_ir,
                netlists.object_ir, netlists.verilog, netlists.vhdl,
                list(netlists.dispatch_irs),
            )
        )
    if _SYNTHESIS_SINK is not None:
        _SYNTHESIS_SINK(sim, result)
    return result
