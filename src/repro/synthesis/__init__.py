"""Communication synthesis — the reproduction of the ODETTE tool.

Lowers SystemC+/OSSS global-object communication to a mixed
RT-behavioural model: per-client handshakes, a synthesized arbiter and a
server FSM become cycle-accurate hardware (with Verilog/VHDL netlists
emitted), while method bodies remain behavioural.
"""

from .arbiter_synth import (
    RtlArbiterPolicy,
    RtlFcfsPolicy,
    RtlRandomPolicy,
    RtlRoundRobinPolicy,
    RtlStaticPriorityPolicy,
    lower_arbiter,
)
from .channel_synth import build_channel_ir
from .emit_verilog import emit_verilog
from .emit_vhdl import emit_vhdl
from .ir import (
    Assign,
    BinOp,
    BitSelect,
    ClockedAssign,
    Concat,
    Const,
    Expr,
    Fsm,
    Mux,
    Net,
    Port,
    Ref,
    Register,
    RtlModule,
    UnOp,
    clog2,
    mux_chain,
)
from .object_synth import estimate_state_bits
from .poly_synth import DispatchInfo, synthesize_dispatch
from .report import ModuleReport, SynthesisReport
from .rtl_channel import ChannelCallRecord, RtlMethodChannel
from .tool import (
    SynthesisConfig,
    SynthesisResult,
    SynthesizedGroup,
    discover_groups,
    synthesize_communication,
)

__all__ = [
    "Assign",
    "BinOp",
    "BitSelect",
    "ChannelCallRecord",
    "ClockedAssign",
    "Concat",
    "Const",
    "DispatchInfo",
    "Expr",
    "Fsm",
    "ModuleReport",
    "Mux",
    "Net",
    "Port",
    "Ref",
    "Register",
    "RtlArbiterPolicy",
    "RtlFcfsPolicy",
    "RtlMethodChannel",
    "RtlModule",
    "RtlRandomPolicy",
    "RtlRoundRobinPolicy",
    "RtlStaticPriorityPolicy",
    "SynthesisConfig",
    "SynthesisReport",
    "SynthesisResult",
    "SynthesizedGroup",
    "UnOp",
    "build_channel_ir",
    "clog2",
    "discover_groups",
    "emit_verilog",
    "emit_vhdl",
    "estimate_state_bits",
    "lower_arbiter",
    "mux_chain",
    "synthesize_dispatch",
    "synthesize_communication",
]
