"""repro.compile — the compiled fast-sim backend.

Lowers synthesized RTL netlists (``repro.synthesis.ir``) to generated
straight-line Python. :class:`CompiledChannel` is the shared channel
core of :class:`~repro.synthesis.rtl_channel.RtlMethodChannel` with the
generated netlist as its next-state step, selected with
``backend="compiled"`` on :class:`~repro.synthesis.tool.SynthesisConfig`
(or the platform/flow/CLI knobs layered above it). The two backends are
cycle- and commit-equivalent by construction; the equivalence gate is
enforced by the backend-parity test suite.
"""

from .codegen import CodegenError, CompiledNetlist, compile_module
from .channel import CompiledChannel
from .yosys import emit_yosys_script

__all__ = [
    "CodegenError",
    "CompiledChannel",
    "CompiledNetlist",
    "compile_module",
    "emit_yosys_script",
]
