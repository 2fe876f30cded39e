"""Synthesis reporting.

Aggregates resource estimates from the generated netlists — flip-flop
bits, multiplexer count, FSM states, per-object state-register estimates
and polymorphic-dispatch costs — into the kind of summary the ODETTE
prototype printed after a run.
"""

from __future__ import annotations

import typing

from .ir import RtlModule
from .poly_synth import DispatchInfo


class ModuleReport:
    """Resource summary of one netlist."""

    def __init__(self, module: RtlModule) -> None:
        self.name = module.name
        self.comment = module.comment
        self.ports = len(module.ports)
        self.flip_flop_bits = module.flip_flop_bits()
        self.mux_count = module.mux_count()
        self.expression_nodes = module.expression_nodes()
        self.fsm_states = sum(len(fsm.states) for fsm in module.fsms)

    def row(self) -> tuple:
        return (
            self.name,
            self.ports,
            self.flip_flop_bits,
            self.mux_count,
            self.fsm_states,
            self.expression_nodes,
        )


class SynthesisReport:
    """Whole-design synthesis summary."""

    HEADER = ("module", "ports", "ff_bits", "muxes", "fsm_states", "expr_nodes")

    def __init__(self) -> None:
        self.modules: list[ModuleReport] = []
        self.channels: list[dict] = []
        self.dispatches: list[DispatchInfo] = []

    def add_group(
        self,
        modules: typing.Iterable[ModuleReport],
        dispatches: typing.Iterable[DispatchInfo],
        channel: dict,
    ) -> None:
        """Account for one lowered connection group."""
        self.modules.extend(modules)
        self.dispatches.extend(dispatches)
        self.channels.append(channel)

    # -- totals ------------------------------------------------------------

    @property
    def total_flip_flop_bits(self) -> int:
        return sum(m.flip_flop_bits for m in self.modules)

    @property
    def total_mux_count(self) -> int:
        return sum(m.mux_count for m in self.modules)

    @property
    def total_fsm_states(self) -> int:
        return sum(m.fsm_states for m in self.modules)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        lines = ["communication synthesis report", "=" * 64]
        widths = [max(len(str(row[i])) for row in
                      [self.HEADER] + [m.row() for m in self.modules])
                  for i in range(len(self.HEADER))]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.HEADER, widths)))
        for module in self.modules:
            lines.append(
                "  ".join(str(c).ljust(w) for c, w in zip(module.row(), widths))
            )
        lines.append("-" * 64)
        lines.append(
            f"totals: {self.total_flip_flop_bits} ff bits, "
            f"{self.total_mux_count} muxes, {self.total_fsm_states} fsm states"
        )
        if self.channels:
            lines.append("")
            lines.append("lowered channels:")
            for info in self.channels:
                lines.append(
                    f"  {info['name']}: {info['clients']} client(s), "
                    f"{info['methods']} method(s), arbiter={info['arbiter']}, "
                    f"class={info['cls']}"
                )
        if self.dispatches:
            lines.append("")
            lines.append("polymorphic dispatches:")
            for dispatch in self.dispatches:
                lines.append(
                    f"  {dispatch.name}: {len(dispatch.variants)} variants, "
                    f"tag {dispatch.tag_bits} bit(s), union "
                    f"{dispatch.union_state_bits} bit(s), "
                    f"{dispatch.mux_inputs} mux arms"
                )
        return "\n".join(lines)
