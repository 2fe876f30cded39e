"""X-propagation from unreset registers to primary outputs.

A register declared with ``reset_value=None`` powers up unknown. Every
combinational net that (transitively) reads it is unknown too, until
the register is first clocked — and if such a net reaches an output
port, the module exposes X to its neighbours right after reset, which
is exactly when the handshake protocol starts sampling. This static
pass computes the combinational X-closure and reports tainted output
ports with one example source-to-port path (``NET004``).

Registers *with* a reset stop the taint: their post-reset value is
defined regardless of what their (possibly tainted) next-state logic
computes, which matches what the first delta cycle after reset sees.
"""

from __future__ import annotations

import typing

from ..synthesis import ir
from .graph import NetGraph


class XPropFinding:
    """One tainted primary output, with a witness path."""

    __slots__ = ("port", "source", "path")

    def __init__(
        self, port: ir.Port, source: ir.Register,
        path: typing.Sequence[ir.Net],
    ) -> None:
        self.port = port
        self.source = source
        #: Nets from the unreset register to the port, inclusive.
        self.path = list(path)

    def describe_path(self) -> str:
        return " -> ".join(net.name for net in self.path)

    def __repr__(self) -> str:
        return f"XPropFinding({self.source.name} ~> {self.port.name})"


def x_sources(module: ir.RtlModule) -> list[ir.Register]:
    """Registers with no reset assign (the X roots)."""
    return [r for r in module.registers if not r.has_reset]


def find_x_propagation(graph: NetGraph) -> list[XPropFinding]:
    """Tainted output ports of *graph*'s module, one finding per port.

    Breadth-first over combinational drivers only: the taint of net *n*
    comes from any comb driver of *n* reading a tainted source. Clocked
    assigns to reset registers absorb the taint (see module doc);
    clocked assigns to other unreset registers add nothing new — those
    registers are roots already.
    """
    module = graph.module
    roots = x_sources(module)
    if not roots:
        return []
    # parent[id(net)] = the tainted source net that infected it,
    # letting us rebuild one witness path per tainted net.
    parent: dict[int, ir.Net | None] = {id(root): None for root in roots}
    root_of: dict[int, ir.Register] = {id(root): root for root in roots}
    changed = True
    while changed:
        changed = False
        for net in graph.nets():
            if id(net) in parent:
                continue
            for driver in graph.comb_drivers_of(net):
                source = next(
                    (s for s in driver.sources if id(s) in parent), None
                )
                if source is None:
                    continue
                parent[id(net)] = source
                root_of[id(net)] = root_of[id(source)]
                changed = True
                break

    findings: list[XPropFinding] = []
    for port in module.ports:
        if port.direction != "out" or id(port) not in parent:
            continue
        path: list[ir.Net] = []
        node: ir.Net | None = port
        while node is not None:
            path.append(node)
            node = parent[id(node)]
        path.reverse()
        findings.append(XPropFinding(port, root_of[id(port)], path))
    return findings
