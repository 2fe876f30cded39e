"""Whole-module driver/reader graph.

The graph answers, for every named net of an :class:`RtlModule`, two
questions every analysis pass needs: *what drives it* (and with which
kind of logic) and *who reads it*. Drivers are classified so the rules
can tell a legal single comb assign from a comb/clocked conflict:

* ``"assign"`` — a continuous combinational assignment;
* ``"clocked"`` — a registered assignment at the clock edge;
* ``"fsm-state"`` — an FSM's next-state logic owning its state register.

Reader entries are the :class:`~repro.synthesis.ir.ExprSite` occurrences
whose expression references the net. All keying is by net *identity*
(``id``), matching the IR's aliasing semantics: two modules may reuse a
name, but a net object is one wire.

:func:`find_cycles` is the strongly connected component search that
every cycle check of the lint and analysis rules runs on its own graph.
"""

from __future__ import annotations

import typing

from ..synthesis import ir


class Driver:
    """One structural driver of a net."""

    __slots__ = ("kind", "label", "target", "sources", "expr_width")

    def __init__(
        self,
        kind: str,
        label: str,
        target: ir.Net,
        sources: typing.Sequence[ir.Net],
        expr_width: int | None = None,
    ) -> None:
        self.kind = kind
        self.label = label
        self.target = target
        #: Nets this driver reads (deduplicated, identity-keyed order).
        self.sources = list(sources)
        #: Width of the driving expression (``None`` for FSM drivers,
        #: whose decode always matches the target by construction).
        self.expr_width = expr_width

    @property
    def is_combinational(self) -> bool:
        return self.kind == "assign"

    def __repr__(self) -> str:
        return f"Driver({self.kind} -> {self.target.name})"


def _unique_nets(nets: typing.Iterable[ir.Net]) -> list[ir.Net]:
    seen: dict[int, ir.Net] = {}
    for net in nets:
        seen.setdefault(id(net), net)
    return list(seen.values())


class NetGraph:
    """Driver/reader graph of one module.

    Built once per module by :class:`~repro.analyze.passes.ModuleAnalysis`
    and queried many times: the levelization into an
    :class:`~repro.analyze.schedule.EvalSchedule`, the X-propagation
    pass and every IR lint rule run off that one instance.
    """

    def __init__(self, module: ir.RtlModule) -> None:
        self.module = module
        self._drivers: dict[int, list[Driver]] = {}
        self._readers: dict[int, list[ir.ExprSite]] = {}
        self._nets: dict[int, ir.Net] = {
            id(net): net for net in module.all_nets()
        }
        self._build()

    def _build(self) -> None:
        module = self.module
        for site in module.iter_expr_sites():
            for net in site.expr.referenced_nets():
                self._nets.setdefault(id(net), net)
                self._readers.setdefault(id(net), []).append(site)
        for assign in module.assigns:
            self._add(Driver(
                "assign", f"assign {assign.target.name}", assign.target,
                _unique_nets(assign.expr.referenced_nets()),
                assign.expr.width,
            ))
        for clocked in module.clocked_assigns:
            reads = list(clocked.expr.referenced_nets())
            if clocked.enable is not None:
                reads.extend(clocked.enable.referenced_nets())
            self._add(Driver(
                "clocked", f"clocked assign {clocked.target.name}",
                clocked.target, _unique_nets(reads), clocked.expr.width,
            ))
        for fsm in module.fsms:
            condition_reads: list[ir.Net] = []
            for transition in fsm.transitions:
                if transition.condition is not None:
                    condition_reads.extend(
                        transition.condition.referenced_nets()
                    )
            self._add(Driver(
                "fsm-state", f"{fsm.name} next-state logic",
                fsm.state_register, _unique_nets(condition_reads),
            ))

    def _add(self, driver: Driver) -> None:
        self._nets.setdefault(id(driver.target), driver.target)
        self._drivers.setdefault(id(driver.target), []).append(driver)

    # -- queries ---------------------------------------------------------------

    def nets(self) -> list[ir.Net]:
        """Every net the graph knows about (module lists plus strays)."""
        return list(self._nets.values())

    def read_nets(self) -> list[ir.Net]:
        """Every net some expression reads, in first-read order."""
        return [self._nets[net_id] for net_id in self._readers]

    def driven_nets(self) -> list[ir.Net]:
        """Every net with a driver, in first-driver order (continuous
        assigns first, then clocked assigns, then FSMs)."""
        return [self._nets[net_id] for net_id in self._drivers]

    def drivers_of(self, net: ir.Net) -> list[Driver]:
        return self._drivers.get(id(net), [])

    def readers_of(self, net: ir.Net) -> list[ir.ExprSite]:
        return self._readers.get(id(net), [])

    def comb_drivers_of(self, net: ir.Net) -> list[Driver]:
        return [d for d in self.drivers_of(net) if d.is_combinational]

    def is_comb_driven(self, net: ir.Net) -> bool:
        return bool(self.comb_drivers_of(net))

    def comb_dependencies(self) -> dict[int, set[int]]:
        """``id(target) -> {id(source), ...}`` over combinational drivers.

        Only sources that are themselves combinationally driven appear —
        registers and input ports are level-0 boundary values, not graph
        edges. This is exactly the dependency relation the levelizer
        topologically sorts.
        """
        edges: dict[int, set[int]] = {}
        for net_id, drivers in self._drivers.items():
            for driver in drivers:
                if not driver.is_combinational:
                    continue
                deps = edges.setdefault(net_id, set())
                for source in driver.sources:
                    if self.is_comb_driven(source):
                        deps.add(id(source))
        return edges

    def net_by_id(self, net_id: int) -> ir.Net:
        return self._nets[net_id]


_Node = typing.TypeVar("_Node", bound=typing.Hashable)


def find_cycles(
    successors: typing.Mapping[_Node, typing.Iterable[_Node]],
) -> list[list[_Node]]:
    """Strongly connected components that contain a cycle.

    Tarjan's algorithm without recursion, so a cycle of any length
    stays clear of the interpreter's recursion limit. Depth-first roots
    are taken in *successors* key order and each node's successors in
    their iteration order; a component is returned in the order Tarjan
    completes it (members in stack-pop order) when it has more than one
    member or a self-loop. A node with no entry in *successors* has no
    successors.
    """
    index: dict[_Node, int] = {}
    lowlink: dict[_Node, int] = {}
    on_stack: set[_Node] = set()
    stack: list[_Node] = []
    cycles: list[list[_Node]] = []

    def visit(node: _Node) -> tuple[_Node, typing.Iterator[_Node]]:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(successors.get(node, ()))

    for root in successors:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            node, pending = work[-1]
            for successor in pending:
                if successor not in index:
                    work.append(visit(successor))
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] != index[node]:
                    continue
                component: list[_Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in successors.get(node, ()):
                    cycles.append(component)
    return cycles
