"""Combinational levelization and the :class:`EvalSchedule` artifact.

A synthesized module's combinational logic forms a DAG from registers
and input ports to every derived wire — unless somebody introduced a
combinational cycle, in which case no evaluation order exists and the
netlist is broken (``NET003``). The levelizer runs Kahn's algorithm
over the :class:`~repro.analyze.graph.NetGraph`'s comb dependencies and
produces either the cycles it found or an :class:`EvalSchedule`: the
comb sites sorted into levels such that evaluating them level by level
(any order within a level) settles every wire in a single pass.

The schedule is executable. :meth:`EvalSchedule.evaluate` takes a
``{net name: value}`` environment for the boundary (registers and input
ports) and computes every comb-driven net exactly as a compiled
simulator would — one delta cycle with no event queue. This is the seed
of the ROADMAP's compiled fast-sim backend, and the equivalence tests
use it to cross-check the interpreted kernel's committed signal values.
"""

from __future__ import annotations

import typing

from ..errors import ReproError
from ..synthesis import ir
from .graph import NetGraph


class EvaluationError(ReproError):
    """The schedule evaluator hit a net with no value."""


def evaluate_expr(
    expr: ir.Expr, env: typing.Mapping[str, int]
) -> int:
    """Evaluate *expr* over ``{net name: value}``; results are masked
    to the expression width (two's-complement wraparound on ``-``)."""
    mask = (1 << expr.width) - 1
    if isinstance(expr, ir.Const):
        return expr.value
    if isinstance(expr, ir.Ref):
        try:
            return env[expr.net.name] & mask
        except KeyError:
            raise EvaluationError(
                f"no value for net {expr.net.name!r} in the environment"
            ) from None
    if isinstance(expr, ir.UnOp):
        value = evaluate_expr(expr.operand, env)
        if expr.op == "~":
            return (~value) & mask
        if expr.op == "|":
            return 1 if value != 0 else 0
        operand_mask = (1 << expr.operand.width) - 1
        return 1 if value == operand_mask else 0  # reduce-and
    if isinstance(expr, ir.BinOp):
        left = evaluate_expr(expr.left, env)
        right = evaluate_expr(expr.right, env)
        if expr.op == "&":
            return left & right
        if expr.op == "|":
            return left | right
        if expr.op == "^":
            return left ^ right
        if expr.op == "+":
            return (left + right) & mask
        if expr.op == "-":
            return (left - right) & mask
        if expr.op == "==":
            return 1 if left == right else 0
        if expr.op == "!=":
            return 1 if left != right else 0
        return 1 if left < right else 0
    if isinstance(expr, ir.Mux):
        if evaluate_expr(expr.select, env):
            return evaluate_expr(expr.if_true, env)
        return evaluate_expr(expr.if_false, env)
    if isinstance(expr, ir.BitSelect):
        return (evaluate_expr(expr.operand, env) >> expr.index) & 1
    if isinstance(expr, ir.Concat):
        value = 0
        for part in expr.parts:  # first part is most significant
            part_mask = (1 << part.width) - 1
            value = (value << part.width) | (evaluate_expr(part, env) & part_mask)
        return value
    raise EvaluationError(f"cannot evaluate expression {expr!r}")


class ScheduleStep:
    """One comb evaluation: a continuous assign of *expr* to *target*."""

    __slots__ = ("target", "expr")

    def __init__(self, target: ir.Net, expr: ir.Expr) -> None:
        self.target = target
        self.expr = expr

    def evaluate(self, env: typing.Mapping[str, int]) -> int:
        return evaluate_expr(self.expr, env)

    def __repr__(self) -> str:
        return f"ScheduleStep({self.target.name})"


class CombLoop:
    """One combinational cycle, as the closed path of nets on it."""

    __slots__ = ("nets",)

    def __init__(self, nets: typing.Sequence[ir.Net]) -> None:
        self.nets = list(nets)

    def describe(self) -> str:
        names = [net.name for net in self.nets]
        return " -> ".join([*names, names[0]]) if names else "<empty>"

    def __repr__(self) -> str:
        return f"CombLoop({self.describe()})"


class EvalSchedule:
    """Topologically-levelized combinational evaluation order.

    :attr:`levels` lists the comb steps by dependency depth: level 0
    reads only registers and input ports, level *n* reads nothing above
    level *n − 1*. Flattened iteration order is therefore a valid
    single-pass evaluation order.
    """

    def __init__(
        self, module: ir.RtlModule, levels: typing.Sequence[typing.Sequence[ScheduleStep]]
    ) -> None:
        self.module = module
        self.levels = [list(level) for level in levels]
        self._boundary_widths: dict[str, int] | None = None

    @property
    def steps(self) -> list[ScheduleStep]:
        return [step for level in self.levels for step in level]

    @property
    def depth(self) -> int:
        """Number of levels — the longest comb path in evaluations."""
        return len(self.levels)

    def boundary_nets(self) -> list[ir.Net]:
        """Nets the environment must supply: every net a step reads
        that no step computes (registers and input ports)."""
        computed = {id(step.target) for step in self.steps}
        boundary: dict[int, ir.Net] = {}
        for level in self.levels:
            for step in level:
                for net in step.expr.referenced_nets():
                    if id(net) not in computed:
                        boundary.setdefault(id(net), net)
        return list(boundary.values())

    def evaluate(
        self, boundary: typing.Mapping[str, int]
    ) -> dict[str, int]:
        """One delta cycle: settle every comb net from *boundary*.

        Returns the full environment — boundary values plus every
        computed net, keyed by net name. Boundary values are masked to
        their net widths on entry (width-1 nets fed Python truthy
        values, state registers carrying stale high bits): the
        environment behaves like the wires it names, and the generated
        code of the compiled backend shares exactly this semantics.
        """
        env = dict(boundary)
        widths = self._boundary_widths
        if widths is None:
            widths = self._boundary_widths = {
                net.name: net.width for net in self.boundary_nets()
            }
        for name, width in widths.items():
            value = env.get(name)
            if value is not None:
                env[name] = value & ((1 << width) - 1)
        for level in self.levels:
            for step in level:
                env[step.target.name] = step.evaluate(env)
        return env

    def describe(self) -> str:
        lines = [
            f"schedule {self.module.name}: {len(self.steps)} steps, "
            f"depth {self.depth}"
        ]
        for depth, level in enumerate(self.levels):
            names = ", ".join(step.target.name for step in level)
            lines.append(f"  level {depth}: {names}")
        return "\n".join(lines)


class LevelizationResult:
    """Outcome of :func:`levelize`: a schedule, or the cycles found."""

    def __init__(
        self,
        module: ir.RtlModule,
        schedule: EvalSchedule | None,
        loops: typing.Sequence[CombLoop],
    ) -> None:
        self.module = module
        self.schedule = schedule
        self.loops = list(loops)

    @property
    def ok(self) -> bool:
        return self.schedule is not None


def _comb_steps(graph: NetGraph) -> dict[int, ScheduleStep]:
    """One step per comb-driven net (first driver wins; NET001 reports
    the conflict when there are several)."""
    steps: dict[int, ScheduleStep] = {}
    for assign in graph.module.assigns:
        steps.setdefault(
            id(assign.target), ScheduleStep(assign.target, assign.expr)
        )
    return steps


def _extract_loop(
    stuck: set[int],
    edges: dict[int, set[int]],
    graph: NetGraph,
    rank: dict[int, int],
) -> CombLoop:
    """Walk dependencies inside the stuck set until a net repeats.

    The walk starts at the lowest-ranked stuck net and always steps to
    the lowest-ranked stuck dependency, so the loop reported does not
    depend on the object addresses the sets are hashed by.
    """
    node = min(stuck, key=rank.__getitem__)
    path: list[int] = []
    seen: dict[int, int] = {}
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(
            (dep for dep in edges.get(node, ()) if dep in stuck),
            key=rank.__getitem__,
        )
    cycle = path[seen[node]:]
    return CombLoop([graph.net_by_id(net_id) for net_id in reversed(cycle)])


def levelize(graph: NetGraph) -> LevelizationResult:
    """Levelize the combinational netlist of *graph*'s module.

    Kahn's algorithm over the comb dependency graph. If every comb net
    sorts, the result carries an :class:`EvalSchedule`; any leftover
    strongly-connected remainder is reported as :class:`CombLoop`\\ s
    (one representative cycle per connected remainder component).
    """
    module = graph.module
    edges = graph.comb_dependencies()
    steps = _comb_steps(graph)
    pending = {net_id: set(deps) for net_id, deps in edges.items()}
    dependents: dict[int, list[int]] = {}
    for net_id, deps in edges.items():
        for dep in deps:
            dependents.setdefault(dep, []).append(net_id)

    levels: list[list[ScheduleStep]] = []
    ready = sorted(
        (net_id for net_id, deps in pending.items() if not deps),
        key=lambda net_id: graph.net_by_id(net_id).name,
    )
    for net_id in ready:
        del pending[net_id]
    while ready:
        levels.append([steps[net_id] for net_id in ready if net_id in steps])
        next_ready: list[int] = []
        for net_id in ready:
            for dependent in dependents.get(net_id, ()):
                deps = pending.get(dependent)
                if deps is None:
                    continue
                deps.discard(net_id)
                if not deps:
                    next_ready.append(dependent)
                    del pending[dependent]
        next_ready.sort(key=lambda net_id: graph.net_by_id(net_id).name)
        ready = next_ready

    if not pending:
        return LevelizationResult(module, EvalSchedule(module, levels), [])

    # Nets rank by name, as the ready list sorts, then by graph order.
    rank = {
        id(net): index
        for index, net in enumerate(
            sorted(graph.nets(), key=lambda net: net.name)
        )
    }
    loops: list[CombLoop] = []
    stuck = set(pending)
    while stuck:
        loop = _extract_loop(stuck, edges, graph, rank)
        loops.append(loop)
        stuck.difference_update(id(net) for net in loop.nets)
        # Drop everything that can only be stuck through the reported
        # loop, so each remaining report is a genuinely distinct cycle.
        changed = True
        while changed:
            changed = False
            for net_id in list(stuck):
                if not any(dep in stuck for dep in edges.get(net_id, ())):
                    stuck.discard(net_id)
                    changed = True
    return LevelizationResult(module, None, loops)
