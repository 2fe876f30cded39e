"""Guard and arbitration-hazard rules over OSSS global objects (GRD0xx).

The paper's safety argument rests on guards being *pure predicates over
the shared state* that some method eventually makes true. These rules
check exactly that, statically, per connection group:

* **GRD001** — a guard that mutates state or depends on simulation
  objects (signals, ports, events) is impure: its value can change
  between the scheduler's guard evaluation and the method grant.
* **GRD002** — a guard over attributes no method ever writes can never
  change; if it is also false initially, every caller deadlocks.
* **GRD003** — guarded calls whose enabling writers are themselves stuck
  behind guarded calls, cyclically (the classic two-channel deadlock).
* **GRD004** — a guard returning a non-bool (tolerated at runtime when
  0/1-like, see :meth:`GuardedMethodDescriptor.guard_true`, but worth
  fixing at the source).
"""

from __future__ import annotations

import ast
import typing

from ..analyze.graph import find_cycles
from ..hdl.signal import Signal
from ..kernel.event import Event
from . import astutils
from .astutils import UNRESOLVED
from .context import DesignContext, GroupView
from .diagnostics import Diagnostic, Severity
from .engine import DESIGN, LintRule, register


@register
class ImpureGuardRule(LintRule):
    """A guard mutates state or reads live simulation objects."""

    rule_id = "GRD001"
    name = "impure-guard"
    target = DESIGN
    default_severity = Severity.WARNING
    description = "guards must be pure predicates over the shared state"

    def check(self, design: DesignContext) -> typing.Iterator[Diagnostic]:
        for group in design.group_views():
            for method_name, descriptor in group.guarded():
                node = astutils.callable_ast(descriptor.guard)
                if node is None:
                    continue
                path = f"{group.path}.{method_name}"
                for finding in astutils.find_impurities(node):
                    yield self.emit(
                        path,
                        f"guard is impure ({finding.kind}: {finding.detail})",
                        "restrict the guard to reads of plain state "
                        "attributes and pure builtins",
                    )
                for detail in self._simulation_reads(group, node):
                    yield self.emit(
                        path,
                        f"guard reads a simulation object ({detail}); its "
                        "value can change between evaluation and grant",
                        "mirror the signal into a plain attribute updated "
                        "by a method, and guard on that",
                    )

    @staticmethod
    def _simulation_reads(group: GroupView, node: astutils.FunctionNode
                          ) -> list[str]:
        self_name = astutils.first_arg_name(node)
        found: list[str] = []
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Attribute):
                continue
            chain = astutils.attr_chain(sub)
            if not chain or chain[0] != self_name:
                continue
            resolved = astutils.resolve_chain(group.state, chain)
            if isinstance(resolved, (Signal, Event)):
                found.append(".".join(chain[1:]))
        return sorted(set(found))


@register
class DeadGuardRule(LintRule):
    """A statically-false guard no method can ever make true."""

    rule_id = "GRD002"
    name = "dead-guard"
    target = DESIGN
    default_severity = Severity.ERROR
    description = (
        "a guard over never-written attributes that starts false blocks "
        "every caller forever"
    )

    def check(self, design: DesignContext) -> typing.Iterator[Diagnostic]:
        for group in design.group_views():
            for method_name, descriptor in group.guarded():
                reads = group.guard_reads(descriptor)
                if reads is None:
                    continue
                writers = group.enabling_writers(reads) if reads else set()
                if writers:
                    continue
                value = group.eval_guard(descriptor)
                if value is UNRESOLVED or value:
                    continue
                what = (
                    "depends on no state attribute" if not reads else
                    "reads only attributes no method writes "
                    f"({', '.join(sorted(reads))})"
                )
                yield self.emit(
                    f"{group.path}.{method_name}",
                    f"guard is false initially and {what}: it can never "
                    "become true (static deadlock)",
                    "make some method of the shared class write the "
                    "guarded attributes, or fix the guard predicate",
                )


@register
class GuardWaitCycleRule(LintRule):
    """Guarded calls that transitively wait on each other (deadlock risk)."""

    rule_id = "GRD003"
    name = "guard-wait-cycle"
    target = DESIGN
    default_severity = Severity.WARNING
    description = (
        "every path that could enable a blocked guard is itself behind a "
        "blocked guard, cyclically"
    )

    def check(self, design: DesignContext) -> typing.Iterator[Diagnostic]:
        sites = self._call_sites(design)
        blocking = [site for site in sites if site["blocking"]]
        if not blocking:
            return
        edges: dict[int, set[int]] = {}
        labels: dict[int, str] = {}
        for site in blocking:
            key = id(site)
            labels[key] = (
                f"{site['info'].process.name} -> "
                f"{site['group'].path}.{site['method']}"
            )
            dependencies = self._dependencies(site, sites)
            if dependencies is None:
                continue
            edges[key] = {id(dep) for dep in dependencies}
        for cycle in find_cycles(edges):
            chain = sorted(labels[node] for node in cycle)
            yield self.emit(
                chain[0].split(" -> ")[1],
                "potential guard deadlock cycle: " + "; ".join(chain),
                "reorder the calls, or enable one guard from an "
                "always-runnable process",
            )

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _call_sites(design: DesignContext) -> list[dict]:
        """Channel call sites, computed once per context (RES001 shares
        this with GRD003 through the context cache)."""
        return design.cached(
            "guard.call_sites",
            lambda: GuardWaitCycleRule._build_call_sites(design),
        )

    @staticmethod
    def _build_call_sites(design: DesignContext) -> list[dict]:
        groups = {id(g.root): g for g in design.group_views()}
        sites: list[dict] = []
        for info in design.processes:
            if not info.analyzable:
                continue
            for call in info.channel_calls:
                group = groups.get(id(call.handle._root()))
                if group is None:
                    continue
                descriptor = group.space.methods.get(call.method)
                blocking = False
                if descriptor is not None and descriptor.guard is not None:
                    value = group.eval_guard(descriptor)
                    blocking = value is not UNRESOLVED and not value
                sites.append({
                    "info": info,
                    "order": call.order,
                    "group": group,
                    "method": call.method,
                    "descriptor": descriptor,
                    "blocking": blocking,
                })
        return sites

    @staticmethod
    def _dependencies(site: dict, sites: list[dict]) -> "list[dict] | None":
        """Blocking sites *site* waits on; ``None`` when it can proceed."""
        group: GroupView = site["group"]
        descriptor = site["descriptor"]
        reads = group.guard_reads(descriptor) if descriptor else None
        if not reads:
            return None
        writers = group.enabling_writers(reads)
        # A guarded method cannot enable itself: its body (and therefore
        # its writes) only runs after its own guard has already passed.
        # app_data_get popping the response queue must not make it its
        # own "enabling writer".
        writers.discard(site["method"])
        if not writers:
            return None  # GRD002 territory, not a cycle
        occurrences = [
            other for other in sites
            if other["group"] is group and other["method"] in writers
        ]
        if not occurrences:
            return None
        dependencies: list[dict] = []
        for occurrence in occurrences:
            same_thread = occurrence["info"] is site["info"]
            if same_thread and occurrence["order"] >= site["order"]:
                # The enabler sits behind this very call in program order.
                dependencies.append(site)
                continue
            prefix = [
                other for other in sites
                if other["info"] is occurrence["info"]
                and other["order"] < occurrence["order"]
                and other["blocking"]
            ]
            if not prefix:
                return None  # an unobstructed enabler exists
            dependencies.extend(prefix)
        return dependencies


@register
class NonBoolGuardRule(LintRule):
    """A guard returns something other than a bool."""

    rule_id = "GRD004"
    name = "non-bool-guard"
    target = DESIGN
    default_severity = Severity.WARNING
    description = (
        "guards should return bool; 0/1-like values are coerced at "
        "runtime, everything else raises"
    )

    def check(self, design: DesignContext) -> typing.Iterator[Diagnostic]:
        for group in design.group_views():
            for method_name, descriptor in group.guarded():
                value = group.eval_guard(descriptor)
                if value is UNRESOLVED or isinstance(value, bool):
                    continue
                path = f"{group.path}.{method_name}"
                try:
                    zero_one_like = (
                        value == int(value) and int(value) in (0, 1)
                    )
                except (TypeError, ValueError, OverflowError):
                    zero_one_like = False
                if zero_one_like:
                    yield self.emit(
                        path,
                        f"guard returns {type(value).__name__} "
                        f"({value!r}), coerced to bool at runtime",
                        "end the guard with a comparison or bool(...)",
                    )
                else:
                    yield self.emit(
                        path,
                        f"guard returns non-boolean {type(value).__name__} "
                        f"({value!r}); the runtime will reject it",
                        "return a bool from the guard predicate",
                    )
