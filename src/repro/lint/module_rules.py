"""Structural rules over the elaborated module hierarchy (MOD0xx).

These run on a *built* design — after construction, before (or instead
of) elaboration — so structural mistakes surface as diagnostics with
hierarchical paths rather than as mid-elaboration exceptions or, worse,
silently wrong simulations.
"""

from __future__ import annotations

import typing

from ..analyze.graph import find_cycles
from ..kernel.process import Process
from .context import DesignContext, ProcessInfo
from .diagnostics import Diagnostic, Severity
from .engine import DESIGN, LintRule, register


@register
class MultipleWriterRule(LintRule):
    """Two different processes statically write a single-writer signal."""

    rule_id = "MOD002"
    name = "multiple-writers"
    target = DESIGN
    default_severity = Severity.ERROR
    description = (
        "a single-writer signal must be driven by exactly one process"
    )

    def check(self, design: DesignContext) -> typing.Iterator[Diagnostic]:
        writers = design.signal_writers()
        for signal in design.signals:
            if not getattr(signal, "_single_writer", False):
                continue
            writing = writers.get(id(signal), [])
            if len(writing) > 1:
                names = ", ".join(sorted(w.process.name for w in writing))
                yield self.emit(
                    signal.name,
                    f"single-writer signal is written by {len(writing)} "
                    f"processes: {names}",
                    "drive the signal from one process, or mux the sources "
                    "explicitly",
                )


@register
class DeadEventWaitRule(LintRule):
    """A process waits on a module event that nothing ever notifies."""

    rule_id = "MOD003"
    name = "dead-event-wait"
    target = DESIGN
    default_severity = Severity.WARNING
    description = (
        "waiting on an event with no notifier suspends the process forever"
    )

    def check(self, design: DesignContext) -> typing.Iterator[Diagnostic]:
        waited: dict[int, list[ProcessInfo]] = {}
        notified: set[int] = set()
        escaped: set[int] = set()
        for info in design.processes:
            if not info.analyzable:
                continue
            for event_id in info.event_waits:
                waited.setdefault(event_id, []).append(info)
            notified |= info.event_notifies
            escaped |= info.event_escapes
        for module, attr_name, event in design.module_events():
            event_id = id(event)
            if event_id not in waited:
                continue
            if event_id in notified or event_id in escaped:
                continue
            waiters = ", ".join(
                sorted(w.process.name for w in waited[event_id])
            )
            yield self.emit(
                event.name or f"{module.path}.{attr_name}",
                f"event is waited on (by {waiters}) but never notified",
                "notify the event from some process, or remove the wait",
            )


@register
class CombinationalLoopRule(LintRule):
    """Zero-delay method processes form a feedback loop through signals."""

    rule_id = "MOD004"
    name = "combinational-loop"
    target = DESIGN
    default_severity = Severity.ERROR
    description = (
        "method processes whose writes re-trigger their own sensitivity "
        "loop forever within one time step"
    )

    def check(self, design: DesignContext) -> typing.Iterator[Diagnostic]:
        # Map each signal's change/edge events back to the signal so a
        # method's sensitivity list can be expressed in signal identities.
        event_to_signal: dict[int, object] = {}
        for signal in design.signals:
            for attr in ("_changed", "_posedge", "_negedge"):
                event = getattr(signal, attr, None)
                if event is not None:
                    event_to_signal[id(event)] = signal

        methods = [
            info for info in design.processes
            if info.analyzable and info.process.kind == Process.METHOD
        ]
        reads: dict[int, set[int]] = {}    # id(info) -> sensitivity signal ids
        writes: dict[int, set[int]] = {}
        for info in methods:
            sensitivity: set[int] = set()
            for event in info.process._static_sensitivity:
                signal = event_to_signal.get(id(event))
                if signal is not None:
                    sensitivity.add(id(signal))
            reads[id(info)] = sensitivity
            writes[id(info)] = set(info.signal_writes)

        # Edge P -> Q when P writes a signal Q is sensitive to.
        edges: dict[int, set[int]] = {id(info): set() for info in methods}
        by_id = {id(info): info for info in methods}
        for producer in methods:
            for consumer in methods:
                if writes[id(producer)] & reads[id(consumer)]:
                    edges[id(producer)].add(id(consumer))

        for cycle in find_cycles(edges):
            names = [by_id[node].process.name for node in cycle]
            anchor = min(names)
            yield self.emit(
                anchor,
                "combinational loop through zero-delay method processes: "
                + " -> ".join(sorted(names)),
                "break the loop with a registered (clocked) stage or "
                "convert one process to a thread with an explicit wait",
            )


@register
class InterfaceElementShapeRule(LintRule):
    """A library interface element drifted from the base contract."""

    rule_id = "MOD005"
    name = "interface-element-shape"
    target = DESIGN
    default_severity = Severity.ERROR
    description = (
        "an InterfaceElement must carry library tags, own exactly one "
        "channel global object, and run at least one protocol process"
    )

    def check(self, design: DesignContext) -> typing.Iterator[Diagnostic]:
        from ..iface.element import InterfaceElement
        from ..osss.global_object import GlobalObject

        for module in design.modules:
            if not isinstance(module, InterfaceElement):
                continue
            if module.BUS_NAME == "abstract" or module.ABSTRACTION == "abstract":
                yield self.emit(
                    module.path,
                    "element keeps the abstract BUS_NAME/ABSTRACTION tags",
                    "set the BUS_NAME and ABSTRACTION class attributes so "
                    "the interface library can index the element",
                )
            channels = [
                value for __, value in sorted(vars(module).items())
                if isinstance(value, GlobalObject)
            ]
            named = [c for c in channels if c.name == "channel"]
            if len(named) != 1:
                yield self.emit(
                    module.path,
                    f"element owns {len(named)} global objects named "
                    f"'channel' (expected exactly 1)",
                    "keep the application-facing channel the base class "
                    "creates; add protocol state as plain attributes, not "
                    "extra channels",
                )
            extras = [c for c in channels if c.name != "channel"]
            if extras:
                paths = ", ".join(c.path for c in extras)
                yield self.emit(
                    module.path,
                    f"element owns extra global objects: {paths}",
                    "an interface element exposes exactly one channel "
                    "towards the application; move other shared objects "
                    "out of the element",
                )
            owned = [
                info for info in design.processes
                if info.instance is module
            ]
            if not owned:
                yield self.emit(
                    module.path,
                    "element registers no process of its own",
                    "spawn the protocol dispatcher (self.thread(...)) in "
                    "the element's __init__",
                )
