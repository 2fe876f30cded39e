"""Analysis context over a built (not necessarily elaborated) design.

:class:`DesignContext` wraps a :class:`~repro.kernel.simulator.Simulator`
and precomputes, for every registered process, the facts the module- and
guard-level rules consume:

* which :class:`~repro.hdl.signal.Signal` objects the process writes
  (resolved from ``self.<chain>.write(...)`` call sites against the live
  module instance);
* which :class:`~repro.kernel.event.Event` objects it waits on, notifies
  or lets escape into unanalyzable contexts;
* the ordered sequence of guarded-method channel calls it performs
  (following ``yield from self.helper(...)`` and plain method calls a
  few levels deep, across object boundaries).

Per connection group it keeps one :class:`GroupView` of the shared
state (which attributes each method writes, what each guard reads and
what it returns on the initial state), built on first use and shared by
the guard, resilience and race rules.

Resolution is identity-based: an attribute chain in the source is
resolved with ``getattr`` on the process's bound instance, so aliasing
through nested objects is handled for free, and anything that
cannot be resolved is simply skipped (no false positives from dynamic
code).
"""

from __future__ import annotations

import ast
import copy
import typing

from ..hdl.signal import Signal
from ..kernel.event import Event
from ..kernel.process import Process
from ..kernel.simulator import Simulator
from ..osss.global_object import GlobalObject
from . import astutils
from .astutils import UNRESOLVED

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hdl.module import Module

#: Signal method names that stage a value change.
_WRITE_METHODS = ("write", "force")
#: Event method names that fire the event.
_NOTIFY_METHODS = ("notify", "notify_delta", "notify_after")
#: How deep `yield from self.helper()` chains are followed.
_HELPER_DEPTH = 3


class ChannelCall:
    """One guarded-method call site inside a thread."""

    def __init__(self, handle: GlobalObject, method: str, order: int) -> None:
        self.handle = handle
        self.method = method
        self.order = order

    def __repr__(self) -> str:
        return f"ChannelCall({self.handle.path}.{self.method}@{self.order})"


class _ScanContext:
    """Resolution context for one scanned function body."""

    def __init__(self, node: astutils.FunctionNode, instance: object) -> None:
        self.node = node
        self.instance = instance
        self.self_name = astutils.first_arg_name(node)

    def resolve(self, expr: ast.AST) -> object:
        chain = astutils.attr_chain(expr)
        if not chain or chain[0] != self.self_name:
            return UNRESOLVED
        return astutils.resolve_chain(self.instance, chain)


class ProcessInfo:
    """Static facts about one registered kernel process."""

    def __init__(self, process: Process) -> None:
        self.process = process
        self.func = process._func
        self.instance = getattr(self.func, "__self__", None)
        self.node = astutils.callable_ast(self.func)
        self.self_name = (
            astutils.first_arg_name(self.node) if self.node is not None else None
        )
        self.signal_writes: set[int] = set()
        self.event_waits: set[int] = set()
        self.event_notifies: set[int] = set()
        self.event_escapes: set[int] = set()
        self.channel_calls: list[ChannelCall] = []
        self.analyzable = self.node is not None and self.instance is not None
        if self.analyzable:
            self._scan(
                _ScanContext(self.node, self.instance), depth=0, seen=set()
            )

    def _note_signal(self, target: object) -> None:
        if isinstance(target, Signal):
            self.signal_writes.add(id(target))

    # -- AST scan ------------------------------------------------------------

    def _scan(self, ctx: _ScanContext, depth: int, seen: set[int]) -> None:
        for sub in ast.walk(ctx.node):
            if isinstance(sub, ast.YieldFrom):
                self._scan_yield_from(ctx, sub.value, depth, seen)
            elif isinstance(sub, ast.Call):
                self._scan_call(ctx, sub, depth, seen)
            elif isinstance(sub, ast.Yield) and sub.value is not None:
                self._scan_yield(ctx, sub.value)
        # Any event reachable by a resolvable chain that appears outside a
        # recognised wait/notify position is treated as escaping analysis.
        recognised = self.event_waits | self.event_notifies
        for sub in ast.walk(ctx.node):
            if isinstance(sub, ast.Attribute):
                resolved = ctx.resolve(sub)
                if isinstance(resolved, Event) and id(resolved) not in recognised:
                    self.event_escapes.add(id(resolved))

    def _scan_call(
        self, ctx: _ScanContext, call: ast.Call, depth: int, seen: set[int]
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _WRITE_METHODS:
            self._note_signal(ctx.resolve(func.value))
        elif func.attr in _NOTIFY_METHODS:
            resolved = ctx.resolve(func.value)
            if isinstance(resolved, Event):
                self.event_notifies.add(id(resolved))
        else:
            # Plain call: follow into resolvable bound methods so
            # notifies/writes buried in helpers (submit(), transact())
            # are attributed to the calling process.
            self._follow(ctx.resolve(func), depth, seen)

    def _scan_yield(self, ctx: _ScanContext, value: ast.AST) -> None:
        resolved = ctx.resolve(value)
        if isinstance(resolved, Event):
            self.event_waits.add(id(resolved))
            return
        # yield AnyOf(a, b): the arguments are waited on.
        if isinstance(value, ast.Call):
            callee = value.func
            callee_name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else ""
            )
            if callee_name == "AnyOf":
                for arg in value.args:
                    argument = ctx.resolve(arg)
                    if isinstance(argument, Event):
                        self.event_waits.add(id(argument))

    def _scan_yield_from(
        self, ctx: _ScanContext, value: ast.AST, depth: int, seen: set[int]
    ) -> None:
        if not isinstance(value, ast.Call):
            return
        func = value.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = ctx.resolve(func.value)
        if isinstance(receiver, GlobalObject):
            method = func.attr
            if method == "call":
                if value.args and isinstance(value.args[0], ast.Constant) \
                        and isinstance(value.args[0].value, str):
                    method = value.args[0].value
                else:
                    return
            self.channel_calls.append(
                ChannelCall(receiver, method, len(self.channel_calls))
            )
            return
        # yield from obj.helper(...): follow resolvable generator methods,
        # module-local or not (transact() lives on another module).
        self._follow(ctx.resolve(func), depth, seen)

    def _follow(self, resolved: object, depth: int, seen: set[int]) -> None:
        """Recurse into a resolved bound method's body, bounded."""
        if depth >= _HELPER_DEPTH or resolved is UNRESOLVED:
            return
        inner = getattr(resolved, "__func__", resolved)
        code = getattr(inner, "__code__", None)
        if code is None or id(code) in seen:
            return
        helper_node = astutils.callable_ast(inner)
        if helper_node is None:
            return
        helper_instance = getattr(resolved, "__self__", None)
        if helper_instance is None:
            return
        seen.add(id(code))
        self._scan(_ScanContext(helper_node, helper_instance), depth + 1, seen)


class GroupView:
    """Pre-chewed facts about one connection group's shared state.

    Built once per :class:`DesignContext` (see
    :meth:`DesignContext.group_views`) and read by the guard (GRD),
    resilience (RES) and race (RACE) rules.
    """

    def __init__(self, root: GlobalObject) -> None:
        self.root = root
        self.space = root.space
        self.state = self.space.state
        self.cls = type(self.state)
        self.path = root.path
        #: method name -> attributes it writes (mutation heuristic).
        self.method_writes: dict[str, set[str]] = {
            name: astutils.self_attr_writes(node)
            for name, node in astutils.class_method_asts(self.cls).items()
            if name != "__init__"
        }
        self._reads_cache: dict[int, set[str] | None] = {}
        self._eval_cache: dict[int, object] = {}

    def guarded(self) -> list[tuple[str, typing.Any]]:
        """``(name, descriptor)`` for methods that carry a guard."""
        return sorted(
            (name, descriptor)
            for name, descriptor in self.space.methods.items()
            if descriptor.guard is not None
        )

    def guard_reads(self, descriptor: typing.Any) -> set[str] | None:
        """State attributes the guard depends on (property-expanded).

        ``None`` when the guard source is unavailable.
        """
        key = id(descriptor)
        if key not in self._reads_cache:
            node = astutils.callable_ast(descriptor.guard)
            self._reads_cache[key] = None if node is None else (
                astutils.expand_guard_reads(
                    self.cls, astutils.self_attr_reads(node)
                )
            )
        return self._reads_cache[key]

    def enabling_writers(self, reads: set[str]) -> set[str]:
        """Methods whose writes intersect the guard's read set."""
        return {
            name
            for name, writes in self.method_writes.items()
            if writes & reads
        }

    def eval_guard(self, descriptor: typing.Any) -> object:
        """Evaluate the guard on a copy of the *initial* state.

        Returns :data:`UNRESOLVED` when the state cannot be copied or the
        guard raises (both mean "cannot tell statically"). The verdict
        is deterministic over the initial state, so it is memoized per
        descriptor (one deepcopy per guard per run, however many rules
        ask).
        """
        key = id(descriptor)
        if key not in self._eval_cache:
            self._eval_cache[key] = self._eval_guard_uncached(descriptor)
        return self._eval_cache[key]

    def _eval_guard_uncached(self, descriptor: typing.Any) -> object:
        try:
            probe = copy.deepcopy(self.state)
        except Exception:
            return UNRESOLVED
        try:
            return descriptor.guard(probe)
        except Exception:
            return UNRESOLVED


class DesignContext:
    """Cached static view of one design for the module/guard rules."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.processes = [ProcessInfo(p) for p in sim.scheduler.processes]
        self.modules: list["Module"] = []
        for top in sim.top_modules:
            self.modules.extend(top.iter_modules())
        self.signals: list[Signal] = [
            obj for __, obj in sim.iter_named() if isinstance(obj, Signal)
        ]
        self.global_objects: list[GlobalObject] = [
            obj for __, obj in sim.iter_named() if isinstance(obj, GlobalObject)
        ]
        self._cache: dict[str, object] = {}

    def cached(self, key: str, factory: typing.Callable[[], object]) -> object:
        """Memoize ``factory()`` under *key* for this context's lifetime.

        Rules running over the same context share expensive derived
        analyses through this (guard group views, channel call sites),
        so each is computed once per lint run instead of once per rule.
        """
        if key not in self._cache:
            self._cache[key] = factory()
        return self._cache[key]

    # -- derived maps ---------------------------------------------------------

    def group_views(self) -> list[GroupView]:
        """One :class:`GroupView` per connection group, sorted by the
        path of the group's first handle; built on first use."""
        return self.cached("group_views", self._build_group_views)

    def _build_group_views(self) -> list[GroupView]:
        roots: dict[int, GlobalObject] = {}
        for handle in sorted(self.global_objects, key=lambda h: h.path):
            root = handle._root()
            roots.setdefault(id(root), root)
        return [GroupView(root) for root in roots.values()]

    def signal_writers(self) -> dict[int, list[ProcessInfo]]:
        """``id(signal) -> processes that statically write it``."""
        writers: dict[int, list[ProcessInfo]] = {}
        for info in self.processes:
            for signal_id in info.signal_writes:
                writers.setdefault(signal_id, []).append(info)
        return writers

    def module_events(self) -> list[tuple["Module", str, Event]]:
        """Module-attribute events, as ``(module, attr_name, event)``."""
        found: list[tuple["Module", str, Event]] = []
        for module in self.modules:
            for attr_name, value in sorted(vars(module).items()):
                if isinstance(value, Event):
                    found.append((module, attr_name, value))
        return found
