"""Deliberately-broken designs, one per lint rule.

Each ``make_*`` helper returns a built :class:`Simulator` whose only
defect is the one the named rule must catch — the tests assert both that
the rule fires and that *no other* unexpected rule does.
"""

from __future__ import annotations

from repro.analyze.passes import ModuleAnalysis
from repro.hdl.module import Module
from repro.kernel.process import Timeout
from repro.kernel.simulator import Simulator
from repro.osss.global_object import GlobalObject
from repro.lint import IR, LintEngine
from repro.osss.guarded_method import guarded_method


def lint_netlist(module, config=None):
    """Run every IR rule over one bare netlist, as synthesis does."""
    return LintEngine(config).run(ModuleAnalysis(module), IR, module.name)


def make_double_writer() -> Simulator:
    """MOD002: two threads write a single-writer signal."""
    sim = Simulator()

    class Conflict(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.strobe = self.signal("strobe", width=1, init=0,
                                      single_writer=True)
            self.thread(self._driver_a, "driver_a")
            self.thread(self._driver_b, "driver_b")

        def _driver_a(self):
            self.strobe.write(1)
            yield Timeout(10)

        def _driver_b(self):
            self.strobe.write(0)
            yield Timeout(10)

    Conflict(sim, "top")
    return sim


def make_dead_event_wait() -> Simulator:
    """MOD003: a process waits on an event nothing notifies."""
    sim = Simulator()

    class Waiter(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.go = self.event("go")
            self.thread(self._wait_forever, "wait_forever")

        def _wait_forever(self):
            yield self.go

    Waiter(sim, "top")
    return sim


def make_combinational_loop() -> Simulator:
    """MOD004: two zero-delay methods re-trigger each other."""
    sim = Simulator()

    class Loop(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.a = self.signal("a", width=1, init=0)
            self.b = self.signal("b", width=1, init=0)
            self.method(self._invert, sensitivity=[self.b], name="invert")
            self.method(self._follow, sensitivity=[self.a], name="follow")

        def _invert(self):
            self.a.write(1 - self.b.read())

        def _follow(self):
            self.b.write(self.a.read())

    Loop(sim, "top")
    return sim


class ImpureGuardCell:
    """Guard appends to the state — a side effect."""

    def __init__(self) -> None:
        self.items: list = []

    @guarded_method(lambda self: bool(self.items.append(0)) or True)
    def take(self):
        return self.items.pop()


def make_impure_guard() -> Simulator:
    """GRD001: guard mutates the shared state."""
    sim = Simulator()

    class Host(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.cell = GlobalObject(self, "cell", ImpureGuardCell)

    Host(sim, "top")
    return sim


class DeadGuardCell:
    """Guarded on an attribute no method ever writes."""

    def __init__(self) -> None:
        self.ready = False

    @guarded_method(lambda self: self.ready)
    def proceed(self):
        return 1


def make_dead_guard() -> Simulator:
    """GRD002: guard is false initially and can never become true."""
    sim = Simulator()

    class Host(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.cell = GlobalObject(self, "cell", DeadGuardCell)

    Host(sim, "top")
    return sim


class HandoffCell:
    """take() blocks until put() fills the cell."""

    def __init__(self) -> None:
        self.full = False

    @guarded_method(lambda self: self.full)
    def take(self):
        self.full = False

    @guarded_method()
    def put(self):
        self.full = True


def make_guard_wait_cycle() -> Simulator:
    """GRD003: two threads each take-before-put on crossed cells."""
    sim = Simulator()

    class Host(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.left = GlobalObject(self, "left", HandoffCell)
            self.right = GlobalObject(self, "right", HandoffCell)
            self.thread(self._worker_a, "worker_a")
            self.thread(self._worker_b, "worker_b")

        def _worker_a(self):
            yield from self.left.call("take")
            yield from self.right.call("put")

        def _worker_b(self):
            yield from self.right.call("take")
            yield from self.left.call("put")

    Host(sim, "top")
    return sim


class IntGuardCell:
    """Guard returns the counter itself, not a bool."""

    def __init__(self) -> None:
        self.count = 1

    @guarded_method(lambda self: self.count)
    def consume(self):
        self.count -= 1


def make_non_bool_guard() -> Simulator:
    """GRD004: guard returns an int (0/1-like, coerced at runtime)."""
    sim = Simulator()

    class Host(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.cell = GlobalObject(self, "cell", IntGuardCell)

    Host(sim, "top")
    return sim
