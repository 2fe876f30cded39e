"""Hierarchical modules.

:class:`Module` is the structural unit of a design, mirroring
``sc_module``: it owns signals, processes and child modules, and gives
everything a hierarchical name. Subclasses build their contents in
``__init__`` using the declaration helpers (:meth:`signal`,
:meth:`thread`, ...). There are no ports: a module takes the signals it
reads and drives as constructor arguments::

    class Counter(Module):
        def __init__(self, parent, name, clk):
            super().__init__(parent, name)
            self.clk = clk
            self.count = self.signal("count", width=8, init=0)
            self.thread(self._run)

        def _run(self):
            while True:
                yield self.clk.posedge
                self.count.write(self.count.read() + 1)
"""

from __future__ import annotations

import typing

from ..errors import ElaborationError
from ..kernel.event import Event
from ..kernel.process import Process
from ..kernel.simulator import Simulator
from .resolved import ResolvedSignal
from .signal import Signal


class Module:
    """Base class for all structural design units."""

    def __init__(self, parent: "Module | Simulator", name: str) -> None:
        self.name = name
        if isinstance(parent, Module):
            self.sim: Simulator = parent.sim
            self.path = f"{parent.path}.{name}"
            parent._children.append(self)
        elif isinstance(parent, Simulator):
            self.sim = parent
            self.path = name
            parent._add_top_module(self)
        else:
            raise ElaborationError(
                f"module parent must be a Module or Simulator, got {parent!r}"
            )
        self._children: list[Module] = []
        self._processes: list[Process] = []
        self.sim.register_named(self.path, self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path})"

    # -- declaration helpers ---------------------------------------------------

    def signal(
        self,
        name: str,
        width: int | None = None,
        init: object = None,
        single_writer: bool = False,
    ) -> Signal:
        """Declare a child signal with hierarchical name ``<path>.<name>``."""
        signal = Signal(
            self.sim, f"{self.path}.{name}", width, init, single_writer
        )
        self.sim.register_named(signal.name, signal)
        return signal

    def resolved_signal(self, name: str, width: int) -> ResolvedSignal:
        """Declare a child tri-state bus wire."""
        signal = ResolvedSignal(self.sim, f"{self.path}.{name}", width)
        self.sim.register_named(signal.name, signal)
        return signal

    def event(self, name: str) -> Event:
        return Event(self.sim.scheduler, f"{self.path}.{name}")

    def thread(
        self,
        func: typing.Callable[[], object],
        name: str | None = None,
        initialize: bool = True,
    ) -> Process:
        """Register a thread process (a generator method of this module)."""
        label = name or func.__name__.lstrip("_")
        process = Process(self.sim.scheduler, f"{self.path}.{label}", func)
        self.sim.scheduler.register_process(process, initialize=initialize)
        self._processes.append(process)
        return process

    # -- hierarchy --------------------------------------------------------------

    @property
    def children(self) -> tuple["Module", ...]:
        return tuple(self._children)

    def iter_modules(self) -> typing.Iterator["Module"]:
        """Depth-first iteration over this module and all descendants."""
        yield self
        for child in self._children:
            yield from child.iter_modules()

    # -- elaboration ---------------------------------------------------------------

    def _end_of_elaboration(self) -> None:
        self.end_of_elaboration()
        for child in self._children:
            child._end_of_elaboration()

    def end_of_elaboration(self) -> None:
        """Hook for subclasses; runs once after the hierarchy is final."""

