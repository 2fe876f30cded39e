"""Simulator facade.

:class:`Simulator` bundles the scheduler with the design registry,
elaboration and tracing hooks, and is the single object a model builder
passes around. The typical session::

    sim = Simulator()
    top = MySystem(sim, "top")
    sim.run(1 * US)
"""

from __future__ import annotations

import itertools
import typing

from ..errors import ElaborationError
from ..instrument.metrics import DetectionLog
from ..instrument.probes import DETECTION, SIGNAL_COMMIT, ProbeBus, default_bus
from .event import Event
from .process import Process
from .scheduler import Scheduler
from .simtime import format_time

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hdl.module import Module


class DetectionRecord:
    """One checker (bus monitor) firing, as seen by the simulator.

    The fault-injection classifier consumes these: a run during which any
    detection was recorded counts as *detected* even when the reporting
    checker was non-strict (i.e. did not raise).
    """

    __slots__ = ("source", "message", "time")

    def __init__(self, source: str, message: str, time: int) -> None:
        self.source = source
        self.message = message
        self.time = time

    def __repr__(self) -> str:
        return f"DetectionRecord({self.source}: {self.message})"


class BlockedProcess:
    """A process stuck on a guarded-method call when the run ended."""

    __slots__ = ("process_name", "client", "object_path", "method", "arrival_time")

    def __init__(
        self,
        process_name: str,
        client: str,
        object_path: str,
        method: str,
        arrival_time: int,
    ) -> None:
        self.process_name = process_name
        self.client = client
        self.object_path = object_path
        self.method = method
        self.arrival_time = arrival_time

    def __repr__(self) -> str:
        return (
            f"BlockedProcess({self.process_name} waiting on "
            f"{self.object_path}.{self.method} since {self.arrival_time})"
        )


class Simulator:
    """One simulation context: scheduler + design hierarchy + tracing.

    :param probe_bus: an optional :class:`~repro.instrument.ProbeBus` to
        attach at construction. When omitted, the process-wide default
        bus (:func:`repro.instrument.set_default_bus`) is attached if one
        is installed; otherwise no bus is attached and every probe site
        stays on its null fast path until :attr:`probes` is first used.
    """

    def __init__(
        self,
        max_deltas_per_timestep: int = 10_000,
        probe_bus: "ProbeBus | None" = None,
    ) -> None:
        self.scheduler = Scheduler(max_deltas_per_timestep)
        self._named: dict[str, object] = {}
        self._top_modules: list["Module"] = []
        self._tracers: list[typing.Any] = []
        self.elaborated = False
        self._detection_log = DetectionLog()
        #: Run-local id sources: ``transaction.begin``/``end`` payload ids
        #: (drawn only while a probe bus is attached) and guarded-call
        #: sequence numbers. A run's ids therefore do not depend on what
        #: its process simulated before.
        self.txn_ids = itertools.count(1)
        self.request_seqs = itertools.count()
        self._probes: ProbeBus | None = None
        bus = probe_bus if probe_bus is not None else default_bus()
        if bus is not None:
            self.attach_probe_bus(bus)

    # -- time / control -------------------------------------------------------

    @property
    def time(self) -> int:
        """Current simulation time in femtoseconds."""
        return self.scheduler.time

    @property
    def delta_count(self) -> int:
        return self.scheduler.delta_count

    def time_str(self) -> str:
        return format_time(self.scheduler.time)

    def run(self, duration: int | None = None) -> int:
        """Elaborate on first use, then run the scheduler."""
        if not self.elaborated:
            self.elaborate()
        return self.scheduler.run(duration)

    def stop(self) -> None:
        self.scheduler.stop()

    # -- construction helpers ---------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self.scheduler, name)

    def spawn(
        self,
        func: typing.Callable[[], object],
        name: str = "spawned",
        initialize: bool = True,
    ) -> Process:
        """Register a free-standing thread process (outside any module)."""
        return self.scheduler.spawn(func, name, initialize=initialize)

    # -- hierarchy --------------------------------------------------------------

    def _add_top_module(self, module: "Module") -> None:
        if self.elaborated:
            raise ElaborationError(
                f"cannot add module {module.name!r} after elaboration"
            )
        self._top_modules.append(module)

    @property
    def top_modules(self) -> tuple["Module", ...]:
        return tuple(self._top_modules)

    def register_named(self, path: str, obj: object) -> None:
        """Record *obj* under its full hierarchical *path*."""
        if path in self._named:
            raise ElaborationError(f"duplicate hierarchical name {path!r}")
        self._named[path] = obj

    def lookup(self, path: str) -> object:
        """Find a design object by full hierarchical name."""
        try:
            return self._named[path]
        except KeyError:
            raise ElaborationError(f"no design object named {path!r}") from None

    def iter_named(self) -> typing.Iterator[tuple[str, object]]:
        return iter(sorted(self._named.items()))

    def elaborate(self) -> None:
        """Finalise the hierarchy: run the end-of-elaboration hooks."""
        if self.elaborated:
            return
        self.elaborated = True
        for module in self._top_modules:
            module._end_of_elaboration()

    # -- instrumentation -----------------------------------------------------------

    @property
    def probes(self) -> ProbeBus:
        """This simulator's probe bus, created and attached on first use.

        Reading this property is the supported way to subscribe an
        observer; until it is read (and no bus was passed in or
        installed as default), the kernel's probe sites stay on their
        zero-cost null path.
        """
        if self._probes is None:
            self.attach_probe_bus(ProbeBus())
        assert self._probes is not None
        return self._probes

    def attach_probe_bus(self, bus: ProbeBus) -> ProbeBus:
        """Attach *bus* to this simulator and its scheduler."""
        self._probes = bus
        self.scheduler._probes = bus
        return bus

    # -- tracing ------------------------------------------------------------------

    def add_tracer(self, tracer: typing.Any) -> None:
        """Attach a tracer (e.g. a VCD writer); it is told of value changes.

        Internally this subscribes ``tracer.record_change`` to the
        ``signal.commit`` probe; adding the same tracer twice is a no-op.
        """
        if tracer in self._tracers:
            return
        self._tracers.append(tracer)
        self.probes.subscribe(SIGNAL_COMMIT, tracer.record_change)

    def _notify_trace(self, signal: typing.Any, value: typing.Any) -> None:
        """Publish an out-of-band value change (``force``, fault override).

        Ordinary commits emit the probe inline from the update phase;
        this shim exists for code that bypasses the staging machinery.
        """
        probes = self._probes
        if probes is not None:
            probes.signal_commit(self.scheduler.time, signal, value)

    # -- detection plumbing ------------------------------------------------------

    @property
    def detections(self) -> list[DetectionRecord]:
        """Checker (bus monitor) firings, in reporting order.

        A thin view over this simulator's detection log; external
        consumers (e.g. the fault classifier) subscribe to the
        ``detection`` probe instead of scraping this list.
        """
        return self._detection_log.records

    def report_detection(self, source: str, message: str) -> None:
        """Record that a runtime checker fired.

        Called by the bus monitors on every violation (strict or not),
        so the fault-injection classifier can tell *detected*
        misbehaviour apart from silent corruption without depending on
        exception propagation. The
        record lands in this simulator's own log and, when a probe bus
        is attached, is published as a ``detection`` probe.
        """
        record = DetectionRecord(source, message, self.scheduler.time)
        self._detection_log.append(record)
        probes = self._probes
        if probes is not None:
            probes.emit(DETECTION, record)

    # -- convenience ---------------------------------------------------------------

    def blocked_processes(self) -> list[BlockedProcess]:
        """Processes currently stuck on guarded-method calls.

        A call is *blocked* when its request is still pending in some
        shared state space: either the guard is false, or arbitration
        never granted it. The caller process is resolved through the
        request's completion event; when the caller cannot be identified
        (e.g. a timed-out and cancelled call) the request's client id is
        still reported.
        """
        blocked: list[BlockedProcess] = []
        seen_spaces: set[int] = set()
        for __, obj in self.iter_named():
            space = getattr(obj, "_space", None)
            if space is None or id(space) in seen_spaces:
                continue
            seen_spaces.add(id(space))
            for request in getattr(space, "pending", []):
                waiter = None
                for process in self.scheduler.processes:
                    if process.is_waiting_on(request.done_event):
                        waiter = process
                        break
                blocked.append(
                    BlockedProcess(
                        waiter.name if waiter is not None else request.client,
                        request.client,
                        space.name,
                        request.method,
                        request.arrival_time,
                    )
                )
        return blocked
