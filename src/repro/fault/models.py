"""Fault models: kernel-level interceptors that perturb a running design.

Each model targets one design object by hierarchical path and corrupts
its behaviour inside a time window ``[start, end)``. The injection is a
*kernel-level* interceptor — the signal's update hook or the shared
state space's submit/descriptor hooks are wrapped on the instance — so
application and interface models need zero changes to be testable under
fault.

The models mirror the classic hardware fault taxonomy:

* :class:`StuckAtFault` / :class:`BitFlipFault` /
  :class:`TransientGlitchFault` — pin-level faults on
  :class:`~repro.hdl.signal.Signal` and
  :class:`~repro.hdl.resolved.ResolvedSignal` wires;
* :class:`DelayedGrantFault` / :class:`DroppedRequestFault` — scheduling
  faults on OSSS arbiters and guarded methods (the channel stops
  granting, or silently loses a request);
* :class:`CommandCorruptionFault` — transaction-layer corruption of the
  command stream flowing into the PCI / Wishbone interface channel.

A faulty run is the fault-free run until its fault first activates. So
next to its :meth:`~FaultModel.arm`, every model has a
:meth:`~FaultModel.record` that logs, on a fault-free run and at the
same seam ``arm`` patches, what its activation depends on, and a
:meth:`~FaultModel.first_activation` that reads that
:class:`Trajectory` back. A run whose fault provably never activates
needs no simulation: it *is* the fault-free run.
"""

from __future__ import annotations

import bisect
import typing

from ..errors import ReproError
from ..hdl.bitvector import LogicVector
from ..hdl.resolved import ResolvedSignal
from ..hdl.signal import Signal
from ..instrument.probes import FAULT_ACTIVATE, METHOD_GUARD_BLOCK
from ..kernel.event import Event
from ..kernel.simulator import Simulator
from ..osss.global_object import GlobalObject
from ..osss.guarded_method import GuardedMethodDescriptor


class FaultInjectionError(ReproError):
    """A fault model could not be built or armed."""


#: Target categories a fault kind can attach to.
SIGNAL_TARGET = "signal"
CHANNEL_TARGET = "channel"


class Trajectory:
    """What a fault-free run did at the seams the fault models patch.

    The golden run records it for every ``(kind, target path)`` its
    campaign's fault lines match; :meth:`FaultModel.first_activation`
    reads it. Every time is in femtoseconds and every list ascends.
    """

    def __init__(self) -> None:
        #: The ``(kind, target path)`` pairs recorded.
        self.targets: set[tuple[str, str]] = set()
        #: signal path -> distinct times a flippable value committed.
        self.commits: dict[str, list[int]] = {}
        #: channel path -> ``(time, method, command)`` per submitted
        #: call; ``command`` is a ``put_command``'s argument, else None.
        self.submits: dict[str, list[tuple]] = {}
        #: channel path -> distinct times a guarded method was resolved
        #: (``space.descriptor``), by a caller or the channel's server.
        self.lookups: dict[str, list[int]] = {}
        #: channel path -> whether an observer counts the server's
        #: waits with calls pending (``method.guard_block`` probes).
        self.guard_blocks_observed: dict[str, bool] = {}


def record_trajectory(
    sim: Simulator, targets: typing.Iterable[tuple[str, str]]
) -> Trajectory:
    """Install the recorders of every ``(kind, path)`` in *targets* on a
    built, fault-free *sim*; the caller runs it."""
    trajectory = Trajectory()
    for kind, path in sorted(targets):
        FAULT_KINDS[kind].record(sim, path, trajectory)
        trajectory.targets.add((kind, path))
    return trajectory


def _distinct_time(times: list[int], now: int) -> None:
    if not times or times[-1] != now:
        times.append(now)


class FaultModel:
    """Base class: one fault on one target, active in one time window.

    :param target_path: hierarchical name of the design object.
    :param window: ``(start, end)`` femtoseconds; ``None`` means always
        active.
    """

    kind: str = "base"
    target_kind: str = SIGNAL_TARGET

    def __init__(
        self,
        target_path: str,
        window: "tuple[int, int] | None" = None,
    ) -> None:
        if window is not None and window[1] < window[0]:
            raise FaultInjectionError(
                f"bad fault window {window!r}: end before start"
            )
        self.target_path = target_path
        self.window = window
        #: How many times the fault actually perturbed the design.
        self.activations = 0
        self._sim: Simulator | None = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.target_path}, window={self.window})"

    def describe(self) -> str:
        window = "always" if self.window is None else \
            f"[{self.window[0]}, {self.window[1]})"
        return f"{self.kind} on {self.target_path} {window}"

    # -- helpers ------------------------------------------------------------

    def _record_activation(self) -> None:
        """Count one perturbation and publish it as a ``fault.activate``
        probe when the target simulator carries a bus."""
        self.activations += 1
        sim = self._sim
        if sim is not None:
            probes = sim._probes
            if probes is not None:
                probes.emit(FAULT_ACTIVATE, sim.time, self)

    def _covers(self, time: int) -> bool:
        """Whether the window ``[start, end)`` holds *time*; no window
        holds every time."""
        return self.window is None or self.window[0] <= time < self.window[1]

    def _in_window(self) -> bool:
        assert self._sim is not None
        return self._covers(self._sim.time)

    def _first_in_window(self, times: typing.Sequence[int]) -> int | None:
        """The first of the ascending *times* inside the window."""
        start = 0 if self.window is None else self.window[0]
        index = bisect.bisect_left(times, start)
        if index < len(times) and self._covers(times[index]):
            return times[index]
        return None

    def _at(self, time: int, action: typing.Callable[[], None]) -> None:
        """Schedule *action* at absolute simulation *time* (or now)."""
        assert self._sim is not None
        scheduler = self._sim.scheduler
        event = Event(scheduler, f"fault.{self.kind}.{self.target_path}")
        event.add_callback(action)
        event.notify_after(max(0, time - scheduler.time))

    def _resolve(self, sim: Simulator, expected: type | tuple) -> object:
        target = sim.lookup(self.target_path)
        if not isinstance(target, expected):
            raise FaultInjectionError(
                f"fault {self.kind!r} cannot target "
                f"{type(target).__name__} {self.target_path!r}"
            )
        return target

    # -- interface ------------------------------------------------------------

    def arm(self, sim: Simulator) -> None:
        """Install the interceptor; must be called before the run."""
        raise NotImplementedError

    @classmethod
    def record(
        cls, sim: Simulator, target_path: str, trajectory: Trajectory
    ) -> None:
        """On a fault-free *sim*, log what this kind's activation on
        *target_path* depends on into *trajectory*. Faults that strike
        at a fixed time need only the horizon, so the default logs
        nothing."""

    def first_activation(
        self, trajectory: Trajectory, horizon: int
    ) -> int | None:
        """The earliest time this fault, armed on the run *trajectory*
        was recorded from (which ended at *horizon*), can change what
        the run's observers see; None when it provably never does."""
        raise NotImplementedError


# -- pin-level signal faults ---------------------------------------------------


def _override_value(signal: "Signal | ResolvedSignal", value: object) -> None:
    """Set a committed value out of band, firing edges and tracers (a
    resolved rail has no edge events)."""
    if isinstance(signal, Signal):
        signal.force(value)
        return
    # ResolvedSignal has no force(): commit directly, as its update would.
    if not isinstance(value, LogicVector):
        value = LogicVector(signal.width, value)
    if value == signal._value:
        return
    signal._value = value
    signal._sim._notify_trace(signal, value)


class SignalFault(FaultModel):
    """Common machinery for faults on signal commits."""

    target_kind = SIGNAL_TARGET

    def _hook_update(
        self,
        signal: "Signal | ResolvedSignal",
        wrapper_factory: typing.Callable[[typing.Callable[[], None]],
                                         typing.Callable[[], None]],
    ) -> None:
        original = signal._perform_update
        signal._perform_update = wrapper_factory(original)  # type: ignore[method-assign]


class StuckAtFault(SignalFault):
    """The wire holds a constant value for the whole window.

    :param value: the stuck level (int, coerced to the signal width).
    """

    kind = "stuck_at"

    def __init__(
        self,
        target_path: str,
        window: "tuple[int, int] | None" = None,
        value: int = 0,
    ) -> None:
        super().__init__(target_path, window)
        self.value = value

    def arm(self, sim: Simulator) -> None:
        self._sim = sim
        signal = typing.cast(
            "Signal | ResolvedSignal",
            self._resolve(sim, (Signal, ResolvedSignal)),
        )
        stuck: object = self.value
        if signal.width is not None:
            stuck = LogicVector(signal.width, self.value)

        def wrapper(original: typing.Callable[[], None]):
            def patched() -> None:
                if not self._in_window():
                    original()
                    return
                # Hold the line: drop the staged/resolved commit entirely.
                if isinstance(signal, Signal):
                    signal._has_next = False
                    signal._delta_writer = None
                self._record_activation()
                _override_value(signal, stuck)
            return patched

        self._hook_update(signal, wrapper)

        def clamp() -> None:
            self._record_activation()
            _override_value(signal, stuck)

        def release() -> None:
            # Re-resolve / leave the stuck value for plain signals (a
            # stuck-at that heals keeps its last level until redriven).
            signal._request_update()

        start = 0 if self.window is None else self.window[0]
        self._at(start, clamp)
        if self.window is not None:
            self._at(self.window[1], release)

    def first_activation(
        self, trajectory: Trajectory, horizon: int
    ) -> int | None:
        # The clamp fires at window start whenever the run gets there:
        # a run that stops at its horizon still triggers the timed
        # events due at that time. The release comes later still.
        start = 0 if self.window is None else self.window[0]
        return start if start <= horizon else None


class BitFlipFault(SignalFault):
    """One bit of the first commit inside the window is inverted."""

    kind = "bit_flip"

    def __init__(
        self,
        target_path: str,
        window: "tuple[int, int] | None" = None,
        bit: int = 0,
    ) -> None:
        super().__init__(target_path, window)
        self.bit = bit

    @staticmethod
    def _flippable(value: object) -> bool:
        if isinstance(value, LogicVector):
            return value.is_fully_defined
        return isinstance(value, int)  # bool included

    def _flip(self, value: object, width: int | None) -> object | None:
        """Corrupted copy of *value*, or ``None`` when it cannot flip."""
        if not self._flippable(value):
            return None
        if isinstance(value, LogicVector):
            width = value.width
            return LogicVector(width, value.to_int() ^ (1 << (self.bit % width)))
        if isinstance(value, bool):
            return not value
        return value ^ (1 << self.bit)

    def arm(self, sim: Simulator) -> None:
        self._sim = sim
        signal = typing.cast(
            "Signal | ResolvedSignal",
            self._resolve(sim, (Signal, ResolvedSignal)),
        )

        def wrapper(original: typing.Callable[[], None]):
            def patched() -> None:
                original()
                if self.activations or not self._in_window():
                    return
                flipped = self._flip(signal.read(), signal.width)
                if flipped is None:
                    return
                self._record_activation()
                _override_value(signal, flipped)
            return patched

        self._hook_update(signal, wrapper)

    @classmethod
    def record(
        cls, sim: Simulator, target_path: str, trajectory: Trajectory
    ) -> None:
        signal = typing.cast(
            "Signal | ResolvedSignal", sim.lookup(target_path)
        )
        times = trajectory.commits[target_path] = []
        original = signal._perform_update

        def recorded() -> None:
            original()
            if cls._flippable(signal.read()):
                _distinct_time(times, sim.time)

        signal._perform_update = recorded  # type: ignore[method-assign]

    def first_activation(
        self, trajectory: Trajectory, horizon: int
    ) -> int | None:
        return self._first_in_window(trajectory.commits[self.target_path])


class TransientGlitchFault(SignalFault):
    """The wire is forced to a value for a short duration, then restored.

    :param value: the glitch level.
    :param duration: femtoseconds the glitch lasts (defaults to the
        whole window).
    """

    kind = "glitch"

    def __init__(
        self,
        target_path: str,
        window: "tuple[int, int] | None" = None,
        value: int = 1,
        duration: "int | None" = None,
    ) -> None:
        if window is None:
            raise FaultInjectionError("a glitch fault needs a time window")
        super().__init__(target_path, window)
        self.value = value
        self.duration = (
            duration if duration is not None else window[1] - window[0]
        )

    def arm(self, sim: Simulator) -> None:
        self._sim = sim
        signal = typing.cast(
            "Signal | ResolvedSignal",
            self._resolve(sim, (Signal, ResolvedSignal)),
        )
        glitch: object = self.value
        if signal.width is not None:
            glitch = LogicVector(signal.width, self.value)
        saved: dict[str, object] = {}

        def strike() -> None:
            saved["value"] = signal.read()
            self._record_activation()
            _override_value(signal, glitch)

        def restore() -> None:
            if isinstance(signal, ResolvedSignal):
                signal._request_update()  # re-resolve from live drivers
            elif "value" in saved:
                _override_value(signal, saved["value"])

        assert self.window is not None
        self._at(self.window[0], strike)
        self._at(self.window[0] + self.duration, restore)

    def first_activation(
        self, trajectory: Trajectory, horizon: int
    ) -> int | None:
        # Strike and restore are timed events, due whenever the run gets
        # there; a negative duration would restore before the strike.
        assert self.window is not None
        first = min(self.window[0], self.window[0] + self.duration)
        return first if first <= horizon else None


# -- guarded-method / arbitration faults ---------------------------------------


class _StalledDescriptor:
    """A guarded-method view whose guard never opens (grant withheld)."""

    def __init__(self, wrapped: GuardedMethodDescriptor) -> None:
        self._wrapped = wrapped
        self.func = wrapped.func
        self.guard = wrapped.guard
        self.__name__ = wrapped.__name__

    def guard_true(self, state: object) -> bool:
        return False

    def invoke(self, state: object, *args: object, **kwargs: object) -> object:
        return self._wrapped.invoke(state, *args, **kwargs)


def _command_of(request) -> object:
    """The command a ``put_command`` call submits; None for any other."""
    if request.method == "put_command" and request.args:
        return request.args[0]
    return None


class ChannelFault(FaultModel):
    """Common machinery for faults on a shared state space."""

    target_kind = CHANNEL_TARGET

    def _space(self, sim: Simulator):
        handle = typing.cast(
            GlobalObject, self._resolve(sim, GlobalObject)
        )
        return handle._root().space

    @classmethod
    def record(
        cls, sim: Simulator, target_path: str, trajectory: Trajectory
    ) -> None:
        # Request faults act on submitted calls (delayed_grant overrides
        # this); dropped_request and command_corruption share the seam,
        # so a target is recorded once.
        if target_path in trajectory.submits:
            return
        space = typing.cast(GlobalObject, sim.lookup(target_path))._root().space
        calls = trajectory.submits[target_path] = []
        original = space.submit

        def recorded(request) -> None:
            calls.append((sim.time, request.method, _command_of(request)))
            original(request)

        space.submit = recorded  # type: ignore[method-assign]

    def _submits_in_window(
        self, trajectory: Trajectory
    ) -> typing.Iterator[tuple]:
        return (
            call for call in trajectory.submits[self.target_path]
            if self._covers(call[0])
        )


class DelayedGrantFault(ChannelFault):
    """The channel's arbiter withholds every grant during the window.

    Callers queue up; when the window closes the backlog drains. A
    window that outlives the run turns the delay into a deadlock, which
    the run watchdog reports through ``blocked_processes``.
    """

    kind = "delayed_grant"

    def arm(self, sim: Simulator) -> None:
        self._sim = sim
        space = self._space(sim)
        original = space.descriptor

        def patched(method: str):
            descriptor = original(method)
            if self._in_window():
                self._record_activation()
                return _StalledDescriptor(descriptor)
            return descriptor

        space.descriptor = patched  # type: ignore[method-assign]
        if self.window is not None:
            # Wake the server when the window closes so the backlog drains.
            self._at(self.window[1], space.touch)

    @classmethod
    def record(
        cls, sim: Simulator, target_path: str, trajectory: Trajectory
    ) -> None:
        space = typing.cast(GlobalObject, sim.lookup(target_path))._root().space
        lookups = trajectory.lookups[target_path] = []
        original = space.descriptor

        def recorded(method: str):
            _distinct_time(lookups, sim.time)
            return original(method)

        space.descriptor = recorded  # type: ignore[method-assign]
        probes = sim._probes
        trajectory.guard_blocks_observed[target_path] = (
            probes is not None and probes.wants(METHOD_GUARD_BLOCK)
        )

    def first_activation(
        self, trajectory: Trajectory, horizon: int
    ) -> int | None:
        first = self._first_in_window(trajectory.lookups[self.target_path])
        if first is not None or self.window is None:
            return first
        # The window-end touch still fires. With no backlog it changes
        # nothing, unless the server is waiting with calls pending: then
        # it re-checks their guards and emits one more guard-block
        # probe. So when an observer counts those, the run simulates.
        end = self.window[1]
        observed = trajectory.guard_blocks_observed[self.target_path]
        return end if observed and end <= horizon else None


class DroppedRequestFault(ChannelFault):
    """Requests vanish: completed towards the caller, never executed.

    :param method: only drop calls to this guarded method (``None``
        drops any).
    :param max_drops: stop dropping after this many requests.
    """

    kind = "dropped_request"

    def __init__(
        self,
        target_path: str,
        window: "tuple[int, int] | None" = None,
        method: str | None = None,
        max_drops: int = 1,
    ) -> None:
        super().__init__(target_path, window)
        self.method = method
        self.max_drops = max_drops

    def arm(self, sim: Simulator) -> None:
        self._sim = sim
        space = self._space(sim)
        original = space.submit

        def patched(request) -> None:
            drop = self._selects(request.method, self.activations)
            if drop and self._in_window():
                self._record_activation()
                request.result = None
                request.completed = True
                request.complete_time = sim.time
                request.done_event.notify_delta()
                return
            original(request)

        space.submit = patched  # type: ignore[method-assign]

    def _selects(self, method: str, drops: int) -> bool:
        """Whether this fault, having dropped *drops* calls, drops a
        call to *method* submitted inside its window."""
        return drops < self.max_drops and (
            self.method is None or method == self.method
        )

    def first_activation(
        self, trajectory: Trajectory, horizon: int
    ) -> int | None:
        for time, method, __ in self._submits_in_window(trajectory):
            if self._selects(method, 0):
                return time
        return None


class CommandCorruptionFault(ChannelFault):
    """Transaction-layer corruption of commands entering the channel.

    Intercepts ``put_command`` submissions and XORs the command's
    address or first data word with a mask — the bus-level effect of a
    corrupted request path between application and interface element.

    :param field: ``"address"`` or ``"data"``.
    :param mask: XOR mask (addresses stay word-aligned: the low two bits
        of the mask are cleared).
    :param max_corruptions: stop corrupting after this many commands.
    """

    kind = "command_corruption"

    def __init__(
        self,
        target_path: str,
        window: "tuple[int, int] | None" = None,
        field: str = "data",
        mask: int = 1,
        max_corruptions: int = 1,
    ) -> None:
        super().__init__(target_path, window)
        if field not in ("address", "data"):
            raise FaultInjectionError(f"unknown corruption field {field!r}")
        self.field = field
        self.mask = mask
        self.max_corruptions = max_corruptions

    def _corrupt(self, command):
        from ..core.command import CommandType

        if self.field == "address":
            address = (command.address ^ (self.mask & ~0x3)) & 0xFFFF_FFFC
            data = list(command.data)
        else:
            if command.is_write:
                data = list(command.data)
                data[0] = (data[0] ^ self.mask) & 0xFFFF_FFFF
            else:
                return None  # reads carry no data to corrupt
            address = command.address
        if address == command.address and data == command.data:
            return None
        return CommandType(
            command.kind,
            address,
            data=data if command.is_write else None,
            count=command.count if command.is_read else 1,
            byte_enables=command.byte_enables,
        )

    def arm(self, sim: Simulator) -> None:
        self._sim = sim
        space = self._space(sim)
        original = space.submit

        def patched(request) -> None:
            if self._in_window():
                corrupted = self._corruption(
                    _command_of(request), self.activations
                )
                if corrupted is not None:
                    self._record_activation()
                    request.args = (corrupted,) + tuple(request.args[1:])
            original(request)

        space.submit = patched  # type: ignore[method-assign]

    def _corruption(self, command, corrupted: int):
        """The command this fault, having corrupted *corrupted*
        commands, submits in place of *command* inside its window (None
        stands for a call that is not a ``put_command``); None when it
        lets the call through."""
        if command is None or corrupted >= self.max_corruptions:
            return None
        return self._corrupt(command)

    def first_activation(
        self, trajectory: Trajectory, horizon: int
    ) -> int | None:
        for time, __, command in self._submits_in_window(trajectory):
            if self._corruption(command, 0) is not None:
                return time
        return None


#: Registry: fault kind tag -> model class.
FAULT_KINDS: dict[str, type[FaultModel]] = {
    cls.kind: cls
    for cls in (
        StuckAtFault,
        BitFlipFault,
        TransientGlitchFault,
        DelayedGrantFault,
        DroppedRequestFault,
        CommandCorruptionFault,
    )
}


def make_fault(
    kind: str,
    target_path: str,
    window: "tuple[int, int] | None" = None,
    **params: typing.Any,
) -> FaultModel:
    """Build a fault model from its registry tag."""
    try:
        cls = FAULT_KINDS[kind]
    except KeyError:
        raise FaultInjectionError(
            f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}"
        ) from None
    return cls(target_path, window, **params)
