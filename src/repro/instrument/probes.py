"""The probe bus: typed publish/subscribe points over a running kernel.

This module is deliberately dependency-free (it imports nothing from the
rest of the package but the exception hierarchy) so the kernel can
import it without cycles. The payloads flowing over the bus are live
kernel objects — processes, signals, requests — never copies;
subscribers must treat them as read-only.

Probe-point catalogue (positional callback signatures):

===================== =========================================================
kind                  callback arguments
===================== =========================================================
``process.activate``  ``(time, process, cause)`` — a process starts one
                      activation; ``cause`` is the :class:`Event` that
                      woke it (``None`` for the initial activation)
``process.suspend``   ``(time, process)`` — the activation returned / waited
``delta.begin``       ``(time, delta_index)`` — a delta cycle starts
``delta.end``         ``(time, delta_index)`` — the delta cycle finished
``event.notify``      ``(time, event, cause)`` — an event triggered its
                      waiters; ``cause`` is the :class:`Process` that
                      requested the notification (``None`` when notified
                      from outside any process context)
``signal.commit``     ``(time, signal, value)`` — a committed value change
``method.call``       ``(time, space, request)`` — guarded call submitted
``method.queue``      ``(time, space, request)`` — the call could not be
                      served immediately (busy server, queue ahead, or a
                      false guard)
``method.grant``      ``(time, space, request)`` — arbiter granted the call
``method.guard_block`` ``(time, space, requests)`` — pending calls exist but
                      no guard is true; the server blocks
``method.complete``   ``(time, space, request)`` — the method body returned
``transaction.begin`` ``(time, source, payload)`` — a bus/TLM transaction
                      opened (``source`` is a hierarchical path string;
                      the payload carries a ``txn_id`` drawn from its
                      simulator's ``txn_ids`` counter, unique within the
                      run; emitters draw it only while a probe bus is
                      attached, and publish the same payload object at
                      begin and end)
``transaction.end``   ``(time, source, payload)`` — the transaction closed
``flow.stage``        ``(name, status, wall_seconds)`` — a design-flow stage
                      finished (wall-clock, not simulation time)
``fault.activate``    ``(time, fault)`` — an armed fault model perturbed the
                      design
``detection``         ``(record,)`` — a runtime checker fired (a
                      :class:`~repro.kernel.simulator.DetectionRecord`)
``resilience.timeout`` ``(event,)`` — a guarded call or protocol operation
                      blew its deadline (a :class:`ResilienceEvent`)
``resilience.retry``  ``(event,)`` — a recovery layer re-issued the work
``resilience.giveup`` ``(event,)`` — recovery exhausted its attempt budget
``resilience.recovered`` ``(event,)`` — a previously failed call/operation
                      completed after one or more recovery attempts
===================== =========================================================

The first six kinds are the kernel's own (:data:`KERNEL_KINDS`). Their
hot sites (signal commits, event triggers, process wakes, the delta
loop) each check their own kind's subscriber tuple on the attached bus,
so a bus whose subscribers all listen to cold kinds (detections, method
calls, transactions) leaves the kernel on its uninstrumented paths;
subscribing or unsubscribing a kernel kind takes effect from the next
delta. Cold paths use the generic :meth:`ProbeBus.emit`. Either way, a
kind with no subscribers costs one ``None`` check on an instance
attribute of the bus.
"""

from __future__ import annotations

import typing

from ..errors import ReproError

PROCESS_ACTIVATE = "process.activate"
PROCESS_SUSPEND = "process.suspend"
DELTA_BEGIN = "delta.begin"
DELTA_END = "delta.end"
EVENT_NOTIFY = "event.notify"
SIGNAL_COMMIT = "signal.commit"
METHOD_CALL = "method.call"
METHOD_QUEUE = "method.queue"
METHOD_GRANT = "method.grant"
METHOD_GUARD_BLOCK = "method.guard_block"
METHOD_COMPLETE = "method.complete"
TRANSACTION_BEGIN = "transaction.begin"
TRANSACTION_END = "transaction.end"
FLOW_STAGE = "flow.stage"
FAULT_ACTIVATE = "fault.activate"
DETECTION = "detection"
RESILIENCE_TIMEOUT = "resilience.timeout"
RESILIENCE_RETRY = "resilience.retry"
RESILIENCE_GIVEUP = "resilience.giveup"
RESILIENCE_RECOVERED = "resilience.recovered"

#: Every probe kind the bus understands, in catalogue order.
PROBE_KINDS: tuple[str, ...] = (
    PROCESS_ACTIVATE,
    PROCESS_SUSPEND,
    DELTA_BEGIN,
    DELTA_END,
    EVENT_NOTIFY,
    SIGNAL_COMMIT,
    METHOD_CALL,
    METHOD_QUEUE,
    METHOD_GRANT,
    METHOD_GUARD_BLOCK,
    METHOD_COMPLETE,
    TRANSACTION_BEGIN,
    TRANSACTION_END,
    FLOW_STAGE,
    FAULT_ACTIVATE,
    DETECTION,
    RESILIENCE_TIMEOUT,
    RESILIENCE_RETRY,
    RESILIENCE_GIVEUP,
    RESILIENCE_RECOVERED,
)

#: The kinds the kernel publishes from its hot paths. While none of them
#: has a subscriber, a lone clock edge may run inline (no process
#: activation, no timer event trigger).
KERNEL_KINDS: tuple[str, ...] = (
    PROCESS_ACTIVATE,
    PROCESS_SUSPEND,
    DELTA_BEGIN,
    DELTA_END,
    EVENT_NOTIFY,
    SIGNAL_COMMIT,
)
#: The kernel kinds served by the scheduler's instrumented evaluation loop.
_EVALUATION_KINDS = (PROCESS_ACTIVATE, PROCESS_SUSPEND, DELTA_BEGIN, DELTA_END)

#: kind -> name of the per-kind subscriber-tuple attribute on ProbeBus.
_KIND_ATTR: dict[str, str] = {
    kind: "_" + kind.replace(".", "_") for kind in PROBE_KINDS
}

Callback = typing.Callable[..., None]

def txn_key(source: str, payload: object) -> tuple[str, object, int]:
    """The key pairing a ``transaction.begin`` with its ``transaction.end``.

    Emitters publish one payload object at both probes and hold it until
    the end, so its identity keeps apart the open transactions of
    simulators that share a bus (each counts its ``txn_id``s from 1).
    The ``txn_id`` keeps a run's keys distinct after a closed payload's
    address is reused.
    """
    return (source, getattr(payload, "txn_id", None), id(payload))


class ProbeError(ReproError, ValueError):
    """An unknown probe kind was used, or a subscriber attached twice."""


class ResilienceEvent:
    """Payload of the four ``resilience.*`` probe kinds.

    Lives here (rather than in :mod:`repro.resilience`) so low-level
    emitters — the OSSS call machinery, the bus-interface dispatchers —
    can publish recovery activity without importing the resilience
    package.

    :param kind: one of the ``resilience.*`` probe kind strings.
    :param time: simulation time (fs) of the event.
    :param path: hierarchical path of the recovering entity (a channel
        handle or a bus interface).
    :param method: guarded-method name, or an operation tag like
        ``"mem_write"`` for protocol-level replay.
    :param attempt: 1-based attempt number the event belongs to.
    :param detail: free-form cause ("guard timeout", "master_abort",
        "parity", ...).
    """

    __slots__ = ("kind", "time", "path", "method", "attempt", "detail")

    def __init__(
        self,
        kind: str,
        time: int,
        path: str,
        method: str,
        attempt: int = 1,
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.time = time
        self.path = path
        self.method = method
        self.attempt = attempt
        self.detail = detail

    def __repr__(self) -> str:
        return (
            f"ResilienceEvent({self.kind} {self.path}.{self.method} "
            f"attempt={self.attempt}{' ' + self.detail if self.detail else ''})"
        )


def emit_resilience(
    sim: typing.Any,
    kind: str,
    path: str,
    method: str,
    attempt: int = 1,
    detail: str = "",
) -> None:
    """Publish one ``resilience.*`` event over *sim*'s probe bus (if any).

    *sim* is duck-typed (``_probes`` + ``time``) to keep this module
    import-free; emitters across the OSSS and protocol layers share this
    one helper so payload construction stays behind the null-bus check.
    """
    probes = sim._probes
    if probes is not None:
        probes.emit(
            kind,
            ResilienceEvent(kind, sim.time, path, method, attempt, detail),
        )


class ProbeBus:
    """One instrumentation plane: per-kind subscriber lists.

    Subscribers for each kind are kept as an instance attribute that is
    either ``None`` (no subscribers — the value hot paths test) or an
    immutable tuple of callbacks. Emission iterates over the tuple that
    was current when the probe fired, so a callback may subscribe or
    unsubscribe anything (including itself) mid-emission without
    corrupting the iteration.

    Two flags summarise the kernel kinds for the scheduler:
    ``_evaluation_observed`` (a process or delta kind has a subscriber,
    so the evaluation loop runs instrumented) and ``_kernel_observed``
    (any kernel kind has one, so every clock edge takes the process
    path).
    """

    def __init__(self) -> None:
        self._subscribers: dict[str, list[Callback]] = {
            kind: [] for kind in PROBE_KINDS
        }
        for attr in _KIND_ATTR.values():
            setattr(self, attr, None)
        self._evaluation_observed = False
        self._kernel_observed = False

    def __repr__(self) -> str:
        active = {
            kind: len(subs)
            for kind, subs in self._subscribers.items()
            if subs
        }
        return f"ProbeBus({active or 'idle'})"

    # -- subscription ------------------------------------------------------

    def _check_kind(self, kind: str) -> None:
        if kind not in self._subscribers:
            raise ProbeError(
                f"unknown probe kind {kind!r}; known: {sorted(self._subscribers)}"
            )

    def _refresh(self, kind: str) -> None:
        subs = self._subscribers[kind]
        setattr(self, _KIND_ATTR[kind], tuple(subs) if subs else None)
        if kind in KERNEL_KINDS:
            self._evaluation_observed = any(
                self._subscribers[k] for k in _EVALUATION_KINDS
            )
            self._kernel_observed = any(
                self._subscribers[k] for k in KERNEL_KINDS
            )

    def subscribe(self, kind: str, callback: Callback) -> Callback:
        """Register *callback* for *kind*; returns the callback (token)."""
        self._check_kind(kind)
        self._subscribers[kind].append(callback)
        self._refresh(kind)
        return callback

    def unsubscribe(self, kind: str, callback: Callback) -> None:
        """Remove *callback* from *kind*; idempotent (never raises when
        the callback was not subscribed)."""
        self._check_kind(kind)
        subs = self._subscribers[kind]
        try:
            subs.remove(callback)
        except ValueError:
            return
        self._refresh(kind)

    def subscribers(self, kind: str) -> tuple[Callback, ...]:
        self._check_kind(kind)
        return tuple(self._subscribers[kind])

    def wants(self, kind: str) -> bool:
        """True when at least one subscriber listens to *kind*."""
        self._check_kind(kind)
        return bool(self._subscribers[kind])

    def clear(self) -> None:
        """Drop every subscription."""
        for kind in self._subscribers:
            self._subscribers[kind] = []
            self._refresh(kind)

    # -- emission ------------------------------------------------------------

    def emit(self, kind: str, *args: object) -> None:
        """Generic emission (cold paths); unknown kinds raise."""
        subs = getattr(self, _KIND_ATTR[kind])
        if subs is not None:
            for callback in subs:
                callback(*args)

    # Dedicated helpers for the kernel's hot paths: one attribute load
    # and a None check when the kind is unsubscribed.

    def process_activate(
        self, time: int, process: object, cause: object = None
    ) -> None:
        subs = self._process_activate
        if subs is not None:
            for callback in subs:
                callback(time, process, cause)

    def process_suspend(self, time: int, process: object) -> None:
        subs = self._process_suspend
        if subs is not None:
            for callback in subs:
                callback(time, process)

    def delta_begin(self, time: int, delta_index: int) -> None:
        subs = self._delta_begin
        if subs is not None:
            for callback in subs:
                callback(time, delta_index)

    def delta_end(self, time: int, delta_index: int) -> None:
        subs = self._delta_end
        if subs is not None:
            for callback in subs:
                callback(time, delta_index)

    def event_notify(
        self, time: int, event: object, cause: object = None
    ) -> None:
        subs = self._event_notify
        if subs is not None:
            for callback in subs:
                callback(time, event, cause)

    def signal_commit(self, time: int, signal: object, value: object) -> None:
        subs = self._signal_commit
        if subs is not None:
            for callback in subs:
                callback(time, signal, value)


_Subscriber = typing.TypeVar("_Subscriber", bound="ProbeSubscriber")


class ProbeSubscriber:
    """The one attach/detach contract of every probe-bus observer.

    A subclass yields its ``(kind, callback)`` pairs from
    :meth:`_subscriptions`; each kind's callbacks fire in the order they
    are yielded. :meth:`attach` subscribes them to one bus and keeps
    them, so :meth:`detach` removes exactly what was subscribed.
    """

    _bus: ProbeBus | None = None
    _subscribed: tuple[tuple[str, Callback], ...] = ()

    def _subscriptions(self) -> typing.Iterable[tuple[str, Callback]]:
        raise NotImplementedError

    def attach(self: _Subscriber, bus: ProbeBus) -> _Subscriber:
        """Subscribe to *bus*; returns ``self`` so construction chains.

        :raises ProbeError: when already attached (a second attach would
            deliver every probe twice) or a kind is unknown; the bus is
            left unchanged.
        """
        if self._bus is not None:
            raise ProbeError(
                f"{type(self).__name__} is already attached to a bus; "
                f"detach() it first"
            )
        pairs = tuple(self._subscriptions())
        for kind, __ in pairs:
            bus._check_kind(kind)
        for kind, callback in pairs:
            bus.subscribe(kind, callback)
        self._bus = bus
        self._subscribed = pairs
        return self

    def detach(self) -> None:
        """Unsubscribe from the attached bus; a no-op when detached."""
        bus = self._bus
        if bus is None:
            return
        for kind, callback in self._subscribed:
            bus.unsubscribe(kind, callback)
        self._bus = None
        self._subscribed = ()


# -- process-wide default bus ---------------------------------------------------

#: When set, every subsequently created Simulator attaches to this bus —
#: how ``python -m repro profile`` instruments simulators built deep
#: inside a user script it merely executes.
_DEFAULT_BUS: ProbeBus | None = None


def set_default_bus(bus: ProbeBus | None) -> ProbeBus | None:
    """Install (or clear, with ``None``) the process-wide default bus.

    Returns the previous default so callers can restore it.
    """
    global _DEFAULT_BUS
    previous = _DEFAULT_BUS
    _DEFAULT_BUS = bus
    return previous


def default_bus() -> ProbeBus | None:
    """The process-wide default bus, or ``None`` when not installed."""
    return _DEFAULT_BUS
