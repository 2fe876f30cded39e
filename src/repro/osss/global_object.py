"""Global objects — the SystemC+ shared-object communication primitive.

Per the paper (Figure 1): a class with guarded methods is instantiated
in several modules; the instances are *connected*, after which they
share one state space. A method invoked through any connected instance
mutates that shared state; concurrent invocations are queued and
scheduled by a user-defined algorithm; a false guard suspends the caller
until the state changes.

Usage inside a module thread::

    self.channel = GlobalObject(self, "channel", BusChannel)
    ...
    def _run(self):
        result = yield from self.channel.call("put_command", command)
        # or, equivalently, the attribute sugar:
        result = yield from self.channel.put_command(command)
"""

from __future__ import annotations

import typing

from ..errors import ArbitrationError, GuardTimeoutError, SimulationError
from ..instrument.probes import (
    METHOD_CALL,
    METHOD_COMPLETE,
    METHOD_GRANT,
    METHOD_GUARD_BLOCK,
    METHOD_QUEUE,
    RESILIENCE_GIVEUP,
    RESILIENCE_RECOVERED,
    RESILIENCE_RETRY,
    RESILIENCE_TIMEOUT,
    emit_resilience,
)
from ..kernel.event import AnyOf, Event
from ..kernel.process import Timeout
from ..kernel.simulator import Simulator
from .arbiter import Arbiter, FcfsArbiter
from .guarded_method import GuardedMethodDescriptor, guarded_methods_of
from .request import MethodRequest, RequestStats

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hdl.module import Module


class SharedStateSpace:
    """The single state + request queue + server behind a connection group."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cls: type,
        args: tuple,
        kwargs: dict,
        arbiter: Arbiter,
        service_time: int = 0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.cls = cls
        self.state = cls(*args, **kwargs)
        self.arbiter = arbiter
        self.service_time = service_time
        self.methods: dict[str, GuardedMethodDescriptor] = guarded_methods_of(cls)
        self.pending: list[MethodRequest] = []
        #: method name (or ``"*"``) -> retry policy, consulted by
        #: :meth:`GlobalObject.call` when no explicit timeout is given.
        #: Policies are duck-typed (see :mod:`repro.resilience.policy`)
        #: so this layer stays free of resilience imports.
        self.retry_policies: dict[str, object] = {}
        self.stats = RequestStats()
        self.busy = False
        self._activity = Event(sim.scheduler, f"{name}.activity")
        self.server = sim.scheduler.spawn(self._serve, f"{name}.server")

    def __repr__(self) -> str:
        return f"SharedStateSpace({self.name}, {self.cls.__name__})"

    # -- method resolution --------------------------------------------------

    def descriptor(self, method: str) -> GuardedMethodDescriptor:
        """The guarded-method descriptor for *method*.

        Plain (unguarded) public methods of the shared class are also
        callable through the channel; they behave as guard-``true``.
        """
        try:
            return self.methods[method]
        except KeyError:
            pass
        attr = getattr(self.cls, method, None)
        if callable(attr) and not method.startswith("_"):
            descriptor = GuardedMethodDescriptor(attr, None)
            self.methods[method] = descriptor
            return descriptor
        raise SimulationError(
            f"{self.cls.__name__} has no callable method {method!r}"
        )

    def guard_true(self, method: str) -> bool:
        return self.descriptor(method).guard_true(self.state)

    # -- request handling ------------------------------------------------------

    def submit(self, request: MethodRequest) -> None:
        descriptor = self.descriptor(request.method)  # validate early
        self.pending.append(request)
        self.stats.total_requests += 1
        probes = self.sim._probes
        if probes is not None:
            now = self.sim.scheduler.time
            probes.emit(METHOD_CALL, now, self, request)
            if self.busy or len(self.pending) > 1 or \
                    not descriptor.guard_true(self.state):
                probes.emit(METHOD_QUEUE, now, self, request)
        self._activity.notify()

    def cancel(self, request: MethodRequest) -> None:
        request.cancelled = True
        try:
            self.pending.remove(request)
        except ValueError:
            pass

    def touch(self) -> None:
        """Force guard re-evaluation after out-of-band state mutation."""
        self._activity.notify()

    def try_execute(self, client: str, method: str, *args: object, **kwargs: object):
        """Non-blocking call: execute now if possible.

        :returns: ``(True, result)`` when the object was idle, nothing was
            queued ahead, and the guard held; ``(False, None)`` otherwise.
        """
        if self.busy or self.pending:
            return False, None
        descriptor = self.descriptor(method)
        if not descriptor.guard_true(self.state):
            return False, None
        result = descriptor.invoke(self.state, *args, **kwargs)
        probes = self.sim._probes
        if probes is not None:
            now = self.sim.scheduler.time
            request = MethodRequest(
                client=client, method=method, args=args, kwargs=kwargs,
                arrival_time=now, done_event=None,  # type: ignore[arg-type]
                seq=next(self.sim.request_seqs),
            )
            request.grant_time = now
            request.complete_time = now
            request.completed = True
            request.result = result
            probes.emit(METHOD_CALL, now, self, request)
            probes.emit(METHOD_GRANT, now, self, request)
            probes.emit(METHOD_COMPLETE, now, self, request)
        self._activity.notify()
        return True, result

    # -- server process -----------------------------------------------------------

    def _serve(self):
        scheduler = self.sim.scheduler
        while True:
            eligible = [
                request
                for request in self.pending
                if self.descriptor(request.method).guard_true(self.state)
            ]
            if not eligible:
                if self.pending:
                    probes = self.sim._probes
                    if probes is not None:
                        probes.emit(
                            METHOD_GUARD_BLOCK,
                            scheduler.time,
                            self,
                            tuple(self.pending),
                        )
                yield self._activity
                continue
            request = self.arbiter.select(eligible)
            if request not in self.pending:
                raise ArbitrationError(
                    f"{self.name}: arbiter {self.arbiter.kind!r} selected a "
                    f"request that is not pending: {request!r}"
                )
            self.pending.remove(request)
            self.busy = True
            request.grant_time = scheduler.time
            self.stats.record_grant(request)
            probes = self.sim._probes
            if probes is not None:
                probes.emit(METHOD_GRANT, scheduler.time, self, request)
            if self.service_time > 0:
                yield Timeout(self.service_time)
            if request.cancelled:
                # The caller gave up (timeout/retry) while the call sat
                # in service; executing it now would let an abandoned
                # call take effect — possibly twice, after a resubmit.
                self.busy = False
                yield Timeout(0)
                continue
            descriptor = self.descriptor(request.method)
            try:
                request.result = descriptor.invoke(
                    self.state, *request.args, **request.kwargs
                )
            except Exception as error:  # delivered to the caller
                request.error = error
            request.completed = True
            request.complete_time = scheduler.time
            self.stats.record_completion(request)
            probes = self.sim._probes
            if probes is not None:
                probes.emit(METHOD_COMPLETE, scheduler.time, self, request)
            self.busy = False
            request.done_event.notify_delta()
            # One serviced call per delta: callers observe each state step.
            yield Timeout(0)


class GlobalObject:
    """A module-local handle on a (possibly connected) shared object.

    :param parent: the owning module.
    :param name: instance name within the module.
    :param cls: the shared class (with guarded methods). All handles in a
        connection group must use the same class.
    :param args / kwargs: constructor arguments for the shared state.
    :param arbiter: scheduling algorithm (default FCFS). At most one
        handle in a connection group may specify a non-default arbiter.
    :param service_time: fs consumed by each serviced call (0 = untimed
        behavioural model; the synthesized version derives its own timing
        from the clock).
    """

    def __init__(
        self,
        parent: "Module",
        name: str,
        cls: type,
        *args: object,
        arbiter: Arbiter | None = None,
        service_time: int = 0,
        **kwargs: object,
    ) -> None:
        self.module = parent
        self.sim = parent.sim
        self.name = name
        self.path = f"{parent.path}.{name}"
        self.cls = cls
        self._explicit_arbiter = arbiter
        self._space: SharedStateSpace | None = SharedStateSpace(
            self.sim,
            self.path,
            cls,
            args,
            kwargs,
            arbiter or FcfsArbiter(),
            service_time,
        )
        self._group_parent: "GlobalObject | None" = None
        #: Set by the communication synthesizer: calls are then served by
        #: the RT-level channel instead of the behavioural server.
        self._lowered: typing.Any = None
        self.sim.register_named(self.path, self)
        if not hasattr(parent, "_global_objects"):
            parent._global_objects = []  # type: ignore[attr-defined]
        parent._global_objects.append(self)  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"GlobalObject({self.path}, {self.cls.__name__})"

    # -- connection group (union-find) ----------------------------------------

    def _root(self) -> "GlobalObject":
        node = self
        while node._group_parent is not None:
            node = node._group_parent
        # Path compression.
        walker = self
        while walker._group_parent is not None:
            nxt = walker._group_parent
            walker._group_parent = node
            walker = nxt
        return node

    def connect(self, *others: "GlobalObject") -> "GlobalObject":
        """Merge this handle's state space with each of *others*.

        Returns ``self`` so connections can be chained.
        """
        for other in others:
            self._connect_one(other)
        return self

    def _connect_one(self, other: "GlobalObject") -> None:
        my_root = self._root()
        their_root = other._root()
        if my_root is their_root:
            return
        # Identical classes connect freely; otherwise one class must be a
        # subclass of the other (e.g. a blocking application port on a
        # non-blocking channel), and the derived class's space survives.
        derived: "GlobalObject | None" = None
        if my_root.cls is not their_root.cls:
            if issubclass(my_root.cls, their_root.cls):
                derived = my_root
            elif issubclass(their_root.cls, my_root.cls):
                derived = their_root
            else:
                raise SimulationError(
                    f"cannot connect {self.path} ({my_root.cls.__name__}) "
                    f"with {other.path} ({their_root.cls.__name__}): "
                    "unrelated classes"
                )
        my_space = my_root._space
        their_space = their_root._space
        assert my_space is not None and their_space is not None
        if my_space.stats.total_requests or their_space.stats.total_requests:
            raise SimulationError(
                f"cannot connect {self.path} and {other.path} after "
                "communication has started"
            )
        if my_root._explicit_arbiter is not None and \
                their_root._explicit_arbiter is not None:
            raise ArbitrationError(
                f"both {my_root.path} and {their_root.path} specify an "
                "arbiter; a connection group takes exactly one"
            )
        keep, drop = my_root, their_root
        if derived is not None:
            # The derived class's state space must survive.
            keep = derived
            drop = their_root if derived is my_root else my_root
        elif their_root._explicit_arbiter is not None:
            # Prefer the space whose handle carries the explicit arbiter.
            keep, drop = their_root, my_root
        drop_space = drop._space
        keep_space = keep._space
        assert drop_space is not None and keep_space is not None
        if drop._explicit_arbiter is not None and \
                keep._explicit_arbiter is None:
            # Carry the dropped handle's arbiter into the surviving space.
            keep_space.arbiter = drop._explicit_arbiter
        # Retry policies attached before the connect survive the merge;
        # the surviving space's own entries win on conflicts.
        for method, policy in drop_space.retry_policies.items():
            keep_space.retry_policies.setdefault(method, policy)
        drop_space.server.kill()
        drop._space = None
        drop._group_parent = keep

    @property
    def space(self) -> SharedStateSpace:
        """The shared state space of this handle's connection group."""
        root = self._root()
        assert root._space is not None
        return root._space

    @property
    def state(self) -> object:
        """The shared object instance itself (read access for guards/tests)."""
        return self.space.state

    @property
    def stats(self) -> RequestStats:
        return self.space.stats

    # -- calling ------------------------------------------------------------------

    def call(
        self,
        method: str,
        *args: object,
        timeout: int | None = None,
        client: str | None = None,
        **kwargs: object,
    ):
        """Blocking guarded-method call; use from a thread as
        ``result = yield from handle.call("name", ...)``.

        :param timeout: optional fs bound; :class:`GuardTimeoutError` is
            raised in the calling process if the call does not complete.
        :param client: override the client id used for arbitration
            (defaults to this handle's hierarchical path).
        """
        lowered = self._root()._lowered
        if lowered is not None:
            result = yield from lowered.client_call(
                self, method, args, kwargs,
                timeout=timeout, client=client,
            )
            return result
        space = self.space
        if timeout is None and space.retry_policies:
            policy = space.retry_policies.get(method) \
                or space.retry_policies.get("*")
            if policy is not None:
                result = yield from self._call_with_policy(
                    space, policy, method, args, kwargs, client
                )
                return result
        scheduler = self.sim.scheduler
        done = Event(scheduler, f"{self.path}.{method}.done")
        request = MethodRequest(
            client=client or self.path,
            method=method,
            args=args,
            kwargs=kwargs,
            arrival_time=scheduler.time,
            done_event=done,
            seq=next(self.sim.request_seqs),
        )
        space.submit(request)
        if timeout is None:
            yield done
        else:
            expiry = Event(scheduler, f"{self.path}.{method}.timeout")
            expiry.notify_after(timeout)
            yield AnyOf(done, expiry)
            if not request.completed:
                space.cancel(request)
                raise GuardTimeoutError(
                    f"call {self.path}.{method} timed out after {timeout} fs"
                )
        if request.error is not None:
            raise request.error
        return request.result

    def _call_with_policy(
        self,
        space: SharedStateSpace,
        policy: typing.Any,
        method: str,
        args: tuple,
        kwargs: dict,
        client: str | None,
    ):
        """Bounded attempts with per-attempt deadlines and backoff.

        *policy* is duck-typed: ``max_attempts``, ``attempt_timeout(n)``
        and ``backoff_schedule(*keys)`` — see
        :class:`~repro.resilience.policy.RetryPolicy`. A guard that
        never fires becomes a :class:`~repro.errors.GuardTimeoutError`
        in the caller instead of a hung process; recovery activity is
        published as ``resilience.*`` probes.
        """
        scheduler = self.sim.scheduler
        client_id = client or self.path
        backoffs = policy.backoff_schedule(client_id, method, scheduler.time)
        max_attempts = policy.max_attempts
        timed_out = False
        for attempt in range(1, max_attempts + 1):
            done = Event(scheduler, f"{self.path}.{method}.done")
            request = MethodRequest(
                client=client_id,
                method=method,
                args=args,
                kwargs=kwargs,
                arrival_time=scheduler.time,
                done_event=done,
                seq=next(self.sim.request_seqs),
            )
            space.submit(request)
            deadline = policy.attempt_timeout(attempt)
            expiry = Event(scheduler, f"{self.path}.{method}.deadline")
            expiry.notify_after(deadline)
            yield AnyOf(done, expiry)
            if request.completed:
                if request.error is not None:
                    raise request.error
                if timed_out:
                    emit_resilience(
                        self.sim, RESILIENCE_RECOVERED, self.path, method,
                        attempt, "guard timeout",
                    )
                return request.result
            timed_out = True
            space.cancel(request)
            emit_resilience(
                self.sim, RESILIENCE_TIMEOUT, self.path, method, attempt,
                f"no completion within {deadline} fs",
            )
            if attempt == max_attempts:
                break
            delay = backoffs[attempt - 1]
            if delay:
                yield Timeout(delay)
            emit_resilience(
                self.sim, RESILIENCE_RETRY, self.path, method, attempt + 1,
            )
        emit_resilience(
            self.sim, RESILIENCE_GIVEUP, self.path, method, max_attempts,
            "attempts exhausted",
        )
        raise GuardTimeoutError(
            f"call {self.path}.{method} gave up after {max_attempts} "
            f"attempts (policy {policy!r})"
        )

    def try_call(self, method: str, *args: object, **kwargs: object):
        """Non-blocking variant: ``(granted, result)``, never suspends."""
        if self._root()._lowered is not None:
            raise SimulationError(
                f"{self.path}: non-blocking try_call is not available on a "
                "synthesized channel"
            )
        return self.space.try_execute(self.path, method, *args, **kwargs)

    def __getattr__(self, name: str):
        # Attribute sugar: handle.put_command(cmd) builds the call generator.
        # Only method names of the shared class are forwarded.
        if name.startswith("_"):
            raise AttributeError(name)
        attr = getattr(self.cls, name, None)
        if callable(attr) or isinstance(attr, GuardedMethodDescriptor):
            def caller(*args: object, **kwargs: object):
                return self.call(name, *args, **kwargs)

            caller.__name__ = name
            return caller
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r} and "
            f"{self.cls.__name__} has no method of that name"
        )


def connect(*handles: GlobalObject) -> GlobalObject:
    """Connect every handle into one group; returns the first handle."""
    if not handles:
        raise SimulationError("connect() needs at least one handle")
    first = handles[0]
    first.connect(*handles[1:])
    return first
