"""The executable RT-level method channel.

This is what a global-object connection group becomes after
communication synthesis: a clocked module with per-client REQ/GNT/DONE
handshakes, a registered arbiter policy and a server FSM that invokes
the (behavioural) method bodies — the "mixed RT-behavioural" output of
the ODETTE tool. It runs on the same kernel as the original model, so
pre- and post-synthesis platforms can be simulated and compared.

Handshake (all sampled/driven on the rising clock edge):

1. client drives ``req=1`` with the request payload;
2. the arbiter grants one eligible client (request pending AND guard
   true on the shared state): ``gnt=1``;
3. the server spends ``body_cycles`` clocks executing the method body,
   then drives ``done=1`` with the return payload;
4. the client samples ``done``, drops ``req``; the server clears and
   returns to IDLE.

An uncontended call therefore costs a handful of clocks, and contention
adds arbitration wait — the temporal behaviour the paper defers to
"evaluation after synthesis", reproduced by the EXP-TIME bench.

:class:`RtlMethodChannel` is the one core of both execution backends:
the client, the call log and statistics, and the edge loop that samples
the request wires, arbitrates, evaluates the guards, runs the method
bodies and drives the handshake wires. A backend supplies only its
next-state step, :meth:`RtlMethodChannel._next_state`: here the
hand-written server FSM, in
:class:`~repro.compile.channel.CompiledChannel` the generated netlist
function.

While the channel is *unperturbed* the edge loop takes two fast paths.
Every committed value, call-log entry and cycle count stays as the RTL
poll has it:

* **Blocked edge.** An IDLE edge whose request and payload wires have
  not committed since an edge that found no guard true counts its idle
  cycle, defers the arbiter's clock (replayed exactly before the policy
  is next read) and does nothing else.
* **Sleeping client.** A waiting client samples ``done`` at the first
  posedge after it issues, as the RTL poll does, then sleeps on its
  call's ``done_event``. The server fires it at the edge where DONE is
  first sampled.

Unperturbed means that no activation-level kernel probe kind
(``process.*``, ``delta.*``, ``event.notify``) has a subscriber, that
``space.descriptor`` is not patched on the instance, that no channel
wire carries a per-instance ``_perform_update``, and that since the
last full edge no channel wire was forced and the space was not touched
(a checkpoint restore does both). Otherwise each edge is a full edge that writes ``server_state``
as the RTL server does, and the clients poll ``done`` at every posedge.
Fault models and activation observers then see exactly the RTL poll.
"""

from __future__ import annotations

import typing

from ..errors import ProtocolError, SynthesisError
from ..hdl.bitvector import BITS
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..instrument.probes import METHOD_CALL, METHOD_COMPLETE, METHOD_GRANT
from ..kernel.event import Event
from ..kernel.simulator import Simulator
from ..osss.global_object import GlobalObject, SharedStateSpace
from ..osss.request import MethodRequest
from .arbiter_synth import RtlArbiterPolicy, lower_arbiter

#: Server FSM state encodings (mirrored onto a trace signal).
ST_IDLE, ST_EXEC, ST_DONE = 0, 1, 2
STATE_NAMES = {ST_IDLE: "IDLE", ST_EXEC: "EXEC", ST_DONE: "DONE"}

ZERO, ONE = BITS


class ChannelCallRecord:
    """Cycle-level log entry for one serviced call."""

    __slots__ = ("client", "method", "request_time", "grant_time",
                 "done_time")

    def __init__(
        self,
        client: str,
        method: str,
        request_time: int,
        grant_time: int,
        done_time: int,
    ) -> None:
        self.client = client
        self.method = method
        self.request_time = request_time
        self.grant_time = grant_time
        self.done_time = done_time

    @property
    def wait_time(self) -> int:
        return self.grant_time - self.request_time

    @property
    def total_time(self) -> int:
        return self.done_time - self.request_time


class _Wire(Signal):
    """A channel wire that reports to its channel when it is forced and
    when a per-instance ``_perform_update`` hook (a signal fault's, or a
    test's) is installed on it.

    ``_perform_update`` is a property here: the update phase reads it on
    the instance, as for every signal, and gets the wire's own commit or
    the hook installed over it.
    """

    def __init__(
        self,
        channel: "RtlMethodChannel",
        name: str,
        width: int | None,
        init: object,
    ) -> None:
        super().__init__(channel.sim, f"{channel.path}.{name}", width, init)
        channel.sim.register_named(self.name, self)
        self._channel = channel

    _commit = Signal._perform_update
    _hook: "typing.Callable[[], None] | None" = None

    @property
    def _perform_update(self) -> typing.Callable[[], None]:
        hook = self._hook
        return self._commit if hook is None else hook

    @_perform_update.setter
    def _perform_update(self, hook: typing.Callable[[], None]) -> None:
        self._channel._hooked = True
        self._hook = hook

    def force(self, value: object) -> None:
        self._channel._perturbed = True
        super().force(value)


class _RequestWire(_Wire):
    """A ``req`` or ``payload`` wire: every commit may move the request
    picture, so it ends a blocked phase."""

    def _commit(self) -> None:
        self._channel._requests_moved = True
        Signal._perform_update(self)


class RtlMethodChannel(Module):
    """RT-level implementation of one connection group's communication.

    The core both backends share; this class is the interpreted
    backend, whose next-state step is the hand-written server FSM.

    :param space: the shared state space being lowered (its behavioural
        server must already be stopped by the synthesizer).
    :param handles: the client handles, one hardware port set each.
    :param clk: the synthesis clock.
    :param body_cycles: clocks charged for each method-body execution.
    """

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        space: SharedStateSpace,
        handles: typing.Sequence[GlobalObject],
        clk: Signal,
        body_cycles: int = 1,
    ) -> None:
        super().__init__(parent, name)
        if body_cycles < 1:
            raise SynthesisError("body_cycles must be >= 1")
        if not handles:
            raise SynthesisError("a channel needs at least one client")
        self.space = space
        self.clk = clk
        self.body_cycles = body_cycles
        self.clients = sorted(handles, key=lambda h: h.path)
        self.client_paths = [handle.path for handle in self.clients]
        self._index_of = {id(h): i for i, h in enumerate(self.clients)}
        n = len(self.clients)
        self.method_names = sorted(space.methods)
        self.policy: RtlArbiterPolicy = lower_arbiter(
            space.arbiter, n, self.client_paths
        )
        # Per-client wires.
        self.req = [_RequestWire(self, f"req_{i}", 1, 0) for i in range(n)]
        self.gnt = [_Wire(self, f"gnt_{i}", 1, 0) for i in range(n)]
        self.done = [_Wire(self, f"done_{i}", 1, 0) for i in range(n)]
        self.payload: list[Signal] = [
            _RequestWire(self, f"payload_{i}", None, None) for i in range(n)
        ]
        self.result: list[Signal] = [
            _Wire(self, f"result_{i}", None, None) for i in range(n)
        ]
        # Observability.
        self.state_sig = _Wire(self, "server_state", 2, ST_IDLE)
        self.grant_sig = _Wire(
            self, "grant_index", max(1, (n - 1).bit_length() or 1), 0
        )
        # Client-side mutexes (one outstanding call per hardware port).
        self._port_busy = [False] * n
        self._port_free = [self.event(f"port_free_{i}") for i in range(n)]
        #: The calls whose clients sleep on their ``done_event``, and the
        #: call each port issued last (what its client sleeps on, even
        #: when a forced payload wire carries another request).
        self._sleepers: list[MethodRequest] = []
        self._issued: list[MethodRequest | None] = [None] * n
        self._method_code_of = {m: k for k, m in enumerate(self.method_names)}
        self._method_codes = [0] * n
        self.call_log: list[ChannelCallRecord] = []
        self.calls_serviced = 0
        self.idle_cycles = 0
        self.busy_cycles = 0
        # Server registers the core keeps for every backend.
        self._state = ST_IDLE
        self._grant = 0
        self._current: MethodRequest | None = None
        self._completed = False
        self._exec_counter = 0
        #: The ``req`` bits as last sampled (and ticked into the policy).
        self._requests = [0] * n
        # Fast-path flags: the last full edge was an IDLE edge that
        # granted nothing; req/payload committed since the last sample;
        # a wire was forced or the space touched since the last full
        # edge; a wire carries a per-instance update hook.
        self._blocked = False
        self._requests_moved = False
        self._perturbed = False
        self._hooked = False
        space._activity.add_callback(self._touched)
        self.thread(self._serve, "server")

    # -- client side -----------------------------------------------------------

    def client_index(self, handle: GlobalObject) -> int:
        try:
            return self._index_of[id(handle)]
        except KeyError:
            raise SynthesisError(
                f"{handle.path} is not a client of channel {self.path}"
            ) from None

    def client_call(
        self,
        handle: GlobalObject,
        method: str,
        args: tuple,
        kwargs: dict,
        timeout: int | None = None,
        client: str | None = None,
    ):
        """The lowered blocking call (generator; substituted for
        :meth:`GlobalObject.call` after synthesis)."""
        if timeout is not None:
            raise SynthesisError(
                "call timeouts are not supported on a synthesized channel"
            )
        index = self.client_index(handle)
        self.space.descriptor(method)  # validate the method name early
        # One outstanding call per hardware port: serialize extra processes.
        while self._port_busy[index]:
            yield self._port_free[index]
        self._port_busy[index] = True
        try:
            request = MethodRequest(
                client=client or handle.path,
                method=method,
                args=args,
                kwargs=kwargs,
                arrival_time=self.sim.time,
                done_event=Event(self.sim.scheduler, f"{self.path}.wake_{index}"),
                seq=next(self.sim.request_seqs),
            )
            self.payload[index].write(request)
            self._issued[index] = request
            self._method_codes[index] = self._method_code_of.get(method, 0)
            self.req[index].write(1)
            self.space.stats.total_requests += 1
            probes = self.sim._probes
            if probes is not None:
                probes.emit(METHOD_CALL, self.sim.time, self.space, request)
            # Sample DONE at the next posedge, as the RTL poll does. After
            # that, an unperturbed channel lets the client sleep until the
            # server fires the call's done event.
            done = self.done[index]
            posedge = self.clk.posedge
            wait = posedge
            while True:
                yield wait
                if done.read().to_int_default(0):
                    break
                if self._quiet():
                    self._sleepers.append(request)
                    wait = request.done_event
                else:
                    wait = posedge
            outcome = self.result[index].read()
            self.req[index].write(0)
            # Let the server observe the dropped request before this port
            # can issue again (DONE must clear between calls).
            yield posedge
        finally:
            self._port_busy[index] = False
            self._port_free[index].notify()
        if type(outcome) is not tuple:
            raise ProtocolError(
                f"{self.path}: port {index} ({request.client}) sampled "
                f"DONE but result_{index} holds no result ({outcome!r})"
            )
        error = typing.cast("BaseException | None", outcome[1])
        if error is not None:
            raise error
        return outcome[0]

    # -- the fast-path predicate -------------------------------------------------

    def _quiet(self) -> bool:
        """No observer or fault needs the RTL poll (the fast-path
        predicate, less the one-shot force/touch flag)."""
        if self._hooked or "descriptor" in self.space.__dict__:
            return False
        probes = self.sim._probes
        return probes is None or not (
            probes._evaluation_observed or probes._event_notify is not None
        )

    def _touched(self) -> None:
        """The space's activity event fired (``space.touch()``): the
        shared state may have moved out of band."""
        self._perturbed = True
        self.space._activity.add_callback(self._touched)

    # -- server side -------------------------------------------------------------

    def _serve(self):
        posedge = self.clk.posedge
        policy = self.policy
        while True:
            yield posedge
            if (
                self._blocked
                and not (self._requests_moved or self._perturbed)
                and self._quiet()
            ):
                # Nothing a guard or the arbiter reads has moved since
                # an IDLE edge that granted nothing, so this edge grants
                # nothing either.
                self.idle_cycles += 1
                policy.lag += 1
                continue
            self._edge()

    def _edge(self) -> None:
        """One full clock edge: sample, arbitrate, step, act, drive."""
        moved = self._requests_moved or self._perturbed
        quiet = not self._perturbed and self._quiet()
        self._perturbed = self._requests_moved = self._blocked = False
        space = self.space
        state = self._state
        if moved:
            requests = self._requests = [
                1 if wire._value is ONE
                else 0 if wire._value is ZERO
                else wire._value.to_int_default(0)
                for wire in self.req
            ]
            self.policy.tick(requests)
        else:
            # The request vector the policy last ticked still holds.
            requests = self._requests
            self.policy.lag += 1
        eligible: list[int] = []
        grant = None
        if state == ST_IDLE:
            self.idle_cycles += 1
            payload = self.payload
            for index, bit in enumerate(requests):
                if not bit:
                    continue
                request = payload[index]._value
                if not isinstance(request, MethodRequest):
                    raise ProtocolError(
                        f"{self.path}: port {index} "
                        f"({self.client_paths[index]}) raised REQ but "
                        f"payload_{index} holds no request ({request!r})"
                    )
                if space.descriptor(request.method).guard_true(space.state):
                    eligible.append(index)
            if eligible:
                grant = self.policy.select(eligible)
        else:
            self.busy_cycles += 1
        new_state = self._next_state(state, requests, eligible, grant)
        if state == ST_IDLE:
            if new_state == ST_IDLE:
                self._blocked = quiet
            else:
                self._take_grant(typing.cast(int, grant))
        elif state == ST_EXEC:
            if new_state == ST_DONE:
                self._complete()
        else:
            if self._completed:
                # The edge where the client's poll first samples DONE.
                self._completed = False
                issued = self._issued[self._grant]
                if quiet and issued in self._sleepers:
                    self._sleepers.remove(issued)
                    issued.done_event.notify()
            if new_state == ST_IDLE:
                self._release()
        if not quiet and self._sleepers:
            # Every sleeper samples DONE at this edge, as its poll would.
            sleepers, self._sleepers = self._sleepers, []
            for request in sleepers:
                request.done_event.notify()
        if new_state != state or not quiet:
            self.state_sig.write(new_state)
        self._state = new_state

    def _next_state(
        self,
        state: int,
        requests: list[int],
        eligible: list[int],
        grant: int | None,
    ) -> int:
        """The backend's next-state step: the server FSM's next state from
        the pre-edge state, the sampled ``req`` bits, the eligible ports
        and the arbiter's pick among them (None when none is eligible).

        Here it is the hand-written FSM.
        """
        if state == ST_IDLE:
            if grant is None:
                return ST_IDLE
            self._exec_counter = self.body_cycles
            return ST_EXEC
        if state == ST_EXEC:
            self._exec_counter -= 1
            return ST_DONE if self._exec_counter == 0 else ST_EXEC
        return ST_DONE if requests[self._grant] else ST_IDLE

    def _take_grant(self, grant: int) -> None:
        space = self.space
        now = self.sim.time
        current = typing.cast(MethodRequest, self.payload[grant].read())
        self._grant = grant
        self._current = current
        current.grant_time = now
        space.stats.record_grant(current)
        probes = self.sim._probes
        if probes is not None:
            probes.emit(METHOD_GRANT, now, space, current)
        self.gnt[grant].write(1)
        self.grant_sig.write(grant)

    def _complete(self) -> None:
        space = self.space
        current = self._current
        assert current is not None
        descriptor = space.descriptor(current.method)
        try:
            value = descriptor.invoke(space.state, *current.args, **current.kwargs)
            outcome: tuple = (value, None)
        except Exception as error:
            current.error = error
            outcome = (None, error)
        current.result = outcome[0]
        current.completed = True
        current.complete_time = self.sim.time
        space.stats.total_completed += 1
        probes = self.sim._probes
        if probes is not None:
            probes.emit(METHOD_COMPLETE, self.sim.time, space, current)
        self.result[self._grant].write(outcome)
        self.done[self._grant].write(1)
        self._completed = True

    def _release(self) -> None:
        current = self._current
        assert current is not None
        self.call_log.append(
            ChannelCallRecord(
                current.client,
                current.method,
                current.arrival_time,
                current.grant_time or current.arrival_time,
                self.sim.time,
            )
        )
        self.calls_serviced += 1
        self.done[self._grant].write(0)
        self.gnt[self._grant].write(0)
        self._current = None

    # -- statistics -----------------------------------------------------------------

    def mean_call_cycles(self, clock_period: int) -> float:
        """Average request-to-done latency in clock cycles."""
        if not self.call_log:
            return 0.0
        total = sum(record.total_time for record in self.call_log)
        return total / len(self.call_log) / clock_period
