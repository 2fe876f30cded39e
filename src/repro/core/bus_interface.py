"""The bus-interface design pattern (the paper's Section 3).

The pattern constrains an interface IP as follows:

1. it *encapsulates the transfer modes of the bus protocol* behind a set
   of functionalities;
2. those functionalities are offered to the application as **guarded
   methods of a global object** (blocking semantics);
3. towards the bus it implements the service at **pin-level accuracy**
   (or, for the functional library element, at transaction level).

:class:`BusInterfaceChannel` is the global-object class with exactly the
paper's guarded methods (``putCommand`` / ``getCommand`` /
``appDataGet`` / ``reset``); :class:`BusInterface` is the module shape
every library element follows: one global object towards the
application, protocol processes towards the IPs.
"""

from __future__ import annotations

import typing
from collections import deque

from ..hdl.module import Module
from ..instrument.probes import (
    RESILIENCE_GIVEUP,
    RESILIENCE_RECOVERED,
    RESILIENCE_RETRY,
    emit_resilience,
)
from ..kernel.process import Timeout
from ..kernel.simulator import Simulator
from ..osss.arbiter import Arbiter
from ..osss.global_object import GlobalObject
from ..osss.guarded_method import guarded_method
from .command import CommandType, DataType


class BusInterfaceChannel:
    """Shared state between the application and the interface module.

    Exactly the paper's interface, translated from the SystemC+ macros::

        GUARDED_METHOD(void, putCommand(CommandType&), !isPendingCommand)
        GUARDED_METHOD(CommandType, getCommand(), isPendingCommand)
        GUARDED_METHOD(DataType, appDataGet(), isApplicationReadData)
        GUARDED_METHOD(void, reset(), true)

    :param response_capacity: completed read responses the channel can
        hold before ``put_response`` blocks the protocol side.
    """

    def __init__(self, response_capacity: int = 4) -> None:
        self.pending_command: CommandType | None = None
        self.responses: deque[tuple[int, DataType]] = deque()
        self.response_capacity = response_capacity
        #: Incremented by reset(); stale in-flight responses are dropped.
        self.epoch = 0
        self.commands_put = 0
        self.commands_taken = 0
        self.responses_delivered = 0

    # -- state predicates (the guards) --------------------------------------

    @property
    def is_pending_command(self) -> bool:
        return self.pending_command is not None

    @property
    def is_application_read_data(self) -> bool:
        return bool(self.responses)

    @property
    def has_response_space(self) -> bool:
        return len(self.responses) < self.response_capacity

    # -- the guarded methods ---------------------------------------------------

    @guarded_method(lambda self: not self.is_pending_command)
    def put_command(self, command: CommandType) -> int:
        """Application side: request a bus operation (blocking).

        Returns the channel epoch the command belongs to.
        """
        self.pending_command = command
        self.commands_put += 1
        return self.epoch

    @guarded_method(lambda self: self.is_pending_command)
    def get_command(self) -> tuple[int, CommandType]:
        """Protocol side: take the pending command (blocks until one)."""
        command = self.pending_command
        self.pending_command = None
        self.commands_taken += 1
        return self.epoch, command

    @guarded_method(lambda self: self.has_response_space)
    def put_response(self, epoch: int, response: DataType) -> bool:
        """Protocol side: deliver a read result; stale epochs are dropped."""
        if epoch != self.epoch:
            return False
        self.responses.append((epoch, response))
        return True

    @guarded_method(lambda self: self.is_application_read_data)
    def app_data_get(self) -> DataType:
        """Application side: fetch the result of a read (blocking)."""
        __, response = self.responses.popleft()
        self.responses_delivered += 1
        return response

    @guarded_method()
    def reset(self) -> None:
        """Cancel all pending commands and re-initialise the interface."""
        self.pending_command = None
        self.responses.clear()
        self.epoch += 1


class BusInterface(Module):
    """Base shape of a library interface element.

    Owns the interface-side global object (:attr:`channel`); concrete
    subclasses add the protocol processes. Applications connect with
    :meth:`connect_application` (or by connecting their own handle).

    :param arbiter: scheduling algorithm for concurrent application
        access to the channel (the user-defined algorithm of the paper).
    :param response_capacity: see :class:`BusInterfaceChannel`.
    :param channel_cls: the shared-object class; applications connecting
        must use the same class (e.g. the non-blocking variant).
    """

    #: (bus_name, abstraction) — set by concrete library elements and
    #: used by the interface library for lookup.
    BUS_NAME: str = "abstract"
    ABSTRACTION: str = "abstract"

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        arbiter: Arbiter | None = None,
        response_capacity: int = 4,
        channel_cls: type = BusInterfaceChannel,
    ) -> None:
        super().__init__(parent, name)
        if not issubclass(channel_cls, BusInterfaceChannel):
            raise TypeError(
                f"channel_cls must derive from BusInterfaceChannel, got "
                f"{channel_cls!r}"
            )
        self.channel = GlobalObject(
            self,
            "channel",
            channel_cls,
            response_capacity,
            arbiter=arbiter,
        )
        self.commands_serviced = 0
        #: Protocol-replay configuration (an
        #: :class:`~repro.resilience.recovery.InterfaceRecovery`, duck
        #: typed); ``None`` keeps the shipping zero-recovery fast path.
        self.recovery: typing.Any = None
        #: Bus operations that still failed after any replay.
        self.operations_failed = 0
        self.operations_replayed = 0
        self.operations_recovered = 0

    def connect_application(self, handle: GlobalObject) -> None:
        """Connect an application-side global object to this interface."""
        self.channel.connect(handle)

    # -- protocol-level recovery ---------------------------------------------

    def enable_recovery(self, recovery: typing.Any) -> None:
        """Arm transaction replay on this interface element.

        Recovery lives entirely inside the swappable interface IP: the
        application keeps calling the same guarded methods, at every
        refinement level, and failed bus operations are re-issued behind
        its back (bounded, with exponential sim-time backoff).
        """
        self.recovery = recovery
        self._apply_recovery(recovery)

    def _apply_recovery(self, recovery: typing.Any) -> None:
        """Hook for element-specific arming (e.g. PCI parity checking)."""

    def _transact_with_recovery(
        self,
        command: CommandType,
        build_operation: typing.Callable[[CommandType], typing.Any],
        transact: typing.Callable[[typing.Any], typing.Any],
        failure_of: typing.Callable[[typing.Any], str | None],
    ):
        """Issue *command*'s bus operation, replaying bounded on failure.

        :param build_operation: command -> a fresh protocol operation
            (each replay re-issues from the command, never reuses a
            half-completed operation).
        :param transact: operation -> generator driving it on the bus.
        :param failure_of: operation -> failure tag (``"master_abort"``,
            ``"parity"``, ...) or ``None`` on success.
        :returns: the last operation (successful or not).
        """
        operation = build_operation(command)
        yield from transact(operation)
        recovery = self.recovery
        failure = failure_of(operation)
        if recovery is None or failure is None:
            return operation
        tag = getattr(command, "kind", "call")
        replay = 0
        while replay < recovery.replay_limit:
            replay += 1
            emit_resilience(
                self.sim, RESILIENCE_RETRY, self.path, tag, replay, failure,
            )
            delay = recovery.backoff_delay(replay)
            if delay:
                yield Timeout(delay)
            operation = build_operation(command)
            yield from transact(operation)
            self.operations_replayed += 1
            previous_failure = failure
            failure = failure_of(operation)
            if failure is None:
                emit_resilience(
                    self.sim, RESILIENCE_RECOVERED, self.path, tag,
                    replay, previous_failure,
                )
                self.operations_recovered += 1
                return operation
        emit_resilience(
            self.sim, RESILIENCE_GIVEUP, self.path, tag,
            recovery.replay_limit, failure,
        )
        return operation

    # -- convenience state accessors -----------------------------------------

    @property
    def channel_state(self) -> BusInterfaceChannel:
        return typing.cast(BusInterfaceChannel, self.channel.state)

    def describe(self) -> dict:
        """Metadata record for the interface library."""
        return {
            "bus": self.BUS_NAME,
            "abstraction": self.ABSTRACTION,
            "path": self.path,
            "commands_serviced": self.commands_serviced,
        }
