"""The interface element: the one shape every library IP follows.

:class:`InterfaceElement` is the paper's bus-interface pattern (its
Section 3): a single ``BusInterfaceChannel``-shaped global object
towards the application, protocol processes towards the wires,
elaborated from an :class:`~repro.iface.params.IfaceParams`. Concrete
elements (PCI, Wishbone, AXI4-Lite, TLM-GP, functional) subclass it and
consume ``self.params`` instead of per-bus width constants.
"""

from __future__ import annotations

import typing

from ..core.bus_interface import BusInterfaceChannel
from ..core.command import CommandType, DataType
from ..errors import RefinementError
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
from .agent import BusOperation
from .params import IfaceParams


class InterfaceElement(Module):
    """A library interface element elaborated from :class:`IfaceParams`.

    Owns the interface-side global object (:attr:`channel`); concrete
    elements add the protocol processes. Applications connect with
    :meth:`connect_application` (or by connecting their own handle).

    :param arbiter: scheduling algorithm for concurrent application
        access to the channel (the user-defined algorithm of the paper).
    :param params: structural parameters; ``None`` elaborates the
        defaults (32-bit paths, response FIFO of 4).
    :param channel_cls: the shared-object class; applications connecting
        must use the same class (e.g. the non-blocking variant).

    The pin-level elements (PCI, Wishbone, AXI4-Lite) share one command
    loop, :meth:`_dispatch`, with two hooks: :meth:`_operation` builds
    the bus operation for a command (a :class:`BusOperation` unless the
    element overrides it, as PCI does), :meth:`_operation_failure`
    names a completed operation's failure. Each drives its operation
    through ``self.master.transact``.
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
        params: IfaceParams | None = None,
        channel_cls: type = BusInterfaceChannel,
    ) -> None:
        if params is None:
            params = IfaceParams()
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
            params.response_capacity,
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
        #: The parameters this element was elaborated with.
        self.params = params

    def connect_application(self, handle: GlobalObject) -> None:
        """Connect an application-side global object to this interface."""
        self.channel.connect(handle)

    @property
    def channel_state(self) -> BusInterfaceChannel:
        return typing.cast(BusInterfaceChannel, self.channel.state)

    # -- the pin-level command loop -------------------------------------------

    def _operation(self, command: CommandType) -> typing.Any:
        """The fresh bus operation that carries out *command*."""
        operation = BusOperation(
            command.is_write,
            command.address,
            data=command.data if command.is_write else None,
            count=command.count,
            byte_enables=command.byte_enables,
            byte_lanes=self.params.byte_lanes,
        )
        operation.corr_id = command.corr_id
        return operation

    @staticmethod
    def _operation_failure(operation: typing.Any) -> str | None:
        """Failure tag of a completed operation, None on success."""
        return None if operation.status == "ok" else operation.status

    def _dispatch(self):
        """Forever: take a command from the channel, run it on the pins.

        With recovery armed, failed operations are replayed from the
        command a bounded number of times before the failure is surfaced.
        """
        while True:
            epoch, command = yield from self.channel.call("get_command")
            if self.recovery is None:
                operation = self._operation(command)
                yield from self.master.transact(operation)
            else:
                operation = yield from self._transact_with_recovery(command)
            self.commands_serviced += 1
            if self._operation_failure(operation) is not None:
                self.operations_failed += 1
            if command.is_read:
                response = DataType(operation.data, operation.status)
                response.corr_id = operation.corr_id
                yield from self.channel.call("put_response", epoch, response)

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

    def _transact_with_recovery(self, command: CommandType):
        """Issue *command*'s bus operation, replaying bounded on failure.

        Each replay builds a fresh operation from the command with
        :meth:`_operation` (never reusing a half-completed one), drives
        it through ``self.master.transact`` and reads its failure with
        :meth:`_operation_failure`.

        :returns: the last operation (successful or not).
        """
        operation = self._operation(command)
        yield from self.master.transact(operation)
        recovery = self.recovery
        failure = self._operation_failure(operation)
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
            operation = self._operation(command)
            yield from self.master.transact(operation)
            self.operations_replayed += 1
            previous_failure = failure
            failure = self._operation_failure(operation)
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

    # -- structure -------------------------------------------------------------

    def check_bus_widths(self, **widths: int) -> None:
        """Assert the attached wire bundle matches ``self.params``.

        Concrete elements call this from their constructor with the
        widths the bus was elaborated at (``data_width=bus.ad_width``,
        ...); a mismatch is a wiring bug worth failing loudly on.
        """
        expected = {
            "data_width": self.params.data_width,
            "addr_width": self.params.addr_width,
        }
        for key, actual in widths.items():
            want = expected.get(key)
            if want is not None and actual != want:
                raise RefinementError(
                    f"{self.path}: bus {key}={actual} does not match "
                    f"element params {key}={want}"
                )

    def describe(self) -> dict:
        """Metadata record for the interface library and reports: the
        element's tags, path and service count, then its elaboration
        parameters (:meth:`IfaceParams.describe`)."""
        return {
            "element": type(self).__name__,
            "bus": self.BUS_NAME,
            "abstraction": self.ABSTRACTION,
            "path": self.path,
            "commands_serviced": self.commands_serviced,
            **self.params.describe(),
        }
