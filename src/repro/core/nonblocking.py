"""Non-blocking variant of the bus-interface channel.

The paper presents *"the blocking version of the interface"*, implying a
non-blocking sibling: methods that return immediately with a success
flag instead of suspending the caller on a false guard. The channel
access itself is still a guarded-method call (so concurrent callers are
still queued and scheduled); only the *protocol state* guards become
return values.

:class:`PollingApplication` is the matching stimuli generator: it spins
with a configurable poll interval instead of blocking, producing the
same observable transaction records as the blocking
:class:`~repro.core.application.Application`.
"""

from __future__ import annotations

import typing

from ..errors import SimulationError
from ..hdl.module import Module
from ..kernel.process import Timeout
from ..osss.global_object import GlobalObject
from ..osss.guarded_method import guarded_method
from .application import TransactionRecord
from .bus_interface import BusInterfaceChannel
from .command import CommandType, DataType

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..iface.element import InterfaceElement


class NonBlockingBusInterfaceChannel(BusInterfaceChannel):
    """Adds try-variants of the application-side methods.

    The protocol side (``get_command`` / ``put_response``) stays
    blocking — the dispatcher process has nothing better to do — so the
    same interface elements work unchanged with this channel class.
    """

    @guarded_method()
    def try_put_command(self, command: CommandType) -> bool:
        """Request a bus operation; False when a command is pending."""
        if self.is_pending_command:
            return False
        self.pending_command = command
        self.commands_put += 1
        return True

    @guarded_method()
    def try_app_data_get(self) -> "tuple[bool, DataType | None]":
        """Fetch a read result; ``(False, None)`` when none is ready."""
        if not self.responses:
            return False, None
        __, response = self.responses.popleft()
        return True, response


class PollingApplication(Module):
    """A stimuli generator using the non-blocking interface.

    :param commands: transactions to perform.
    :param interface: bus interface to connect to (its channel class
        must be :class:`NonBlockingBusInterfaceChannel`).
    :param poll_interval: fs between retries of a refused call.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        commands: typing.Sequence[CommandType] = (),
        interface: InterfaceElement | None = None,
        poll_interval: int = 1000,
    ) -> None:
        super().__init__(parent, name)
        if poll_interval <= 0:
            raise SimulationError("poll interval must be positive")
        self.commands = list(commands)
        self.poll_interval = poll_interval
        self.bus_port = GlobalObject(
            self, "bus_port", NonBlockingBusInterfaceChannel
        )
        if interface is not None:
            interface.connect_application(self.bus_port)
        self.records: list[TransactionRecord] = []
        self.retries = 0
        self.finished = self.event("finished")
        self.done = False
        self.thread(self._run, "application")

    def trace_signatures(self) -> list[tuple]:
        return [record.signature() for record in self.records]

    def _run(self):
        for command in self.commands:
            issue_time = self.sim.time
            while True:
                accepted = yield from self.bus_port.call(
                    "try_put_command", command
                )
                if accepted:
                    break
                self.retries += 1
                yield Timeout(self.poll_interval)
            response: DataType | None = None
            if command.is_read:
                while True:
                    ready, response = yield from self.bus_port.call(
                        "try_app_data_get"
                    )
                    if ready:
                        break
                    self.retries += 1
                    yield Timeout(self.poll_interval)
            self.records.append(
                TransactionRecord(command, response, issue_time, self.sim.time)
            )
        self.done = True
        self.finished.notify_delta()
