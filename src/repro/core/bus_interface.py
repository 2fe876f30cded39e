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
``appDataGet`` / ``reset``);
:class:`~repro.iface.element.InterfaceElement` is the module shape every
library element follows: one global object towards the application,
protocol processes towards the IPs.
"""

from __future__ import annotations

from collections import deque

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
