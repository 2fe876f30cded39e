"""Application modules (the units under design / stimuli generators).

An :class:`Application` models the paper's *"application performing a
series of bus transactions ... modelled to act as a high-level stimuli
generator"*: it owns an application-side global object, issues
:class:`~repro.core.command.CommandType` values through ``putCommand``
and collects read results through ``appDataGet``. Every completed
command is logged as a :class:`TransactionRecord`, giving the observable
trace that refinement and synthesis checks compare.
"""

from __future__ import annotations

import typing

from ..hdl.module import Module
from ..kernel.process import Timeout
from ..osss.global_object import GlobalObject
from .bus_interface import BusInterfaceChannel
from .command import CommandType, DataType

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..iface.element import InterfaceElement


class TransactionRecord:
    """One completed application-level transaction."""

    __slots__ = ("command", "response", "issue_time", "complete_time",
                 "corr_id")

    def __init__(
        self,
        command: CommandType,
        response: DataType | None,
        issue_time: int,
        complete_time: int,
    ) -> None:
        self.command = command
        self.response = response
        self.issue_time = issue_time
        self.complete_time = complete_time
        #: Correlation id of the issuing perform() (set by Application).
        self.corr_id: str | None = None

    @property
    def latency(self) -> int:
        return self.complete_time - self.issue_time

    def signature(self) -> tuple:
        """Time-independent observable content."""
        response_sig = self.response.signature() if self.response else None
        return (self.command.signature(), response_sig)

    def __repr__(self) -> str:
        return f"TransactionRecord({self.command!r} -> {self.response!r})"


class Application(Module):
    """A stimuli-generating application using the guarded-method API.

    :param commands: the series of bus transactions to perform.
    :param interface: optional bus interface to connect to immediately.
    :param think_time: fs of local work simulated between transactions.
    :param repeat: how many times to run the whole command list.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        commands: typing.Sequence[CommandType] = (),
        interface: InterfaceElement | None = None,
        think_time: int = 0,
        repeat: int = 1,
    ) -> None:
        super().__init__(parent, name)
        self.commands = list(commands)
        self.think_time = think_time
        self.repeat = repeat
        self.bus_port = GlobalObject(self, "bus_port", BusInterfaceChannel)
        if interface is not None:
            interface.connect_application(self.bus_port)
        self.records: list[TransactionRecord] = []
        self.finished = self.event("finished")
        self.done = False
        self._corr_seq = 0
        self.thread(self._run, "application")

    # -- trace access ---------------------------------------------------------

    def trace_signatures(self) -> list[tuple]:
        return [record.signature() for record in self.records]

    def mean_latency(self) -> float:
        if not self.records:
            return 0.0
        return sum(record.latency for record in self.records) / len(self.records)

    # -- behaviour ----------------------------------------------------------------

    def _run(self):
        for __ in range(self.repeat):
            for command in self.commands:
                if self.think_time:
                    yield Timeout(self.think_time)
                yield from self.perform(command)
        self.done = True
        self.finished.notify_delta()

    def perform(self, command: CommandType):
        """Issue one command and (for reads) wait for its data.

        Usable from subclasses or other threads via ``yield from``;
        returns the :class:`TransactionRecord`.
        """
        issue_time = self.sim.time
        # Correlation id: deterministic per (application path, sequence
        # number), so the same workload replayed at another refinement
        # level yields span-for-span matchable ids.
        command.corr_id = f"{self.path}#{self._corr_seq}"
        self._corr_seq += 1
        yield from self.bus_port.call("put_command", command)
        response: DataType | None = None
        if command.is_read:
            response = yield from self.bus_port.call("app_data_get")
        record = TransactionRecord(command, response, issue_time, self.sim.time)
        record.corr_id = command.corr_id
        self.records.append(record)
        return record


def wait_for_all(applications: typing.Sequence[Application]):
    """Generator: block until every application reports done."""
    for application in applications:
        while not application.done:
            yield application.finished
