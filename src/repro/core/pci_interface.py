"""The PCI library element: pin-accurate bus interface.

This is the representative library component the paper implements: *"an
handler of a simplified version of the PCI bus ... receives requests by
an application in the form of function and procedure invocation and
translates them into pin-level PCI operation requests."*

Structure (paper, Section 1): the interface module consists of

* one global object (the :class:`~repro.core.bus_interface.
  BusInterfaceChannel`) to communicate with the application, and
* several processes implementing the pin-level PCI protocol — here the
  command dispatcher plus the :class:`~repro.pci.master.PciMaster`
  engine it drives.
"""

from __future__ import annotations

from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..osss.arbiter import Arbiter
from ..pci.constants import CMD_MEM_READ, CMD_MEM_WRITE, STATUS_OK
from ..pci.master import PciMaster
from ..pci.signals import PciBus
from ..pci.transaction import PciOperation
from .bus_interface import BusInterfaceChannel
from .command import CommandType


class PciBusInterface(InterfaceElement):
    """Pin-accurate PCI interface element.

    :param bus: the PCI wire bundle to attach to.
    :param clk: the bus clock.
    :param master_index: which REQ#/GNT# pair to use.

    With recovery armed, failed operations (master abort, target abort,
    read-parity mismatch) are replayed from the command.
    """

    BUS_NAME = "pci"
    ABSTRACTION = "pin_accurate"

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: PciBus,
        clk: Signal,
        master_index: int = 0,
        arbiter: Arbiter | None = None,
        channel_cls: type = BusInterfaceChannel,
        params: IfaceParams | None = None,
    ) -> None:
        if params is None:
            params = IfaceParams(data_width=bus.ad_width)
        super().__init__(parent, name, arbiter, params, channel_cls)
        self.check_bus_widths(data_width=bus.ad_width)
        self.bus = bus
        self.clk = clk
        self.master = PciMaster(self, "master", bus, clk, master_index)
        self.thread(self._dispatch, "dispatch")

    def _apply_recovery(self, recovery) -> None:
        """Arm PERR#-style read-parity checking in the master engine."""
        self.master.check_parity = bool(
            getattr(recovery, "check_parity", False)
        )

    @staticmethod
    def _operation(command: CommandType) -> PciOperation:
        """Lower *command* to the memory read or write the master runs."""
        if command.is_write:
            operation = PciOperation(
                CMD_MEM_WRITE,
                command.address,
                data=command.data,
                byte_enables=command.byte_enables,
            )
        else:
            operation = PciOperation(
                CMD_MEM_READ,
                command.address,
                count=command.count,
                byte_enables=command.byte_enables,
            )
        operation.corr_id = command.corr_id
        return operation

    @staticmethod
    def _operation_failure(operation) -> str | None:
        """The status check, plus read parity."""
        if operation.status != STATUS_OK:
            return operation.status
        if operation.parity_error:
            return "parity"
        return None
