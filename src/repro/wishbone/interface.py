"""The Wishbone library interface element.

Same pattern as :class:`~repro.core.pci_interface.PciBusInterface`: the
application talks guarded methods, the shared command loop drives the
pin-level Wishbone master. Registering this class (plus the functional
alias) in an :class:`~repro.core.library.InterfaceLibrary` gives the
library a second bus — the generalisation the paper's methodology
promises.
"""

from __future__ import annotations

from ..core.command import CommandType
from ..core.functional_interface import FunctionalBusInterface
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..osss.arbiter import Arbiter
from .master import WishboneMaster, WishboneOperation
from .signals import WishboneBus


class WishboneBusInterface(InterfaceElement):
    """Pin-accurate Wishbone interface element."""

    BUS_NAME = "wishbone"
    ABSTRACTION = "pin_accurate"

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: WishboneBus,
        clk: Signal,
        arbiter: Arbiter | None = None,
        params: IfaceParams | None = None,
    ) -> None:
        if params is None:
            params = IfaceParams(
                data_width=bus.data_width, addr_width=bus.addr_width
            )
        super().__init__(parent, name, arbiter, params)
        self.check_bus_widths(
            data_width=bus.data_width, addr_width=bus.addr_width
        )
        self.bus = bus
        self.clk = clk
        self.master = WishboneMaster(self, "master", bus, clk)
        self.thread(self._dispatch, "dispatch")

    def _operation(self, command: CommandType) -> WishboneOperation:
        sel_bits = self.bus.sel_width
        if command.is_write:
            operation = WishboneOperation.write(
                command.address, command.data, sel=command.byte_enables,
                sel_bits=sel_bits,
            )
        else:
            operation = WishboneOperation.read(
                command.address, count=command.count,
                sel=command.byte_enables, sel_bits=sel_bits,
            )
        operation.corr_id = command.corr_id
        return operation


class WishboneFunctionalInterface(FunctionalBusInterface):
    """The functional element re-tagged for the wishbone library slot."""

    BUS_NAME = "wishbone"
    ABSTRACTION = "functional"
