"""The AXI4-Lite library interface element.

Same contract as the PCI and Wishbone elements: applications talk to a
:class:`~repro.core.bus_interface.BusInterfaceChannel`, the shared
command loop drives the pin-level AXI4-Lite master. The element pair
(pin-accurate plus functional alias) fills the ``axi4lite`` slot of an
:class:`~repro.core.library.InterfaceLibrary`.
"""

from __future__ import annotations

from ..core.functional_interface import FunctionalBusInterface
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..osss.arbiter import Arbiter
from .master import AxiLiteMaster
from .signals import AxiLiteBus


class AxiLiteBusInterface(InterfaceElement):
    """Pin-accurate AXI4-Lite interface element."""

    BUS_NAME = "axi4lite"
    ABSTRACTION = "pin_accurate"

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: AxiLiteBus,
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
        self.master = AxiLiteMaster(self, "master", bus, clk)
        self.thread(self._dispatch, "dispatch")


class AxiLiteFunctionalInterface(FunctionalBusInterface):
    """The functional element re-tagged for the axi4lite library slot."""

    BUS_NAME = "axi4lite"
    ABSTRACTION = "functional"
