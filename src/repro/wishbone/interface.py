"""The Wishbone library interface element.

Same pattern as :class:`~repro.core.pci_interface.PciBusInterface`: the
application talks guarded methods, the shared command loop drives the
pin-level Wishbone master. Registering this class (plus the functional
alias) in an :class:`~repro.core.library.InterfaceLibrary` gives the
library a second bus — the generalisation the paper's methodology
promises.
"""

from __future__ import annotations

from ..core.functional_interface import FunctionalBusInterface
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..iface.element import InterfaceElement
from ..iface.params import IfaceParams
from ..osss.arbiter import Arbiter
from .master import WishboneMaster
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


class WishboneFunctionalInterface(FunctionalBusInterface):
    """The functional element re-tagged for the wishbone library slot."""

    BUS_NAME = "wishbone"
    ABSTRACTION = "functional"
