"""The interface-IP library.

The methodology's payoff: *"when a proper library of such interfaces
would be provided, in order to refine the communication from a
high-level model down to its implementation, it would suffice to replace
the high level interface with the appropriate one."* This module is that
library: interface element classes indexed by (bus, abstraction level),
so a platform builder picks the right IP by name.
"""

from __future__ import annotations


from ..errors import RefinementError
from ..iface.element import InterfaceElement
from .functional_interface import FunctionalBusInterface
from .pci_interface import PciBusInterface


class InterfaceLibrary:
    """A registry of bus-interface element classes."""

    def __init__(self) -> None:
        self._elements: dict[tuple[str, str], type] = {}

    def register(self, element_cls: type) -> type:
        """Add *element_cls*; keyed by its BUS_NAME / ABSTRACTION tags."""
        if not (
            isinstance(element_cls, type)
            and issubclass(element_cls, InterfaceElement)
        ):
            raise RefinementError(
                f"{element_cls!r} is not an InterfaceElement subclass"
            )
        key = (element_cls.BUS_NAME, element_cls.ABSTRACTION)
        if key in self._elements and self._elements[key] is not element_cls:
            raise RefinementError(
                f"library already has an element for bus={key[0]!r} "
                f"abstraction={key[1]!r}: {self._elements[key].__name__}"
            )
        self._elements[key] = element_cls
        return element_cls

    def lookup(self, bus: str, abstraction: str) -> type:
        """The element class for *bus* at *abstraction* level."""
        try:
            return self._elements[(bus, abstraction)]
        except KeyError:
            raise RefinementError(
                f"no interface element for bus={bus!r} abstraction="
                f"{abstraction!r}; available: {self.available()}"
            ) from None

    def available(self) -> list[tuple[str, str]]:
        return sorted(self._elements)


def default_library() -> InterfaceLibrary:
    """The library shipped with the reproduction.

    Four bus families: PCI (the paper's example), Wishbone and AXI4-Lite
    (pin-level generalisations), and the TLM-2.0-style generic payload
    (transaction level). Each pin-level family also carries a functional
    alias, so any family can be simulated before refinement.
    """
    # Local imports: these packages build on repro.core.
    from ..axi.interface import (
        AxiLiteBusInterface,
        AxiLiteFunctionalInterface,
    )
    from ..tlm.generic_payload import (
        TlmGpBusInterface,
        TlmGpFunctionalInterface,
    )
    from ..wishbone.interface import (
        WishboneBusInterface,
        WishboneFunctionalInterface,
    )

    library = InterfaceLibrary()
    library.register(FunctionalBusInterface)
    library.register(PciBusInterface)
    library.register(WishboneFunctionalInterface)
    library.register(WishboneBusInterface)
    library.register(AxiLiteFunctionalInterface)
    library.register(AxiLiteBusInterface)
    library.register(TlmGpFunctionalInterface)
    library.register(TlmGpBusInterface)
    return library
