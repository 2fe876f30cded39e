"""The paper's primary contribution: the bus-interface design pattern.

* :class:`BusInterfaceChannel` — the global object with the paper's
  guarded methods (putCommand / getCommand / appDataGet / reset);
* :class:`PciBusInterface` — the pin-accurate PCI library element;
* :class:`FunctionalBusInterface` — the transaction-level element;
* :class:`InterfaceLibrary` — pick-the-right-IP registry;
* :class:`Application` — guarded-method stimuli generators;
* refinement helpers reproducing the Figure 3 swap.
"""

from .application import Application, TransactionRecord, wait_for_all
from .bus_interface import BusInterfaceChannel
from .command import READ, WRITE, CommandType, DataType
from .nonblocking import NonBlockingBusInterfaceChannel, PollingApplication
from .refinement import (
    PlatformHandle,
    RefinementReport,
    RunResult,
    compare_refinement,
)
from .workload import expected_memory_image, generate_workload

#: Concrete element classes resolved lazily: they subclass
#: repro.iface.InterfaceElement, which itself builds on this package —
#: eager imports here would close the cycle when repro.iface is the
#: import entry point.
_ELEMENT_NAMES = {
    "FunctionalBusInterface": "functional_interface",
    "PciBusInterface": "pci_interface",
    "InterfaceLibrary": "library",
    "default_library": "library",
}


def __getattr__(name: str):
    module_name = _ELEMENT_NAMES.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Application",
    "BusInterfaceChannel",
    "CommandType",
    "DataType",
    "FunctionalBusInterface",
    "InterfaceLibrary",
    "NonBlockingBusInterfaceChannel",
    "PciBusInterface",
    "PollingApplication",
    "PlatformHandle",
    "READ",
    "RefinementReport",
    "RunResult",
    "TransactionRecord",
    "WRITE",
    "compare_refinement",
    "default_library",
    "expected_memory_image",
    "generate_workload",
    "wait_for_all",
]
