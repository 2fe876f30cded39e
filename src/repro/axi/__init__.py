"""AXI4-Lite bus substrate: wires, master/slave engines, monitor.

The library's third pin-level bus family. AXI4-Lite is the register-
access subset of AXI4: five independent channels (AW, W, B, AR, R), each
a one-way VALID/READY handshake, single-beat transfers, 2-bit OKAY /
SLVERR / DECERR responses. Structurally it is the opposite of PCI's
multiplexed tri-state wires — separate address and data paths, no
turnaround cycles — which is exactly the kind of protocol diversity the
parameterized interface-element library is meant to absorb.
"""

from .interface import AxiLiteBusInterface, AxiLiteFunctionalInterface
from .master import AxiLiteMaster
from .monitor import AxiLiteMonitor, AxiLiteTransfer
from .signals import (
    RESP_DECERR,
    RESP_EXOKAY,
    RESP_NAMES,
    RESP_OKAY,
    RESP_SLVERR,
    AxiLiteBus,
)
from .slave import AxiLiteSlave

__all__ = [
    "AxiLiteBus",
    "AxiLiteBusInterface",
    "AxiLiteFunctionalInterface",
    "AxiLiteMaster",
    "AxiLiteMonitor",
    "AxiLiteSlave",
    "AxiLiteTransfer",
    "RESP_DECERR",
    "RESP_EXOKAY",
    "RESP_NAMES",
    "RESP_OKAY",
    "RESP_SLVERR",
]
