"""The AXI4-Lite wire bundle.

Five channels, each a VALID/READY pair plus payload wires:

* **AW** — write address (AWVALID/AWREADY, AWADDR);
* **W**  — write data (WVALID/WREADY, WDATA, WSTRB);
* **B**  — write response (BVALID/BREADY, BRESP);
* **AR** — read address (ARVALID/ARREADY, ARADDR);
* **R**  — read data (RVALID/RREADY, RDATA, RRESP).

A transfer completes on a rising clock edge where VALID and READY are
both sampled high. The single master drives the VALIDs and payloads of
AW/W/AR plus BREADY/RREADY as plain signals; the slave-driven wires
(READYs, BVALID/BRESP, RVALID/RDATA/RRESP) are resolved rails shared by
every slave on the segment — only the addressed slave drives, the rest
stay released, which the monitor checks.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.module import Module
from ..kernel.simulator import Simulator

#: AXI response encodings (BRESP/RRESP).
RESP_OKAY = 0b00
RESP_EXOKAY = 0b01
RESP_SLVERR = 0b10
RESP_DECERR = 0b11

RESP_NAMES = {
    RESP_OKAY: "okay",
    RESP_EXOKAY: "exokay",
    RESP_SLVERR: "slverr",
    RESP_DECERR: "decerr",
}

#: Default elaboration widths.
DATA_WIDTH = 32
ADDR_WIDTH = 32


class AxiLiteBus(Module):
    """All wires of one single-master AXI4-Lite segment.

    :param data_width: WDATA/RDATA width (multiple of 8); WSTRB grows
        one lane per byte.
    :param addr_width: AWADDR/ARADDR width.
    """

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        data_width: int = DATA_WIDTH,
        addr_width: int = ADDR_WIDTH,
    ) -> None:
        super().__init__(parent, name)
        if data_width < 8 or data_width % 8:
            raise ProtocolError(
                f"data_width must be a positive multiple of 8, got "
                f"{data_width}"
            )
        if addr_width < 1:
            raise ProtocolError(f"addr_width must be >= 1, got {addr_width}")
        #: Structural widths/masks the agents elaborate against.
        self.data_width = data_width
        self.addr_width = addr_width
        self.strb_width = data_width // 8
        self.strb_mask = (1 << self.strb_width) - 1
        # Write address channel (master -> slave).
        self.awvalid = self.signal("awvalid", width=1, init=0)
        self.awaddr = self.signal("awaddr", width=addr_width, init=0)
        self.awready = self.resolved_signal("awready", 1)
        # Write data channel (master -> slave).
        self.wvalid = self.signal("wvalid", width=1, init=0)
        self.wdata = self.signal("wdata", width=data_width, init=0)
        self.wstrb = self.signal("wstrb", width=self.strb_width,
                                 init=self.strb_mask)
        self.wready = self.resolved_signal("wready", 1)
        # Write response channel (slave -> master).
        self.bvalid = self.resolved_signal("bvalid", 1)
        self.bresp = self.resolved_signal("bresp", 2)
        self.bready = self.signal("bready", width=1, init=0)
        # Read address channel (master -> slave).
        self.arvalid = self.signal("arvalid", width=1, init=0)
        self.araddr = self.signal("araddr", width=addr_width, init=0)
        self.arready = self.resolved_signal("arready", 1)
        # Read data channel (slave -> master).
        self.rvalid = self.resolved_signal("rvalid", 1)
        self.rdata = self.resolved_signal("rdata", data_width)
        self.rresp = self.resolved_signal("rresp", 2)
        self.rready = self.signal("rready", width=1, init=0)
