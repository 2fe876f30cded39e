"""Wishbone B3 wire bundle (the library's second bus).

The paper's payoff is a *library* of interface elements, one per bus.
Besides PCI we ship a classic-cycle Wishbone bus: single-master,
point-to-multipoint, synchronous, with ACK/ERR termination. Unlike PCI
the wires are simple single-driver signals — no tri-state — which also
exercises the pattern on a very different protocol style.

Classic cycle: the master asserts CYC+STB with ADR/WE/SEL (and DAT_W for
writes); the addressed slave answers with ACK (DAT_R valid for reads) or
ERR. Keeping CYC asserted across consecutive STBs forms a burst.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.module import Module
from ..kernel.simulator import Simulator


#: Default width of the address and data paths (elaboration defaults;
#: a parameterized bus derives SEL width and masks from its own widths).
ADDR_WIDTH = 32
DATA_WIDTH = 32
SEL_WIDTH = DATA_WIDTH // 8


class WishboneBus(Module):
    """All wires of one single-master Wishbone segment.

    The master drives the ``_o`` group; slaves share the ``_i`` group
    (each slave only drives when addressed — enforced by the slaves'
    decode, checked by the monitor).

    :param data_width: DAT_W/DAT_R width (multiple of 8); SEL grows one
        lane per byte.
    :param addr_width: ADR width.
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
        self.sel_width = data_width // 8
        self.sel_mask = (1 << self.sel_width) - 1
        # Master outputs.
        self.cyc = self.signal("cyc", width=1, init=0)
        self.stb = self.signal("stb", width=1, init=0)
        self.we = self.signal("we", width=1, init=0)
        self.adr = self.signal("adr", width=addr_width, init=0)
        self.dat_w = self.signal("dat_w", width=data_width, init=0)
        self.sel = self.signal("sel", width=self.sel_width,
                               init=self.sel_mask)
        # Slave outputs (resolved so several slaves can share the rail;
        # exactly one may drive at a time).
        self.ack = self.resolved_signal("ack", 1)
        self.err = self.resolved_signal("err", 1)
        self.dat_r = self.resolved_signal("dat_r", data_width)
