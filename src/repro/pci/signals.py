"""The PCI wire bundle.

:class:`PciBus` owns every shared wire of one bus segment. The shared
control lines (FRAME#, IRDY#, TRDY#, DEVSEL#, STOP#) and the multiplexed
AD / C/BE# / PAR lines are resolved (tri-stateable) signals: agents drive
them through per-agent :class:`~repro.hdl.resolved.BusDriver` handles and
release them to ``Z`` when not the owner, exactly as on the real bus.

Sampling helpers treat an undriven (``Z``) control line as deasserted —
the behaviour the bus pull-ups give on real hardware.
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..hdl.bitvector import is_zero
from ..hdl.module import Module
from ..hdl.resolved import ResolvedSignal
from ..hdl.signal import Signal
from ..kernel.simulator import Simulator
from .constants import AD_WIDTH, byte_enable_mask, cbe_width_for

#: Active-low control line sampled asserted (driven to 0).
is_asserted = is_zero


class PciBus(Module):
    """All shared wires of one PCI segment, plus per-master REQ#/GNT#.

    :param n_masters: how many REQ#/GNT# pairs to create.
    :param ad_width: elaboration width of the multiplexed AD lines; the
        C/BE# width and the byte-enable/data masks derive from it.
    :raises ProtocolError: below 32 bits, where C/BE# has fewer than the
        four lines the bus command rides on in the address phase.
    """

    def __init__(
        self,
        parent: "Module | Simulator",
        name: str,
        n_masters: int = 1,
        ad_width: int = AD_WIDTH,
    ) -> None:
        cbe_width = cbe_width_for(ad_width)
        if cbe_width < 4:
            raise ProtocolError(
                f"a {ad_width}-bit PCI bus has {cbe_width} C/BE# line(s), but "
                f"the 4-bit bus command needs C/BE#[3:0]: elaborate AD at 32 "
                f"bits or wider"
            )
        super().__init__(parent, name)
        self.n_masters = n_masters
        #: Structural widths/masks the agents elaborate against.
        self.ad_width = ad_width
        self.cbe_width = cbe_width
        self.byte_enable_mask = byte_enable_mask(ad_width)
        self.frame_n = self.resolved_signal("frame_n", 1)
        self.irdy_n = self.resolved_signal("irdy_n", 1)
        self.trdy_n = self.resolved_signal("trdy_n", 1)
        self.devsel_n = self.resolved_signal("devsel_n", 1)
        self.stop_n = self.resolved_signal("stop_n", 1)
        self.ad = self.resolved_signal("ad", ad_width)
        self.cbe_n = self.resolved_signal("cbe_n", self.cbe_width)
        self.par = self.resolved_signal("par", 1)
        self.req_n: list[Signal] = [
            self.signal(f"req_n_{i}", width=1, init=1) for i in range(n_masters)
        ]
        self.gnt_n: list[Signal] = [
            self.signal(f"gnt_n_{i}", width=1, init=1) for i in range(n_masters)
        ]

    # -- sampling helpers (committed values, i.e. as of the clock edge) -------

    @property
    def idle(self) -> bool:
        """Bus idle: FRAME# and IRDY# both deasserted."""
        return not (
            is_asserted(self.frame_n._value) or is_asserted(self.irdy_n._value)
        )

    def shared_signals(self) -> list[ResolvedSignal]:
        """The tri-state wires, in waveform display order."""
        return [
            self.frame_n,
            self.irdy_n,
            self.trdy_n,
            self.devsel_n,
            self.stop_n,
            self.ad,
            self.cbe_n,
            self.par,
        ]


class PciAgentPins:
    """One agent's driver handles on the shared wires.

    Created per master/target so each drives (and releases) its own
    contribution to the resolved lines.
    """

    def __init__(self, bus: PciBus, agent_path: str) -> None:
        self.bus = bus
        self.frame_n = bus.frame_n.get_driver(agent_path)
        self.irdy_n = bus.irdy_n.get_driver(agent_path)
        self.trdy_n = bus.trdy_n.get_driver(agent_path)
        self.devsel_n = bus.devsel_n.get_driver(agent_path)
        self.stop_n = bus.stop_n.get_driver(agent_path)
        self.ad = bus.ad.get_driver(agent_path)
        self.cbe_n = bus.cbe_n.get_driver(agent_path)
        self.par = bus.par.get_driver(agent_path)

    def release_all(self) -> None:
        for driver in (
            self.frame_n,
            self.irdy_n,
            self.trdy_n,
            self.devsel_n,
            self.stop_n,
            self.ad,
            self.cbe_n,
            self.par,
        ):
            driver.release()
