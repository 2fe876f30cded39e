"""The bus agents sample the shared width-1 vectors by identity.

Any other width-1 value must sample as its level says: a non-shared
``LogicVector(1, 1)`` or ``LogicVector(1, 0)`` (a forced or faulted
wire, a vector built by a driver) like the shared vector of the same
level, and X or Z as neither level.
"""

import pytest

from repro.axi.signals import AxiLiteBus
from repro.hdl import Clock
from repro.hdl.bitvector import BITS, LogicVector, is_one
from repro.hdl.resolved import ResolvedSignal
from repro.iface import BusOperation
from repro.kernel import NS, Simulator
from repro.pci.signals import PciBus, is_asserted
from repro.tlm import Memory
from repro.wishbone import (
    WishboneBus,
    WishboneMaster,
    WishboneMonitor,
    WishboneSlave,
)

LEVELS = {
    "shared_0": BITS[0],
    "shared_1": BITS[1],
    "fresh_0": LogicVector(1, 0),
    "fresh_1": LogicVector(1, 1),
    "x": LogicVector(1, None),
    "z": LogicVector.high_z(1),
}
#: Each fresh vector samples like the shared one of its level.
TWINS = {"fresh_0": "shared_0", "fresh_1": "shared_1"}


def _force(wire, value):
    """Make *value* itself the committed value of *wire*, as a forced
    wire or a signal fault's override does."""
    if isinstance(wire, ResolvedSignal):
        wire._value = value
    else:
        wire.force(value)
    assert wire.read() is value


def _samples(make_bus, wire_name, sample):
    """``level -> sample`` for every value of :data:`LEVELS`."""
    seen = {}
    for name, value in LEVELS.items():
        bus = make_bus(Simulator())
        _force(getattr(bus, wire_name), value)
        seen[name] = sample(bus)
    return seen


def _wishbone(sim):
    bus = WishboneBus(sim, "wb")
    # A request needs both CYC and STB; hold the other one high.
    bus.cyc.force(BITS[1])
    bus.stb.force(BITS[1])
    return bus


def _resume(thread, edges):
    """Resume an agent thread across *edges* rising edges (it waits on
    nothing else); its return value if it ended by then."""
    next(thread)
    for __ in range(edges):
        try:
            thread.send(None)
        except StopIteration as stop:
            return stop.value
    return None


def _wishbone_agents(bus):
    """What the Wishbone agents sample on the committed wires: whether
    the slave serves a request and the monitor counts a busy cycle on
    one edge, what the monitor records there, and how the master ends a
    write (ACK, ERR or timeout). Their own writes stay staged, so every
    agent sees the forced values."""
    sim = bus.sim
    clk = Clock(sim, "clock", period=10 * NS).clk
    slave = WishboneSlave(sim, "slave", bus, clk, Memory(0x100), 0, 0x100)
    monitor = WishboneMonitor(sim, "monitor", bus, clk, strict=False)
    master = WishboneMaster(sim, "master", bus, clk)
    _resume(slave._serve(), edges=1)
    _resume(monitor._watch(), edges=1)
    write = BusOperation(True, 0, data=[1], byte_lanes=bus.sel_width)
    status = _resume(master._execute(write, clk.posedge), edges=64)
    return (
        slave.requests_served,
        monitor.busy_cycles,
        [transfer.terminated_by for transfer in monitor.transfers],
        len(monitor.violations),
        status,
    )


CASES = {
    "wishbone.cyc": (_wishbone, "cyc", _wishbone_agents),
    "wishbone.stb": (_wishbone, "stb", _wishbone_agents),
    "wishbone.ack": (_wishbone, "ack", _wishbone_agents),
    "wishbone.err": (_wishbone, "err", _wishbone_agents),
    "axi.bvalid": (lambda sim: AxiLiteBus(sim, "axi"), "bvalid",
                   lambda bus: is_one(bus.bvalid.read())),
    "axi.arready": (lambda sim: AxiLiteBus(sim, "axi"), "arready",
                    lambda bus: is_one(bus.arready.read())),
    "pci.frame_n": (lambda sim: PciBus(sim, "pci"), "frame_n",
                    lambda bus: (is_asserted(bus.frame_n.read()), bus.idle)),
    "pci.devsel_n": (lambda sim: PciBus(sim, "pci"), "devsel_n",
                     lambda bus: is_asserted(bus.devsel_n.read())),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_vectors_sample_like_the_shared_ones(case):
    make_bus, wire_name, sample = CASES[case]
    seen = _samples(make_bus, wire_name, sample)
    for fresh, shared in TWINS.items():
        assert seen[fresh] == seen[shared], fresh
    # The two levels sample apart, and X and Z like neither level driven
    # active.
    assert seen["shared_0"] != seen["shared_1"]
    inactive = seen["shared_1"] if case.startswith("pci") else seen["shared_0"]
    assert seen["x"] == seen["z"] == inactive
