"""The bus sampling helpers answer the shared width-1 vectors by identity.

Any other width-1 value must sample as its level says: a non-shared
``LogicVector(1, 1)`` or ``LogicVector(1, 0)`` (a forced or faulted
wire, a vector built by a driver) like the shared vector of the same
level, and X or Z as neither level.
"""

import pytest

from repro.axi.signals import AxiLiteBus
from repro.hdl.bitvector import BITS, LogicVector, is_one
from repro.hdl.resolved import ResolvedSignal
from repro.kernel import Simulator
from repro.pci.signals import PciBus, is_asserted
from repro.wishbone.signals import WishboneBus

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
    # request_active needs both CYC and STB; hold the other one high.
    bus.cyc.force(BITS[1])
    bus.stb.force(BITS[1])
    return bus


CASES = {
    "wishbone.cyc": (_wishbone, "cyc", WishboneBus.request_active),
    "wishbone.stb": (_wishbone, "stb", WishboneBus.request_active),
    "wishbone.ack": (_wishbone, "ack", WishboneBus.ack_active),
    "wishbone.err": (_wishbone, "err", WishboneBus.err_active),
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
