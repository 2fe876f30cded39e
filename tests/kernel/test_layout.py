"""Fixed-layout kernel and record objects.

Every built platform creates thousands of events and processes, and
every simulated transaction creates its records, so these classes
declare ``__slots__``: no instance carries a ``__dict__``, and an
undeclared attribute raises. ``Event`` creates its callback list on
first use; the second half pins that behaviour.
"""

import gc

import pytest

from repro.axi.monitor import AxiLiteTransfer
from repro.core.application import TransactionRecord
from repro.core.command import DataType
from repro.core.workload import generate_workload
from repro.flow.platforms import build_platform
from repro.hdl.resolved import BusDriver
from repro.kernel import MS, NS, Simulator, Timeout
from repro.kernel.event import Event
from repro.kernel.process import Process
from repro.osss.request import MethodRequest
from repro.pci.transaction import PciTransaction
from repro.synthesis.rtl_channel import ChannelCallRecord
from repro.wishbone.monitor import WishboneTransfer

SLOTTED = (
    Event, Process, BusDriver, MethodRequest, WishboneTransfer,
    AxiLiteTransfer, PciTransaction, ChannelCallRecord, TransactionRecord,
    DataType,
)
BUSES = ("pci", "wishbone", "axi4lite", "tlmgp")


@pytest.fixture(scope="module")
def live_instances():
    """Every live instance of a slotted class, by class, while one run
    synthesized cell per bus is still referenced."""
    bundles = []
    for bus in BUSES:
        bundle = build_platform(
            [generate_workload(seed=55, n_commands=12)], bus=bus,
            synthesize=True,
        )
        bundle.run(200 * MS)
        assert all(app.finished for app in bundle.handle.applications)
        bundles.append(bundle)
    found = {klass: [] for klass in SLOTTED}
    for obj in gc.get_objects():
        klass = type(obj)
        if klass in found:
            found[klass].append(obj)
    yield found
    del bundles


@pytest.mark.parametrize("klass", SLOTTED, ids=lambda k: k.__name__)
class TestFixedLayout:
    def test_live_instances_have_no_dict(self, live_instances, klass):
        instances = live_instances[klass]
        assert instances, f"no live {klass.__name__} after the runs"
        assert not any(hasattr(obj, "__dict__") for obj in instances)

    def test_undeclared_attribute_raises(self, live_instances, klass):
        obj = live_instances[klass][0]
        with pytest.raises(AttributeError):
            obj.undeclared_field = 1


@pytest.fixture
def sim():
    return Simulator()


def _notify_at(sim, event, *times):
    def driver():
        now = 0
        for time in times:
            yield Timeout(time - now)
            now = time
            event.notify()

    sim.spawn(driver, "driver")


class TestLazyEventLists:
    def test_fresh_event_has_no_lists(self, sim):
        event = sim.event("e")
        assert event._callbacks is None
        event.notify()
        assert event._callbacks is None

    def test_callback_added_by_a_callback_fires_on_the_next_trigger(self, sim):
        event = sim.event("e")
        log = []

        def first():
            log.append(("first", sim.time))
            event.add_callback(second)

        def second():
            log.append(("second", sim.time))

        event.add_callback(first)
        _notify_at(sim, event, 10 * NS, 20 * NS, 30 * NS)
        sim.run(100 * NS)
        assert log == [("first", 10 * NS), ("second", 20 * NS)]
