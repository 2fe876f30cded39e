"""Unit tests for resolved (tri-state, multi-driver) signals."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WidthError
from repro.fault import BitFlipFault, StuckAtFault, TransientGlitchFault
from repro.hdl import LogicVector, Module, ResolvedSignal, Signal
from repro.hdl.bitvector import BITS, resolve_vectors
from repro.kernel import NS, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestDrivers:
    def test_driver_handles_are_per_name(self, sim):
        bus = ResolvedSignal(sim, "bus", 8)
        a1 = bus.get_driver("a")
        a2 = bus.get_driver("a")
        b = bus.get_driver("b")
        assert a1 is a2
        assert a1 is not b
        assert set(bus.driver_names) == {"a", "b"}

    def test_initial_value_floats(self, sim):
        bus = ResolvedSignal(sim, "bus", 8)
        assert set(str(bus.read())) == {"Z"}

    def test_driver_width_checked(self, sim):
        bus = ResolvedSignal(sim, "bus", 8)
        driver = bus.get_driver("a")
        with pytest.raises(WidthError):
            driver.write(LogicVector(4, 0))

    @pytest.mark.parametrize("width", [0, -1])
    def test_non_positive_width_rejected(self, sim, width):
        with pytest.raises(WidthError, match="width must be positive"):
            Signal(sim, "line", width)
        with pytest.raises(WidthError, match="width must be positive"):
            ResolvedSignal(sim, "bus", width)

    def test_width1_int_writes_share_vectors(self, sim):
        bus = ResolvedSignal(sim, "bus", 1)
        driver = bus.get_driver("a")
        driver.write(1)
        assert driver.contribution is BITS[1]
        driver.write(0)
        assert driver.contribution is BITS[0]
        driver.write(True)
        assert driver.contribution == BITS[1]


class TestResolutionOverTime:
    def test_single_driver(self, sim):
        bus = ResolvedSignal(sim, "bus", 4)
        driver = bus.get_driver("a")

        def proc():
            driver.write(0b1010)
            yield Timeout(0)

        sim.spawn(proc, "p")
        sim.run(10)
        assert bus.read().to_int() == 0b1010

    def test_release_returns_to_z(self, sim):
        bus = ResolvedSignal(sim, "bus", 4)
        driver = bus.get_driver("a")

        def proc():
            driver.write(0xF)
            yield Timeout(10 * NS)
            driver.release()
            yield Timeout(0)

        sim.spawn(proc, "p")
        sim.run(20 * NS)
        assert set(str(bus.read())) == {"Z"}

    def test_bus_handover(self, sim):
        """Classic turnaround: driver A releases, driver B takes over."""
        bus = ResolvedSignal(sim, "bus", 8)
        a = bus.get_driver("a")
        b = bus.get_driver("b")
        trace = []

        def proc_a():
            a.write(0x11)
            yield Timeout(10 * NS)
            a.release()

        def proc_b():
            yield Timeout(20 * NS)
            b.write(0x22)
            yield Timeout(0)

        def probe():
            yield Timeout(5 * NS)
            trace.append(str(bus.read()))
            yield Timeout(10 * NS)
            trace.append(str(bus.read()))
            yield Timeout(10 * NS)
            trace.append(str(bus.read()))

        sim.spawn(proc_a, "a")
        sim.spawn(proc_b, "b")
        sim.spawn(probe, "probe")
        sim.run(50 * NS)
        assert trace == ["00010001", "ZZZZZZZZ", "00100010"]

    def test_contention_produces_x(self, sim):
        bus = ResolvedSignal(sim, "bus", 4)
        a = bus.get_driver("a")
        b = bus.get_driver("b")

        def proc():
            a.write(0b1111)
            b.write(0b0000)
            yield Timeout(0)

        sim.spawn(proc, "p")
        sim.run(10)
        assert str(bus.read()) == "XXXX"

    def test_changed_event(self, sim):
        bus = ResolvedSignal(sim, "bus", 4)
        driver = bus.get_driver("a")
        wakes = []

        def watcher():
            while True:
                yield bus.changed
                wakes.append(str(bus.read()))

        def proc():
            yield Timeout(10 * NS)
            driver.write(5)
            yield Timeout(10 * NS)
            driver.write(5)  # no change: no event
            yield Timeout(10 * NS)
            driver.release()

        sim.spawn(watcher, "w")
        sim.spawn(proc, "p")
        sim.run(100 * NS)
        assert wakes == ["0101", "ZZZZ"]


def _held_rail():
    """A byte-wide rail that driver a drives to 0x11 at 10 ns and then
    holds. The idle driver b releases again every 10 ns, so the rail is
    asked to update while no contribution changes."""
    sim = Simulator()
    top = Module(sim, "top")
    bus = top.resolved_signal("bus", width=8)
    a, b = bus.get_driver("a"), bus.get_driver("b")
    committed = []

    def writer():
        yield Timeout(10 * NS)
        a.write(0x11)
        while True:
            yield Timeout(10 * NS)
            b.release()

    def sampler():
        while True:
            yield bus.changed
            committed.append((sim.time // NS, bus.read().to_int_default(-1)))

    sim.spawn(writer, "w")
    sim.spawn(sampler, "sampler")
    sim.elaborate()
    return sim, bus, committed


class TestOverridesOnHeldRail:
    """A fault overrides the committed value out of band; the next update
    of the rail commits the driven value again, though no driver moved."""

    def test_unfaulted_baseline(self):
        sim, __, committed = _held_rail()
        sim.run(60 * NS)
        assert committed == [(10, 0x11)]

    def test_glitch_restore_commits_driven_value(self):
        sim, __, committed = _held_rail()
        TransientGlitchFault("top.bus", window=(22 * NS, 28 * NS),
                             value=0x55).arm(sim)
        sim.run(60 * NS)
        assert committed == [(10, 0x11), (22, 0x55), (28, 0x11)]

    def test_stuck_at_release_commits_driven_value(self):
        sim, __, committed = _held_rail()
        fault = StuckAtFault("top.bus", window=(25 * NS, 45 * NS), value=0xFF)
        fault.arm(sim)
        sim.run(60 * NS)
        assert committed == [(10, 0x11), (25, 0xFF), (45, 0x11)]
        # The clamp plus the updates at 30 and 40 ns it intercepted.
        assert fault.activations == 3

    def test_bit_flip_undone_by_next_update(self):
        sim, __, committed = _held_rail()
        fault = BitFlipFault("top.bus", window=(15 * NS, 60 * NS), bit=7)
        fault.arm(sim)
        sim.run(60 * NS)
        # The 20 ns update commits nothing and is flipped; the 30 ns one
        # brings the driven value back.
        assert committed == [(10, 0x11), (20, 0x91), (30, 0x11)]
        assert fault.activations == 1

    def test_checkpoint_restore_resolves_again(self):
        sim, bus, committed = _held_rail()
        sim.run(15 * NS)
        checkpoint = sim.checkpoint()
        # A driver moved since the checkpoint: restore moves it back.
        bus.get_driver("a").write(0x22)
        sim.run(10 * NS)
        sim.restore(checkpoint)
        sim.run(1 * NS)
        # Drivers as at the checkpoint, committed value overridden: the
        # restore's writes change no contribution and still commit.
        TransientGlitchFault("top.bus", window=(32 * NS, 50 * NS),
                             value=0x55).arm(sim)
        sim.run(9 * NS)
        sim.restore(checkpoint)
        sim.run(1 * NS)
        assert committed == [(10, 0x11), (15, 0x22), (25, 0x11),
                             (32, 0x55), (35, 0x11)]


# -- property: change-driven resolution equals a full resolution -------------


@st.composite
def _rail_script(draw):
    """A width, a driver count and a list of deltas. Each delta is a list
    of (driver, kind, number, literal) writes; the kinds are an int, a
    vector, a 0/1/X/Z literal, a fresh all-Z vector, a rewrite of the
    driver's current contribution, and a release."""
    width = draw(st.sampled_from([1, 4, 32]))
    n_drivers = draw(st.integers(min_value=1, max_value=4))
    write = st.tuples(
        st.integers(min_value=0, max_value=n_drivers - 1),
        st.sampled_from(["int", "vector", "literal", "all_z", "same",
                         "release"]),
        st.integers(min_value=-(1 << 34), max_value=1 << 34),
        st.text(alphabet="01XZ", min_size=width, max_size=width),
    )
    deltas = draw(st.lists(st.lists(write, max_size=4), min_size=1,
                           max_size=12))
    return width, n_drivers, deltas


def _apply(driver, width, kind, number, literal, current):
    """Perform one write; returns the contribution it should leave."""
    if kind == "int":
        driver.write(number)
        return LogicVector(width, number)
    if kind == "vector":
        driver.write(LogicVector(width, number))
        return LogicVector(width, number)
    if kind == "literal":
        driver.write(literal)
        return LogicVector(width, literal)
    if kind == "all_z":
        driver.write(LogicVector.high_z(width))
    elif kind == "same":
        driver.write(driver.contribution)
        return current
    else:
        driver.release()
    return LogicVector.high_z(width)


def _check_rail_script(width, n_drivers, deltas):
    """Run *deltas* on a fresh rail, one delta cycle each, and check every
    committed value against ``resolve_vectors`` over a model of the live
    contributions; returns the committed values."""
    sim = Simulator()
    bus = ResolvedSignal(sim, "bus", width)
    drivers = [bus.get_driver(f"d{i}") for i in range(n_drivers)]
    model = [LogicVector.high_z(width)] * n_drivers
    committed = []

    def script():
        for delta in deltas:
            for index, kind, number, literal in delta:
                model[index] = _apply(drivers[index], width, kind, number,
                                      literal, model[index])
                assert drivers[index].contribution == model[index]
            yield Timeout(0)
            assert bus.read() == resolve_vectors(width, model), (
                bus.read(), model)
            committed.append(bus.read())

    sim.spawn(script, "script")
    sim.run(10 * NS)
    assert len(committed) == len(deltas)
    return committed


@settings(max_examples=80, deadline=None)
@given(_rail_script())
def test_committed_value_is_full_resolution(script):
    _check_rail_script(*script)


@pytest.mark.parametrize("width", [1, 4, 32])
def test_contention_enters_and_leaves(width):
    """Two and three drivers contend, then fall back to one and none."""
    ones, zeros = (1 << width) - 1, 0
    z = "Z" * width
    x_low = "Z" * (width - 1) + "X"
    committed = _check_rail_script(width, 3, [
        [(0, "int", ones, z)],
        [(1, "int", zeros, z)],
        [(2, "literal", 0, x_low)],
        [(1, "release", 0, z), (2, "release", 0, z)],
        [(0, "same", 0, z)],
        [(0, "all_z", 0, z)],
    ])
    unknown = LogicVector.unknown(width)
    assert committed[1] == unknown and committed[2] == unknown
    assert committed[3] is committed[4]
    assert committed[3].to_int() == ones
    assert set(str(committed[5])) == {"Z"}
