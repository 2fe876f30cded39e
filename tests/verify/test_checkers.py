"""Unit tests for runtime invariant checkers."""

import pytest

from repro.errors import ConsistencyError, ProtocolError
from repro.hdl import Clock, Module
from repro.kernel import NS, Simulator, Timeout
from repro.verify import InvariantChecker, OneHotChecker, Scoreboard
from repro.wishbone import WishboneBus, WishboneMonitor


@pytest.fixture
def sim():
    return Simulator()


class TestInvariantChecker:
    def test_passing_invariant(self, sim):
        top = Module(sim, "top")
        signal = top.signal("s", width=8, init=0)
        checker = InvariantChecker(
            top, "chk", signal, lambda v: v.to_int() < 100, "value too large"
        )

        def driver():
            for value in (10, 20, 99):
                signal.write(value)
                yield Timeout(10 * NS)

        sim.spawn(driver, "d")
        sim.run(100 * NS)
        assert checker.checks == 3
        assert not checker.violations

    def test_strict_violation_raises(self, sim):
        top = Module(sim, "top")
        signal = top.signal("s", width=8, init=0)
        InvariantChecker(top, "chk", signal, lambda v: v.to_int() < 100,
                         "value too large")

        def driver():
            signal.write(200)
            yield Timeout(0)

        sim.spawn(driver, "d")
        with pytest.raises(ProtocolError, match="value too large"):
            sim.run(10 * NS)

    def test_lenient_collects(self, sim):
        top = Module(sim, "top")
        signal = top.signal("s", width=8, init=0)
        checker = InvariantChecker(top, "chk", signal,
                                   lambda v: v.to_int() % 2 == 0,
                                   "odd value", strict=False)

        def driver():
            for value in (1, 2, 3):
                signal.write(value)
                yield Timeout(10 * NS)

        sim.spawn(driver, "d")
        sim.run(100 * NS)
        assert len(checker.violations) == 2


class TestOneHotChecker:
    def test_single_assertion_ok(self, sim):
        top = Module(sim, "top")
        grants = [top.signal(f"g{i}", width=1, init=0) for i in range(3)]
        checker = OneHotChecker(top, "chk", grants)

        def driver():
            grants[1].write(1)
            yield Timeout(10 * NS)
            grants[1].write(0)
            grants[2].write(1)
            yield Timeout(10 * NS)

        sim.spawn(driver, "d")
        sim.run(100 * NS)
        assert not checker.violations
        assert checker.checks > 0

    def test_double_assertion_raises(self, sim):
        top = Module(sim, "top")
        grants = [top.signal(f"g{i}", width=1, init=0) for i in range(2)]
        OneHotChecker(top, "chk", grants)

        def driver():
            grants[0].write(1)
            grants[1].write(1)
            yield Timeout(0)

        sim.spawn(driver, "d")
        with pytest.raises(ProtocolError, match="multiple asserted"):
            sim.run(10 * NS)

    def test_active_low_mode(self, sim):
        top = Module(sim, "top")
        gnt_n = [top.signal(f"g{i}", width=1, init=1) for i in range(2)]
        checker = OneHotChecker(top, "chk", gnt_n, active_low=True,
                                strict=False)

        def driver():
            gnt_n[0].write(0)
            gnt_n[1].write(0)
            yield Timeout(0)

        sim.spawn(driver, "d")
        sim.run(10 * NS)
        assert checker.violations


def _invariant(sim, strict):
    top = Module(sim, "top")
    signal = top.signal("s", width=8, init=0)
    checker = InvariantChecker(top, "chk", signal, lambda v: v.to_int() < 100,
                               "value too large", strict=strict)
    signal.force(200)
    return checker.violations, checker._check


def _one_hot(sim, strict):
    top = Module(sim, "top")
    grants = [top.signal(f"g{i}", width=1, init=1) for i in range(2)]
    checker = OneHotChecker(top, "chk", grants, strict=strict)
    return checker.violations, checker._check


def _scoreboard(sim, strict):
    board = Scoreboard("sb", strict=strict, sim=sim)
    return board.mismatches, lambda: board.observe(5)


def _monitor(sim, strict):
    top = Module(sim, "top")
    clk = Clock(top, "clock", period=10 * NS).clk
    monitor = WishboneMonitor(top, "mon", WishboneBus(top, "wb"), clk,
                              strict=strict)
    return monitor.violations, lambda: monitor._violation("ACK without CYC")


_VALUE = "LogicVector(8, '11001000')"
#: checker -> (its log entry, its source, exception class, raised message).
VIOLATIONS = {
    "invariant": (
        _invariant, f"0 fs: value too large (value={_VALUE})", "top.chk",
        ProtocolError, f"top.chk: 0 fs: value too large (value={_VALUE})",
    ),
    "one_hot": (
        _one_hot, "0 fs: multiple asserted: ['top.g0', 'top.g1']", "top.chk",
        ProtocolError, "top.chk: 0 fs: multiple asserted: ['top.g0', 'top.g1']",
    ),
    "scoreboard": (
        _scoreboard, "sb: unexpected item 5", "sb",
        ConsistencyError, "sb: unexpected item 5",
    ),
    "monitor": (
        _monitor, "0 fs: ACK without CYC", "top.mon",
        ProtocolError, "top.mon: 0 fs: ACK without CYC",
    ),
}


class TestViolationPath:
    """Checkers, scoreboards and monitors report through one path: log
    the text, report it as a detection, raise when strict."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("case", sorted(VIOLATIONS))
    def test_logged_detected_and_raised(self, case, strict):
        make, text, source, error, message = VIOLATIONS[case]
        sim = Simulator()
        log, fire = make(sim, strict)
        if strict:
            with pytest.raises(error) as raised:
                fire()
            assert type(raised.value) is error
            assert str(raised.value) == message
        else:
            fire()
        assert log == [text]
        assert [(d.source, d.message) for d in sim.detections] == [
            (source, text)
        ]

    def test_scoreboard_without_a_simulator(self):
        board = Scoreboard("sb", strict=False)
        board.observe(5)
        assert board.mismatches == ["sb: unexpected item 5"]
