"""Unit tests for the kernel-level fault models.

Each model is exercised on a purpose-built micro design (one signal and
a writer process, or one mailbox global object) so the perturbation is
visible in isolation, away from the platform machinery.
"""

import pytest

from repro.fault import (
    FAULT_KINDS,
    BitFlipFault,
    CommandCorruptionFault,
    DelayedGrantFault,
    DroppedRequestFault,
    FaultInjectionError,
    StuckAtFault,
    TransientGlitchFault,
    make_fault,
)
from repro.fault.models import record_trajectory
from repro.hdl import Module
from repro.instrument.probes import (
    FAULT_ACTIVATE,
    METHOD_GUARD_BLOCK,
    PROCESS_ACTIVATE,
    SIGNAL_COMMIT,
)
from repro.kernel import NS, Simulator, Timeout
from repro.osss import GlobalObject, guarded_method


class _Recorder:
    def __init__(self):
        self.changes = []

    def record_change(self, time, signal, value):
        self.changes.append((time, signal.name, value.to_int()
                             if hasattr(value, "to_int") else value))


def _signal_rig():
    """A byte-wide signal written with 1..8 every 10 ns."""
    sim = Simulator()
    top = Module(sim, "top")
    data = top.signal("data", width=8, init=0)

    def writer():
        for i in range(1, 9):
            yield Timeout(10 * NS)
            data.write(i)

    sim.spawn(writer, "w")
    recorder = _Recorder()
    sim.add_tracer(recorder)
    sim.elaborate()
    return sim, data, recorder


def _values(recorder):
    return [(t, v) for t, __, v in recorder.changes]


class TestStuckAt:
    def test_holds_level_inside_window(self):
        sim, data, recorder = _signal_rig()
        fault = StuckAtFault("top.data", window=(15 * NS, 45 * NS),
                             value=0xFF)
        fault.arm(sim)
        sim.run(100 * NS)
        values = _values(recorder)
        # Clamped at window start, writes during the window suppressed.
        assert (15 * NS, 0xFF) in values
        for time, value in values:
            if 15 * NS <= time < 45 * NS:
                assert value == 0xFF
        # Writes after the window show through again.
        assert (50 * NS, 5) in values
        assert fault.activations >= 1
        assert data.read().to_int() == 8

    def test_windowless_fault_is_always_on(self):
        sim, data, recorder = _signal_rig()
        StuckAtFault("top.data", value=0x42).arm(sim)
        sim.run(100 * NS)
        # No write ever shows through; the line reads the stuck level.
        committed = {v for __, v in _values(recorder)}
        assert committed <= {0x42}
        assert data.read().to_int() == 0x42

    def test_bad_window_rejected(self):
        with pytest.raises(FaultInjectionError, match="end before start"):
            StuckAtFault("top.data", window=(50, 10))

    def test_wrong_target_type_rejected(self):
        sim, __, __unused = _signal_rig()
        fault = StuckAtFault("top", value=1)
        with pytest.raises(FaultInjectionError, match="cannot target"):
            fault.arm(sim)


class TestBitFlip:
    def test_first_commit_in_window_flipped_once(self):
        sim, data, recorder = _signal_rig()
        fault = BitFlipFault("top.data", window=(15 * NS, 100 * NS), bit=7)
        fault.arm(sim)
        sim.run(100 * NS)
        values = _values(recorder)
        # The 20 ns write of 2 commits, then is overridden to 2|0x80.
        assert (20 * NS, 2 | 0x80) in values
        # One-shot: the 30 ns write commits clean.
        assert (30 * NS, 3) in values
        assert fault.activations == 1

    def test_bit_wraps_to_width(self):
        sim, data, recorder = _signal_rig()
        fault = BitFlipFault("top.data", window=(15 * NS, 100 * NS), bit=8)
        fault.arm(sim)
        sim.run(100 * NS)
        assert (20 * NS, 2 ^ 1) in _values(recorder)


class TestGlitch:
    def test_strike_and_restore(self):
        sim, data, recorder = _signal_rig()
        fault = TransientGlitchFault(
            "top.data", window=(22 * NS, 28 * NS), value=0x55
        )
        fault.arm(sim)
        sim.run(100 * NS)
        values = _values(recorder)
        assert (22 * NS, 0x55) in values
        # Restored to the pre-glitch level at window end.
        assert (28 * NS, 2) in values
        assert fault.activations == 1
        assert data.read().to_int() == 8

    def test_duration_defaults_to_window_span(self):
        fault = TransientGlitchFault("x", window=(100, 700))
        assert fault.duration == 600

    def test_window_required(self):
        with pytest.raises(FaultInjectionError, match="window"):
            TransientGlitchFault("top.data")


# -- signal faults on the kernel's fast commit path ----------------------------
#
# Width-1 int writes commit shared vectors and resolved drivers release to
# one shared all-Z vector; the faults must still intercept both. A
# ``signal.commit`` subscriber logs every commit, the fault overrides'
# included. Every scenario runs with process probes off and on (a no-op
# ``process.activate`` subscriber), so each evaluation loop of the
# scheduler is covered.

#: Writes of the width-1 rig, one every 10 ns from 10 ns on.
_LINE_PATTERN = (1, 0, 1, 1, 0, 1, 0, 1)


def _commit_log(sim, target, probes):
    """``(time, value)`` of every commit of *target*."""
    committed = []

    def record(time, signal, value):
        if signal is target:
            committed.append((time, value.to_int_default(-1)))

    sim.probes.subscribe(SIGNAL_COMMIT, record)
    if probes:
        sim.probes.subscribe(PROCESS_ACTIVATE, lambda *__: None)
    return committed


def _line_rig(probes):
    """A width-1 signal written with int 0/1, plus a posedge waiter;
    returns (sim, line, posedge times, committed values)."""
    sim = Simulator()
    top = Module(sim, "top")
    line = top.signal("line", width=1, init=0)
    posedges = []

    def writer():
        for level in _LINE_PATTERN:
            yield Timeout(10 * NS)
            line.write(level)

    def rising():
        while True:
            yield line.posedge
            posedges.append(sim.time)

    sim.spawn(writer, "w")
    sim.spawn(rising, "rising")
    committed = _commit_log(sim, line, probes)
    sim.elaborate()
    return sim, line, posedges, committed


def _bus_rig(probes):
    """A byte-wide resolved bus whose two drivers take turns: driver a
    drives odd values and b even ones, each releasing the other."""
    sim = Simulator()
    top = Module(sim, "top")
    bus = top.resolved_signal("bus", width=8)
    a, b = bus.get_driver("a"), bus.get_driver("b")

    def writer():
        for value in range(1, 9):
            yield Timeout(10 * NS)
            active, idle = (a, b) if value % 2 else (b, a)
            active.write(value)
            idle.release()

    sim.spawn(writer, "w")
    committed = _commit_log(sim, bus, probes)
    sim.elaborate()
    return sim, bus, committed


def _ns(pairs):
    return [(time * NS, value) for time, value in pairs]


@pytest.mark.parametrize("probes", [False, True], ids=["probes_off", "probes_on"])
class TestFastPathSignalFaults:
    def test_unfaulted_line_baseline(self, probes):
        sim, __, posedges, committed = _line_rig(probes)
        sim.run(100 * NS)
        assert committed == _ns([(10, 1), (20, 0), (30, 1), (50, 0),
                                 (60, 1), (70, 0), (80, 1)])
        assert posedges == [t * NS for t in (10, 30, 60, 80)]

    def test_stuck_at_on_line(self, probes):
        sim, line, posedges, committed = _line_rig(probes)
        fault = StuckAtFault("top.line", window=(25 * NS, 65 * NS), value=0)
        fault.arm(sim)
        assert "_perform_update" in vars(line)
        sim.run(100 * NS)
        # The writes at 30..60 ns are swallowed by the hook; the line
        # heals at 65 ns and the next rising write shows through.
        assert committed == _ns([(10, 1), (20, 0), (80, 1)])
        assert posedges == [10 * NS, 80 * NS]
        # The clamp at 25 ns plus one interception per write in the window.
        assert fault.activations == 5

    def test_bit_flip_on_line(self, probes):
        sim, line, posedges, committed = _line_rig(probes)
        fault = BitFlipFault("top.line", window=(25 * NS, 100 * NS), bit=0)
        fault.arm(sim)
        assert "_perform_update" in vars(line)
        sim.run(100 * NS)
        # The 30 ns rise commits, then the hook flips it back to 0 in the
        # same update phase: the waiter still sees exactly one posedge.
        assert committed == _ns([(10, 1), (20, 0), (30, 1), (30, 0), (40, 1),
                                 (50, 0), (60, 1), (70, 0), (80, 1)])
        assert posedges == [t * NS for t in (10, 30, 40, 60, 80)]
        assert fault.activations == 1

    def test_glitch_on_line(self, probes):
        sim, __, posedges, committed = _line_rig(probes)
        fault = TransientGlitchFault(
            "top.line", window=(22 * NS, 28 * NS), value=1
        )
        fault.arm(sim)
        sim.run(100 * NS)
        assert committed == _ns([(10, 1), (20, 0), (22, 1), (28, 0), (30, 1),
                                 (50, 0), (60, 1), (70, 0), (80, 1)])
        assert posedges == [t * NS for t in (10, 22, 30, 60, 80)]
        assert fault.activations == 1

    def test_unfaulted_bus_baseline(self, probes):
        sim, __, committed = _bus_rig(probes)
        sim.run(100 * NS)
        assert committed == _ns([(t, t // 10) for t in range(10, 90, 10)])

    def test_stuck_at_on_resolved_bus(self, probes):
        sim, bus, committed = _bus_rig(probes)
        fault = StuckAtFault("top.bus", window=(25 * NS, 45 * NS), value=0xFF)
        fault.arm(sim)
        assert "_perform_update" in vars(bus)
        sim.run(100 * NS)
        # At 45 ns the release re-resolves the live drivers (b drives 4).
        assert committed == _ns([(10, 1), (20, 2), (25, 0xFF), (45, 4),
                                 (50, 5), (60, 6), (70, 7), (80, 8)])
        assert fault.activations == 3

    def test_bit_flip_on_resolved_bus(self, probes):
        sim, bus, committed = _bus_rig(probes)
        fault = BitFlipFault("top.bus", window=(15 * NS, 100 * NS), bit=7)
        fault.arm(sim)
        assert "_perform_update" in vars(bus)
        sim.run(100 * NS)
        # The 20 ns update commits 2, and the hook overrides it at once.
        assert committed == _ns([(10, 1), (20, 2), (20, 2 | 0x80)]
                                + [(t, t // 10) for t in range(30, 90, 10)])
        assert fault.activations == 1

    def test_glitch_on_resolved_bus(self, probes):
        sim, __, committed = _bus_rig(probes)
        fault = TransientGlitchFault(
            "top.bus", window=(22 * NS, 28 * NS), value=0x55
        )
        fault.arm(sim)
        sim.run(100 * NS)
        assert committed == _ns([(10, 1), (20, 2), (22, 0x55), (28, 2)]
                                + [(t, t // 10) for t in range(30, 90, 10)])
        assert fault.activations == 1


class Mailbox:
    def __init__(self):
        self.slot = None

    @guarded_method(lambda self: self.slot is None)
    def put(self, item):
        self.slot = item

    @guarded_method(lambda self: self.slot is not None)
    def get(self):
        item, self.slot = self.slot, None
        return item


def _mailbox_rig(n_items=2):
    sim = Simulator()
    top = Module(sim, "top")
    box = GlobalObject(top, "box", Mailbox)
    received = []

    def producer():
        for item in range(1, n_items + 1):
            yield Timeout(10 * NS)
            yield from box.put(item)

    def consumer():
        for __ in range(n_items):
            value = yield from box.get()
            received.append((sim.time, value))

    sim.spawn(producer, "producer")
    sim.spawn(consumer, "consumer")
    sim.elaborate()
    return sim, received


class TestDroppedRequest:
    def test_dropped_put_never_executes(self):
        sim, received = _mailbox_rig(n_items=2)
        fault = DroppedRequestFault("top.box", method="put", max_drops=1)
        fault.arm(sim)
        sim.run(500 * NS)
        # First put vanished: the consumer only ever sees item 2, and
        # its second get is stuck on the guard when the run starves.
        assert [v for __, v in received] == [2]
        assert fault.activations == 1
        assert any(b.method == "get" for b in sim.blocked_processes())

    def test_method_filter(self):
        sim, received = _mailbox_rig(n_items=2)
        fault = DroppedRequestFault("top.box", method="no_such", max_drops=5)
        fault.arm(sim)
        sim.run(500 * NS)
        assert [v for __, v in received] == [1, 2]
        assert fault.activations == 0


class TestDelayedGrant:
    def test_backlog_drains_at_window_end(self):
        sim, received = _mailbox_rig(n_items=1)
        fault = DelayedGrantFault("top.box", window=(0, 200 * NS))
        fault.arm(sim)
        sim.run(500 * NS)
        assert [v for __, v in received] == [1]
        # Nothing completed before the grant window closed.
        assert received[0][0] >= 200 * NS
        assert fault.activations >= 1
        assert not sim.blocked_processes()

    def test_unbounded_window_deadlocks(self):
        sim, received = _mailbox_rig(n_items=1)
        DelayedGrantFault("top.box").arm(sim)
        sim.run(500 * NS)
        assert received == []
        assert sim.blocked_processes()


class TestCommandCorruption:
    def _rig(self, fault, command):
        from repro.core import CommandType  # noqa: F401 - rig sanity

        sim = Simulator()
        top = Module(sim, "top")

        class Channel:
            def __init__(self):
                self.seen = []

            @guarded_method()
            def put_command(self, cmd):
                self.seen.append(cmd)

        channel = GlobalObject(top, "channel", Channel)

        def app():
            yield Timeout(10 * NS)
            yield from channel.put_command(command)

        sim.spawn(app, "app")
        sim.elaborate()
        fault.arm(sim)
        sim.run(200 * NS)
        return channel.state.seen

    def test_write_data_xored(self):
        from repro.core import CommandType

        fault = CommandCorruptionFault("top.channel", field="data",
                                       mask=0x10)
        seen = self._rig(fault, CommandType.write(0x40, 0x22))
        assert len(seen) == 1
        assert seen[0].data[0] == 0x32
        assert seen[0].address == 0x40
        assert fault.activations == 1

    def test_address_xored_stays_aligned(self):
        from repro.core import CommandType

        fault = CommandCorruptionFault("top.channel", field="address",
                                       mask=0x17)
        seen = self._rig(fault, CommandType.read(0x40))
        assert seen[0].address == 0x40 ^ 0x14
        assert seen[0].address % 4 == 0

    def test_read_data_corruption_is_noop(self):
        from repro.core import CommandType

        fault = CommandCorruptionFault("top.channel", field="data",
                                       mask=0x10)
        seen = self._rig(fault, CommandType.read(0x40))
        assert seen[0].address == 0x40
        assert fault.activations == 0

    @pytest.mark.parametrize("mask", [1, 2, 3])
    def test_address_mask_below_word_is_not_an_activation(self, mask):
        # The low two mask bits are cleared to keep addresses aligned,
        # so these masks change nothing; a read's empty data must not
        # make the unchanged command count as corrupted.
        from repro.core import CommandType

        fault = CommandCorruptionFault("top.channel", field="address",
                                       mask=mask)
        assert fault._corrupt(CommandType.read(0x100, 2)) is None
        assert fault._corrupt(CommandType.write(0x100, 7)) is None
        seen = self._rig(fault, CommandType.read(0x100, 2))
        assert seen[0].address == 0x100
        assert fault.activations == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultInjectionError, match="field"):
            CommandCorruptionFault("x", field="parity")


class TestFactory:
    def test_registry_covers_all_models(self):
        assert sorted(FAULT_KINDS) == [
            "bit_flip", "command_corruption", "delayed_grant",
            "dropped_request", "glitch", "stuck_at",
        ]

    def test_make_fault_dispatch(self):
        fault = make_fault("stuck_at", "top.x", (0, 10), value=1)
        assert isinstance(fault, StuckAtFault)
        assert fault.value == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            make_fault("gamma_ray", "top.x")

    def test_describe_mentions_kind_and_window(self):
        fault = make_fault("bit_flip", "top.bus.ad", (5, 9), bit=3)
        assert "bit_flip" in fault.describe()
        assert "[5, 9)" in fault.describe()


# -- first activation read off a fault-free trajectory ---------------------------
#
# Each case records the fault-free run of a rig at the fault's seam, then
# arms the fault on a fresh copy of the rig: the recorded trajectory must
# predict the first activation the armed run reports, or its absence.


def _first_activation_pair(build, make, duration):
    """(predicted first activation, first fault.activate probe time)."""
    sim = build()
    probe = make()
    trajectory = record_trajectory(sim, {(probe.kind, probe.target_path)})
    sim.run(duration)
    horizon = sim.time
    sim = build()
    fault = make()
    times = []
    sim.probes.subscribe(FAULT_ACTIVATE, lambda time, __: times.append(time))
    fault.arm(sim)
    sim.run(duration)
    assert (fault.activations == 0) == (not times)
    return (
        fault.first_activation(trajectory, horizon),
        times[0] if times else None,
    )


def _signal_sim():
    return _signal_rig()[0]


def _line_sim():
    return _line_rig(False)[0]


def _bus_sim():
    return _bus_rig(False)[0]


def _mailbox_sim():
    return _mailbox_rig(n_items=2)[0]


class TestFirstActivation:
    @pytest.mark.parametrize("window", [
        None, (15 * NS, 100 * NS), (20 * NS, 21 * NS), (21 * NS, 30 * NS),
        (81 * NS, 200 * NS), (100 * NS, 101 * NS),
    ])
    @pytest.mark.parametrize("build, path", [
        (_signal_sim, "top.data"), (_line_sim, "top.line"),
        (_bus_sim, "top.bus"),
    ], ids=["byte", "line", "resolved"])
    def test_bit_flip(self, build, path, window):
        predicted, simulated = _first_activation_pair(
            build, lambda: BitFlipFault(path, window, bit=3), 100 * NS
        )
        assert predicted == simulated

    @pytest.mark.parametrize("start", [0, 99 * NS, 100 * NS, 100 * NS + 1])
    def test_stuck_at_and_glitch_strike_when_the_run_reaches_them(
        self, start
    ):
        window = (start, start + 5 * NS)
        for make in (
            lambda: StuckAtFault("top.data", window, value=0x7F),
            lambda: TransientGlitchFault("top.data", window, value=0x7F),
        ):
            predicted, simulated = _first_activation_pair(
                _signal_sim, make, 100 * NS
            )
            assert predicted == simulated
            assert (predicted is None) == (start > 100 * NS)

    def test_windowless_stuck_at_strikes_at_once(self):
        predicted, simulated = _first_activation_pair(
            _signal_sim, lambda: StuckAtFault("top.data", value=1), 100 * NS
        )
        assert predicted == simulated == 0

    @pytest.mark.parametrize("window", [
        None, (0, 1), (5 * NS, 15 * NS), (12 * NS, 15 * NS),
        (12 * NS, 25 * NS), (21 * NS, 90 * NS),
    ])
    def test_delayed_grant(self, window):
        # (12, 15) ns and (21, 90) ns hold no guard evaluation: the
        # window-end touch still wakes the server, without activating.
        predicted, simulated = _first_activation_pair(
            _mailbox_sim, lambda: DelayedGrantFault("top.box", window),
            100 * NS,
        )
        assert predicted == simulated

    @pytest.mark.parametrize("window, predicted", [
        ((12 * NS, 15 * NS), 15 * NS), ((21 * NS, 90 * NS), 90 * NS),
        ((21 * NS, 200 * NS), None), ((5 * NS, 15 * NS), 10 * NS),
    ])
    def test_delayed_grant_window_end_counts_when_guard_blocks_are_observed(
        self, window, predicted
    ):
        # The window-end touch can add a guard-block probe, so with a
        # subscriber a window that closes inside the run simulates.
        sim = _mailbox_sim()
        sim.probes.subscribe(METHOD_GUARD_BLOCK, lambda *__: None)
        trajectory = record_trajectory(sim, {("delayed_grant", "top.box")})
        sim.run(100 * NS)
        fault = DelayedGrantFault("top.box", window)
        assert fault.first_activation(trajectory, sim.time) == predicted

    @pytest.mark.parametrize("method, max_drops", [
        (None, 1), ("put", 1), ("get", 2), ("no_such", 1), ("put", 0),
    ])
    @pytest.mark.parametrize("window", [
        None, (5 * NS, 15 * NS), (11 * NS, 19 * NS), (15 * NS, 100 * NS),
    ])
    def test_dropped_request(self, window, method, max_drops):
        predicted, simulated = _first_activation_pair(
            _mailbox_sim,
            lambda: DroppedRequestFault(
                "top.box", window, method=method, max_drops=max_drops
            ),
            100 * NS,
        )
        assert predicted == simulated

    @pytest.mark.parametrize("field, mask", [
        ("data", 0x10), ("data", 0), ("address", 0x40), ("address", 2),
    ])
    @pytest.mark.parametrize("command", ["write", "read"])
    def test_command_corruption(self, command, field, mask):
        from repro.core import CommandType

        issued = (
            CommandType.write(0x40, 0x22) if command == "write"
            else CommandType.read(0x40, 2)
        )

        def build():
            sim = Simulator()
            top = Module(sim, "top")

            class Channel:
                @guarded_method()
                def put_command(self, cmd):
                    pass

            channel = GlobalObject(top, "channel", Channel)

            def app():
                yield Timeout(10 * NS)
                yield from channel.put_command(issued)

            sim.spawn(app, "app")
            sim.elaborate()
            return sim

        predicted, simulated = _first_activation_pair(
            build,
            lambda: CommandCorruptionFault(
                "top.channel", None, field=field, mask=mask
            ),
            100 * NS,
        )
        assert predicted == simulated
