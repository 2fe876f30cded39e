"""Round-trip tests: VcdTracer output parsed back by parse_vcd."""

import io

import pytest

from repro.errors import SimulationError
from repro.hdl import Clock, Module
from repro.kernel import NS, Simulator, Timeout
from repro.trace import VcdTracer, parse_vcd


def _dump_session(drive, signals_of):
    sim = Simulator()
    top = Module(sim, "top")
    signals = signals_of(top)
    stream = io.StringIO()
    tracer = VcdTracer(stream)
    tracer.add_signals(signals)
    sim.add_tracer(tracer)
    sim.spawn(lambda: drive(sim, signals), "drive")
    sim.run(1000 * NS)
    tracer.close(sim.time)
    return stream.getvalue()


class TestRoundTrip:
    def test_scalar_roundtrip(self):
        def drive(sim, signals):
            signal = signals[0]
            for value in (1, 0, "Z", 1):
                yield Timeout(10 * NS)
                signal.write(value)

        text = _dump_session(drive, lambda top: [top.signal("bit", width=1,
                                                            init=0)])
        dump = parse_vcd(text)
        signal = dump.signal("top.bit")
        values = [v for __, v in signal.changes]
        assert values == ["0", "1", "0", "Z", "1"]
        assert signal.width == 1

    def test_vector_roundtrip(self):
        def drive(sim, signals):
            signal = signals[0]
            for value in (0xAB, 0xCD):
                yield Timeout(10 * NS)
                signal.write(value)

        text = _dump_session(drive, lambda top: [top.signal("data", width=8)])
        dump = parse_vcd(text)
        changes = dump.signal("top.data").changes
        assert changes[-1][1] == "11001101"
        assert changes[-1][0] == 20 * NS

    def test_value_at(self):
        def drive(sim, signals):
            signals[0].write(5)
            yield Timeout(10 * NS)
            signals[0].write(9)

        text = _dump_session(drive, lambda top: [top.signal("d", width=4,
                                                            init=0)])
        dump = parse_vcd(text)
        signal = dump.signal("top.d")
        assert signal.value_at(5 * NS) == "0101"
        assert signal.value_at(50 * NS) == "1001"

    def test_timescale_and_end_time(self):
        def drive(sim, signals):
            yield Timeout(100 * NS)
            signals[0].write(1)

        text = _dump_session(drive, lambda top: [top.signal("b", width=1,
                                                            init=0)])
        dump = parse_vcd(text)
        assert dump.timescale == "1 fs"
        assert dump.end_time >= 100 * NS

    def test_scopes_reconstructed(self):
        def drive(sim, signals):
            return
            yield

        def build(top):
            child = Module(top, "inner")
            return [child.signal("s", width=1, init=0)]

        text = _dump_session(drive, build)
        dump = parse_vcd(text)
        assert "top.inner.s" in dump.signals

    def test_clock_dump_roundtrip(self):
        sim = Simulator()
        clock = Clock(sim, "clk", period=10 * NS)
        stream = io.StringIO()
        tracer = VcdTracer(stream)
        tracer.add_signal(clock.clk)
        sim.add_tracer(tracer)
        sim.run(100 * NS)
        tracer.close(sim.time)
        dump = parse_vcd(stream.getvalue())
        values = [v for __, v in dump.signal("clk.clk").changes]
        # Initial 0 then alternating edges.
        assert values[0] == "0"
        assert values[1:5] == ["1", "0", "1", "0"]


class TestGoldenVsFaulty:
    """Dump a clean and an infected session and parse both: the
    corrupted wire's value sequence differs."""

    def _session(self, with_fault=False):
        from repro.fault import make_fault

        sim = Simulator()
        top = Module(sim, "top")
        data = top.signal("data", width=8, init=0)
        stream = io.StringIO()
        tracer = VcdTracer(stream)
        tracer.add_signal(data)
        sim.add_tracer(tracer)

        def drive():
            for value in (0x11, 0x22, 0x44):
                yield Timeout(10 * NS)
                data.write(value)

        sim.spawn(drive, "drive")
        sim.elaborate()
        if with_fault:
            fault = make_fault(
                "bit_flip", "top.data", (15 * NS, 35 * NS), bit=7
            )
            fault.arm(sim)
        sim.run(100 * NS)
        tracer.close(sim.time)
        return stream.getvalue()

    def test_faulty_dump_diverges_from_golden(self):
        golden = parse_vcd(self._session())
        faulty = parse_vcd(self._session(with_fault=True))
        values = [
            [v for __, v in dump.signal("top.data").changes]
            for dump in (golden, faulty)
        ]
        assert values[0] != values[1]

    def test_same_fault_reproduces_identical_dump(self):
        assert self._session(with_fault=True) == \
            self._session(with_fault=True)

    def test_corrupted_value_visible_in_parsed_dump(self):
        faulty = parse_vcd(self._session(with_fault=True))
        values = [v for __, v in faulty.signal("top.data").changes]
        # 0x22 committed at 20 ns gets bit 7 flipped -> 0xA2.
        assert "10100010" in values


class TestErrors:
    def test_unterminated_directive(self):
        with pytest.raises(SimulationError):
            parse_vcd("$timescale 1 fs")

    def test_undeclared_identifier(self):
        text = "$timescale 1 fs $end $enddefinitions $end #0 1!"
        with pytest.raises(SimulationError):
            parse_vcd(text)

    def test_unknown_signal_lookup(self):
        dump = parse_vcd("$timescale 1 fs $end $enddefinitions $end")
        with pytest.raises(SimulationError):
            dump.signal("nope")
