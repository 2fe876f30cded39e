"""Unit tests for the VCD writer."""

import io

import pytest

from repro.errors import SimulationError
from repro.hdl import Clock, Module
from repro.kernel import NS, Simulator, Timeout
from repro.trace import VcdTracer


@pytest.fixture
def sim():
    return Simulator()


def _run_with_vcd(sim, build):
    stream = io.StringIO()
    tracer = VcdTracer(stream)
    build(tracer)
    sim.add_tracer(tracer)
    sim.run(100 * NS)
    tracer.close(sim.time)
    return stream.getvalue()


class TestHeader:
    def test_header_structure(self, sim):
        top = Module(sim, "top")
        signal = top.signal("data", width=8, init=0)

        def build(tracer):
            tracer.add_signal(signal)

        text = _run_with_vcd(sim, build)
        assert "$timescale 1 fs $end" in text
        assert "$scope module top $end" in text
        assert "$var wire 8" in text
        assert "data" in text
        assert "$enddefinitions $end" in text
        assert "$dumpvars" in text

    def test_nested_scopes(self, sim):
        top = Module(sim, "top")
        child = Module(top, "inner")
        signal = child.signal("s", width=1)

        def build(tracer):
            tracer.add_signal(signal)

        text = _run_with_vcd(sim, build)
        assert text.index("$scope module top $end") < text.index(
            "$scope module inner $end"
        )
        assert text.count("$upscope $end") == 2


class TestChanges:
    def test_vector_changes_recorded(self, sim):
        top = Module(sim, "top")
        signal = top.signal("data", width=8, init=0)

        def proc():
            yield Timeout(10 * NS)
            signal.write(0xA5)

        sim.spawn(proc, "p")

        def build(tracer):
            tracer.add_signal(signal)

        text = _run_with_vcd(sim, build)
        assert f"#{10 * NS}" in text
        assert "b10100101" in text

    def test_scalar_and_xz_formatting(self, sim):
        top = Module(sim, "top")
        signal = top.signal("bit", width=1, init=0)

        def proc():
            yield Timeout(10 * NS)
            signal.write("Z")
            yield Timeout(10 * NS)
            signal.write(1)

        sim.spawn(proc, "p")

        def build(tracer):
            tracer.add_signal(signal)

        text = _run_with_vcd(sim, build)
        lines = text.splitlines()
        assert any(line.startswith("z") for line in lines)
        assert any(line.startswith("1") for line in lines)

    def test_unwatched_signal_ignored(self, sim):
        top = Module(sim, "top")
        watched = top.signal("w", width=1, init=0)
        unwatched = top.signal("u", width=1, init=0)

        def proc():
            yield Timeout(5 * NS)
            unwatched.write(1)

        sim.spawn(proc, "p")

        def build(tracer):
            tracer.add_signal(watched)

        text = _run_with_vcd(sim, build)
        assert f"#{5 * NS}" not in text

    def test_clock_toggles_in_dump(self, sim):
        clock = Clock(sim, "clk", period=10 * NS)
        stream = io.StringIO()
        tracer = VcdTracer(stream)
        tracer.add_signal(clock.clk)
        sim.add_tracer(tracer)
        sim.run(40 * NS)
        tracer.close(sim.time)
        text = stream.getvalue()
        # 4 edges in 40 ns with period 10 ns.
        assert text.count("#") >= 4

    def test_cannot_add_after_header(self, sim):
        top = Module(sim, "top")
        signal = top.signal("s", width=1, init=0)
        stream = io.StringIO()
        tracer = VcdTracer(stream)
        tracer.add_signal(signal)
        sim.add_tracer(tracer)

        def proc():
            signal.write(1)
            yield Timeout(0)

        sim.spawn(proc, "p")
        sim.run(10)
        with pytest.raises(SimulationError):
            tracer.add_signal(top.signal("late", width=1))

    def test_file_output(self, sim, tmp_path):
        top = Module(sim, "top")
        signal = top.signal("s", width=1, init=0)
        path = str(tmp_path / "dump.vcd")
        tracer = VcdTracer(path)
        tracer.add_signal(signal)
        sim.add_tracer(tracer)
        sim.run(1)
        tracer.close()
        with open(path) as handle:
            assert "$enddefinitions" in handle.read()
