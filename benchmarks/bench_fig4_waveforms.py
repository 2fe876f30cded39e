"""FIG4 — simulation waveforms of the synthesized PCI bus handler.

Re-simulates the post-synthesis model with full tracing and prints the
bus waveforms of the first transactions — the textual equivalent of the
paper's Figure 4 screenshot — plus a ``fig4.vcd`` file for GTKWave.
"""

import os

from _tables import print_table

from repro.core import CommandType
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS, NS
from repro.trace import VcdTracer, WaveformCapture, render

COMMANDS = [
    CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
    CommandType.read(0x100, count=3),
]


def _traced_run(vcd_path=None):
    bundle = build_platform(
        [COMMANDS], PciPlatformConfig(wait_states=1), bus="pci",
        synthesize=True,
    )
    sim = bundle.handle.sim
    capture = WaveformCapture()
    watched = [bundle.clock.clk] + bundle.bus.shared_signals()
    capture.add_signals(watched)
    sim.add_tracer(capture)
    vcd = None
    if vcd_path:
        vcd = VcdTracer(vcd_path)
        vcd.add_signals(watched)
        sim.add_tracer(vcd)
    result = bundle.run(10 * MS)
    if vcd:
        vcd.close(sim.time)
    return bundle, capture, watched, result


def test_fig4_waveform_generation(benchmark):
    vcd_path = os.path.join(os.path.dirname(__file__), "fig4.vcd")
    bundle, capture, watched, result = benchmark.pedantic(
        _traced_run, args=(vcd_path,), rounds=1, iterations=1
    )
    app = bundle.handle.applications[0]
    assert app.records[1].response.data == [0xDEADBEEF, 0x12345678, 0xCAFEF00D]
    assert not any(t.parity_errors for t in bundle.monitor.transactions)
    assert not bundle.monitor.violations

    print("\n== FIG4: post-synthesis PCI handler waveforms "
          "(# high, _ low, ~ tri-state; 15 ns/column) ==")
    labels = {s.name: s.name.rsplit(".", 1)[-1] for s in watched}
    print(render(capture, [s.name for s in watched], 0, 2400 * NS, 15 * NS,
                 labels=labels, time_unit=30 * NS))

    print_table(
        "FIG4: transactions observed on the bus",
        ["command", "address", "words", "termination", "duration (ns)"],
        [
            [t.command_name, f"{t.address:#010x}", t.word_count,
             t.terminated_by, (t.duration or 0) // NS]
            for t in bundle.monitor.completed_transactions
        ],
    )
    print(f"\nVCD written to {vcd_path}")


def test_fig4_tracing_overhead(benchmark):
    """Cost of full-bus tracing relative to the untraced simulation."""

    def untraced():
        bundle = build_platform(
            [COMMANDS], PciPlatformConfig(wait_states=1), bus="pci",
            synthesize=True,
        )
        return bundle.run(10 * MS)

    result = benchmark(untraced)
    assert result.transactions == 2
