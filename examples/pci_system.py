#!/usr/bin/env python
"""A complete PCI platform with waveform dumping (the paper's Figure 4).

Builds the pin-accurate executable model — application, bus-interface
element, PCI bus, memory and register-block targets — applies
communication synthesis, re-simulates, and renders the bus waveforms of
the first transactions both as a VCD file (``pci_system.vcd``, loadable
in GTKWave) and as ASCII art on stdout.

Run:  python examples/pci_system.py
"""

from repro.core import CommandType
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS, NS
from repro.trace import VcdTracer, WaveformCapture, render


def main():
    # A short, readable command sequence: one burst write, one burst read,
    # then a register poke at the peripheral.
    commands = [
        CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
        CommandType.read(0x100, count=3),
        CommandType.write(0x0001_0008, 0x55AA55AA),  # peripheral DATA register
        CommandType.read(0x0001_0004, count=1),      # peripheral STATUS
    ]
    config = PciPlatformConfig(clock_period=30 * NS, wait_states=1)
    bundle = build_platform([commands], config, bus="pci", synthesize=True)

    # Attach tracing to the shared bus wires + clock before running.
    sim = bundle.handle.sim
    vcd = VcdTracer("pci_system.vcd")
    capture = WaveformCapture()
    watched = [bundle.clock.clk] + bundle.bus.shared_signals()
    vcd.add_signals(watched)
    capture.add_signals(watched)
    sim.add_tracer(vcd)
    sim.add_tracer(capture)

    result = bundle.run(5 * MS)
    vcd.close(sim.time)

    print(result)
    app = bundle.handle.applications[0]
    for record in app.records:
        print(f"  {record.command!r} -> {record.response!r} "
              f"({record.latency // (1 * NS)} ns)")

    read_back = app.records[1].response
    assert read_back is not None
    assert read_back.data == [0xDEADBEEF, 0x12345678, 0xCAFEF00D]
    status = app.records[3].response
    assert status is not None and status.data[0] & 0xF0  # write counter moved

    print("\nbus transactions observed by the monitor:")
    for transaction in bundle.monitor.completed_transactions:
        print(f"  {transaction!r}")

    # Figure 4: waveforms of the first write transaction.
    labels = {s.name: s.name.rsplit(".", 1)[-1] for s in watched}
    print("\nwaveforms (one column per 15 ns; # = high, _ = low, ~ = tri-state):")
    print(render(capture, [s.name for s in watched],
                 start=0, stop=1200 * NS, step=15 * NS,
                 labels=labels, time_unit=30 * NS))

    print("\nsynthesis report:")
    print(bundle.synthesis.report.render())
    print("\nwrote pci_system.vcd")
    print("pci_system OK")


if __name__ == "__main__":
    main()
