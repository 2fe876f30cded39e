"""The committed fig4.vcd must be byte-reproducible.

The netlist analysis passes are read-only over the synthesized IR and
must not perturb simulation: regenerating the paper's Figure-4 waveform
dump with the benchmark recipe has to reproduce the committed file
byte for byte.
"""

import os

from repro.core import CommandType
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS
from repro.trace import VcdTracer

COMMITTED = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "fig4.vcd"
)

COMMANDS = [
    CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
    CommandType.read(0x100, count=3),
]


def test_fig4_vcd_is_byte_identical(tmp_path):
    fresh = str(tmp_path / "fig4.vcd")
    bundle = build_platform(
        [COMMANDS], PciPlatformConfig(wait_states=1), bus="pci",
        synthesize=True,
    )
    sim = bundle.handle.sim
    vcd = VcdTracer(fresh)
    vcd.add_signals([bundle.clock.clk] + bundle.bus.shared_signals())
    sim.add_tracer(vcd)
    bundle.run(10 * MS)
    vcd.close(sim.time)

    with open(COMMITTED, "rb") as handle:
        expected = handle.read()
    with open(fresh, "rb") as handle:
        actual = handle.read()
    assert actual == expected
