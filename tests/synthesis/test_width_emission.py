"""Width plumbing: IfaceParams -> netlist -> emitted HDL -> codegen.

The library promise needs *generic* elements, so the elaboration width
must flow through every backend: the channel netlist's behavioural data
buses, the Verilog/VHDL the emitters print, and the masking constants
the compiled fast-sim backend bakes into its generated Python.
"""

import pytest

from repro.analyze import ModuleAnalysis
from repro.compile import compile_module
from repro.core import expected_memory_image, generate_workload
from repro.flow import PciPlatformConfig, build_platform
from repro.iface import IfaceParams
from repro.kernel import MS
from repro.synthesis import build_channel_ir, emit_verilog, emit_vhdl


def _channel(data_width):
    return build_channel_ir(
        "chan", 2, ["put_command", "get_command"], "round_robin",
        data_width=data_width,
    )


class TestNetlistWidths:
    @pytest.mark.parametrize("width", [16, 64])
    def test_data_buses_track_width(self, width):
        module = _channel(width)
        ports = {p.name: p.width for p in module.ports}
        assert ports["arg_data"] == width
        assert ports["ret_data"] == width


class TestVerilogEmission:
    @pytest.mark.parametrize("width", [16, 64])
    def test_port_ranges(self, width):
        text = emit_verilog(_channel(width))
        assert f"input  wire [{width - 1}:0] arg_data" in text
        assert f"output wire [{width - 1}:0] ret_data" in text

    def test_sixteen_and_sixtyfour_differ_only_in_widths(self):
        narrow = emit_verilog(_channel(16))
        wide = emit_verilog(_channel(64))
        assert narrow != wide
        assert narrow.replace("[15:0]", "[63:0]").replace(
            "16'", "64'"
        ) == wide


class TestVhdlEmission:
    @pytest.mark.parametrize("width", [16, 64])
    def test_port_ranges(self, width):
        text = emit_vhdl(_channel(width))
        assert (
            f"arg_data : in  std_logic_vector({width - 1} downto 0)"
            in text
        )
        assert (
            f"ret_data : out std_logic_vector({width - 1} downto 0)"
            in text
        )


class TestCompiledMasking:
    @pytest.mark.parametrize("width,mask", [(16, 0xFFFF),
                                            (64, 0xFFFFFFFFFFFFFFFF)])
    def test_generated_source_masks_to_width(self, width, mask):
        netlist = compile_module(ModuleAnalysis(_channel(width)))
        assert f"& {mask:#x}" in netlist.source

    def test_wide_value_wraps(self):
        # Drive a 16-bit input with an over-wide value: the compiled
        # entry masking must truncate it to the declared port width.
        netlist = compile_module(ModuleAnalysis(_channel(16)))
        env = dict(netlist.reset_registers())
        env.update({name: 0 for name in netlist.input_names})
        env["arg_data"] = 0x12345
        outs = netlist.comb(env)
        assert all(value < (1 << 64) for value in outs.values())


class TestEndToEndWidths:
    @pytest.mark.parametrize("bus", ["wishbone", "axi4lite"])
    def test_sixtyfour_bit_platform_compiled(self, bus):
        """A 64-bit data path through synthesis and the compiled core."""
        workload = generate_workload(seed=21, n_commands=8,
                                     address_span=0x200, max_burst=3)
        config = PciPlatformConfig(
            backend="compiled", params=IfaceParams(data_width=64)
        )
        bundle = build_platform([workload], config, bus=bus, synthesize=True)
        bundle.run(200 * MS)
        golden = expected_memory_image(workload, 0x200 // 4)
        assert bundle.memory.dump(0, len(golden)) == golden
        assert bundle.interface.params.data_width == 64
