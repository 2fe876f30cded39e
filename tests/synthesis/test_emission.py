"""Unit tests for the Verilog and VHDL backends."""

import pytest

from repro.synthesis import (
    BinOp,
    BitSelect,
    Const,
    Fsm,
    Mux,
    RtlModule,
    UnOp,
    build_channel_ir,
    emit_verilog,
    emit_vhdl,
)


def _tiny_module():
    module = RtlModule("tiny", comment="a tiny test module")
    module.add_port("clk", "in", 1)
    module.add_port("rst_n", "in", 1)
    a = module.add_port("a", "in", 4)
    b = module.add_port("b", "in", 4)
    y = module.add_port("y", "out", 4)
    sel = module.add_port("sel", "in", 1)
    reg = module.add_register("acc", 4, reset_value=3)
    module.add_assign(y, Mux(sel.ref(), a.ref(), b.ref()), "select input")
    module.add_clocked_assign(reg, BinOp("+", reg.ref(), Const(1, 4)),
                              enable=sel.ref())
    fsm = Fsm("ctrl", ["IDLE", "GO"], "IDLE")
    module.add_fsm(fsm)
    fsm.add_transition("IDLE", sel.ref(), "GO")
    fsm.add_transition("GO", UnOp("~", sel.ref()), "IDLE")
    return module


class TestVerilog:
    def test_module_shell(self):
        text = emit_verilog(_tiny_module())
        assert text.startswith("// a tiny test module")
        assert "module tiny (" in text
        assert text.rstrip().endswith("endmodule")

    def test_ports_and_widths(self):
        text = emit_verilog(_tiny_module())
        assert "input  wire clk" in text
        assert "[3:0] a" in text
        assert "output wire [3:0] y" in text

    def test_combinational_assign(self):
        text = emit_verilog(_tiny_module())
        assert "assign y = (sel ? a : b);" in text

    def test_reset_block(self):
        text = emit_verilog(_tiny_module())
        assert "always @(posedge clk or negedge rst_n)" in text
        assert "acc <= 4'd3;" in text

    def test_enable_gating(self):
        text = emit_verilog(_tiny_module())
        assert "if (sel)" in text

    def test_fsm_case(self):
        text = emit_verilog(_tiny_module())
        assert "localparam CTRL_IDLE = 1'd0;" in text
        assert "case (ctrl_state)" in text
        assert "CTRL_GO" in text

    def test_bit_selects_keep_their_grouping(self):
        # A select of a net indexes it; a select of a computed value is
        # a shift-and-mask, parenthesized whole because Verilog's ==
        # binds tighter than &.
        module = RtlModule("sel")
        a = module.add_port("a", "in", 4)
        b = module.add_port("b", "in", 4)
        y = module.add_port("y", "out", 1)
        z = module.add_port("z", "out", 1)
        total = BinOp("+", a.ref(), b.ref())
        module.add_assign(y, BinOp("==", BitSelect(total, 2), Const(1, 1)))
        module.add_assign(z, BinOp("==", BitSelect(a.ref(), 2), Const(1, 1)))
        text = emit_verilog(module)
        assert "assign y = ((((a + b) >> 2) & 1'b1) == 1'd1);" in text
        assert "assign z = (a[2] == 1'd1);" in text

    def test_channel_netlist_emits(self):
        module = build_channel_ir("chan", 2, ["a", "b", "c"], "round_robin")
        text = emit_verilog(module)
        assert "module chan" in text
        assert "arb_rr_pointer" in text
        assert text.count("endmodule") == 1


class TestVhdl:
    def test_entity_architecture(self):
        text = emit_vhdl(_tiny_module())
        assert "entity tiny is" in text
        assert "architecture rtl of tiny is" in text
        assert "end architecture rtl;" in text
        assert "use ieee.std_logic_1164.all;" in text

    def test_ports(self):
        text = emit_vhdl(_tiny_module())
        assert "clk : in  std_logic" in text
        assert "a : in  std_logic_vector(3 downto 0)" in text

    def test_clocked_process(self):
        text = emit_vhdl(_tiny_module())
        assert "process (clk, rst_n)" in text
        assert "rising_edge(clk)" in text
        assert 'acc <= "0011";' in text

    def test_mux_when_else(self):
        text = emit_vhdl(_tiny_module())
        assert "when sel = '1' else" in text

    def test_fsm_case(self):
        text = emit_vhdl(_tiny_module())
        assert "case ctrl_state is" in text
        assert "when others =>" in text

    def test_arithmetic_uses_numeric_std(self):
        text = emit_vhdl(_tiny_module())
        assert "unsigned(acc)" in text

    def test_channel_netlist_emits(self):
        module = build_channel_ir("chan", 2, ["a", "b"], "fcfs")
        text = emit_vhdl(module)
        assert "entity chan is" in text


class TestBackendsAgree:
    @pytest.mark.parametrize("kind", ["fcfs", "round_robin", "static_priority",
                                      "random"])
    def test_all_arbiters_emit_in_both_languages(self, kind):
        priorities = [1, 0] if kind == "static_priority" else None
        module = build_channel_ir("chan", 2, ["m0", "m1"], kind,
                                  priorities=priorities)
        verilog = emit_verilog(module)
        vhdl = emit_vhdl(module)
        # Every port must appear in both outputs.
        for port in module.ports:
            assert port.name in verilog
            assert port.name in vhdl
