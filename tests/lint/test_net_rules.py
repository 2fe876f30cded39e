"""NET0xx rules: netlist dataflow hazards, one injected defect each."""

from repro.lint import Severity
from repro.synthesis.ir import Const, RtlModule

from .fixtures import lint_netlist


def _base():
    module = RtlModule("m")
    a = module.add_port("a", "in", 4)
    out = module.add_port("out", "out", 4)
    return module, a, out


class TestDriverConflict:
    def test_comb_and_clocked_mix(self):
        module, a, out = _base()
        reg = module.add_register("reg", 4, 0)
        module.add_assign(reg, a.ref())
        module.add_clocked_assign(reg, a.ref())
        module.add_assign(out, reg.ref())
        (diag,) = lint_netlist(module).by_rule("NET001")
        assert diag.severity is Severity.ERROR
        assert diag.path == "m.reg"
        assert "both combinationally" in diag.message

    def test_comb_driven_register(self):
        module, a, out = _base()
        reg = module.add_register("reg", 4, 0)
        module.add_assign(reg, a.ref())
        module.add_assign(out, reg.ref())
        (diag,) = lint_netlist(module).by_rule("NET001")
        assert "register is driven by combinational logic" in diag.message

    def test_double_clocked_driver(self):
        module, a, out = _base()
        reg = module.add_register("reg", 4, 0)
        module.add_clocked_assign(reg, a.ref(), enable=Const(1, 1))
        module.add_clocked_assign(reg, Const(0, 4), enable=Const(1, 1))
        module.add_assign(out, reg.ref())
        (diag,) = lint_netlist(module).by_rule("NET001")
        assert "2 clocked drivers" in diag.message
        assert "last writer wins" in diag.message

    def test_width_disagreement(self):
        """The builders validate widths, so desync one after the fact:
        the graph check is defense-in-depth against hand-built IR."""
        module, a, out = _base()
        wire = module.add_net("wire", 4)
        module.add_assign(wire, a.ref())
        narrow = module.add_assign(wire, Const(1, 4))
        narrow.expr.width = 2
        module.add_assign(out, wire.ref())
        diags = lint_netlist(module).by_rule("NET001")
        assert any("disagree on width" in d.message for d in diags)

    def test_clean_register_quiet(self):
        module, a, out = _base()
        reg = module.add_register("reg", 4, 0)
        module.add_clocked_assign(reg, a.ref())
        module.add_assign(out, reg.ref())
        assert lint_netlist(module).by_rule("NET001") == []


class TestUnreadNet:
    def test_driven_unread_wire_fires(self):
        module, a, out = _base()
        dead = module.add_net("dead", 4)
        module.add_assign(dead, a.ref())
        module.add_assign(out, a.ref())
        (diag,) = lint_netlist(module).by_rule("NET002")
        assert diag.severity is Severity.WARNING
        assert diag.path == "m.dead"

    def test_read_wire_is_quiet(self):
        module, a, out = _base()
        wire = module.add_net("wire", 4)
        module.add_assign(wire, a.ref())
        module.add_assign(out, wire.ref())
        assert lint_netlist(module).by_rule("NET002") == []

    def test_registers_and_ports_exempt(self):
        """Storage and boundary nets are other rules' concern."""
        module, a, out = _base()
        reg = module.add_register("unread_reg", 4, 0)
        module.add_clocked_assign(reg, a.ref())
        module.add_assign(out, a.ref())
        assert lint_netlist(module).by_rule("NET002") == []


class TestCombLoop:
    def test_injected_loop_fires(self):
        module, a, out = _base()
        x = module.add_net("x", 4)
        y = module.add_net("y", 4)
        module.add_assign(x, y.ref())
        module.add_assign(y, x.ref())
        module.add_assign(out, x.ref())
        (diag,) = lint_netlist(module).by_rule("NET003")
        assert diag.severity is Severity.ERROR
        assert "combinational loop:" in diag.message
        assert "->" in diag.message

    def test_register_breaks_the_loop(self):
        module, a, out = _base()
        reg = module.add_register("reg", 4, 0)
        x = module.add_net("x", 4)
        module.add_assign(x, reg.ref())
        module.add_clocked_assign(reg, x.ref())
        module.add_assign(out, x.ref())
        assert lint_netlist(module).by_rule("NET003") == []


class TestXPropagation:
    def test_unreset_register_taints_output(self):
        module, a, out = _base()
        floating = module.add_register("floating", 4, None)
        module.add_clocked_assign(floating, a.ref())
        module.add_assign(out, floating.ref())
        (diag,) = lint_netlist(module).by_rule("NET004")
        assert diag.severity is Severity.WARNING
        assert diag.path == "m.out"
        assert diag.extra["source"] == "floating"
        assert diag.extra["path"] == "floating -> out"

    def test_reset_register_is_quiet(self):
        module, a, out = _base()
        reg = module.add_register("reg", 4, 0)
        module.add_clocked_assign(reg, a.ref())
        module.add_assign(out, reg.ref())
        assert lint_netlist(module).by_rule("NET004") == []
