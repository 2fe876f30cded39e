"""X-propagation from unreset registers to primary outputs."""

from repro.analyze import NetGraph
from repro.analyze.xprop import find_x_propagation, x_sources
from repro.synthesis.ir import Const, RtlModule


class TestXSources:
    def test_only_unreset_registers(self):
        module = RtlModule("m")
        module.add_register("with_reset", 4, 0)
        floating = module.add_register("floating", 4, None)
        assert x_sources(module) == [floating]


class TestXPropagation:
    def test_taint_reaches_output(self):
        module = RtlModule("m")
        out = module.add_port("out", "out", 4)
        floating = module.add_register("floating", 4, None)
        mid = module.add_net("mid", 4)
        module.add_assign(mid, floating.ref())
        module.add_assign(out, mid.ref())
        (finding,) = find_x_propagation(NetGraph(module))
        assert finding.port is out
        assert finding.source is floating
        assert finding.describe_path() == "floating -> mid -> out"

    def test_reset_register_is_clean(self):
        module = RtlModule("m")
        out = module.add_port("out", "out", 4)
        reg = module.add_register("reg", 4, 0)
        module.add_assign(out, reg.ref())
        assert find_x_propagation(NetGraph(module)) == []

    def test_reset_register_absorbs_taint(self):
        """A clocked assign into a reset register stops the X."""
        module = RtlModule("m")
        out = module.add_port("out", "out", 4)
        floating = module.add_register("floating", 4, None)
        holder = module.add_register("holder", 4, 0)
        module.add_clocked_assign(holder, floating.ref(),
                                  enable=Const(1, 1))
        module.add_assign(out, holder.ref())
        assert find_x_propagation(NetGraph(module)) == []

    def test_untainted_output_not_reported(self):
        module = RtlModule("m")
        a = module.add_port("a", "in", 4)
        out = module.add_port("out", "out", 4)
        module.add_register("floating", 4, None)  # reaches nothing
        module.add_assign(out, a.ref())
        assert find_x_propagation(NetGraph(module)) == []
