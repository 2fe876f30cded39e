"""MOD0xx rules: one deliberately-broken fixture per rule."""

from repro.lint import Severity, lint_design

from . import fixtures


def rule_ids(report):
    return {d.rule_id for d in report.diagnostics}


class TestMultipleWriters:
    def test_fires_mod002(self):
        report = lint_design(fixtures.make_double_writer())
        assert rule_ids(report) == {"MOD002"}
        (diag,) = report.by_rule("MOD002")
        assert diag.severity is Severity.ERROR
        assert "driver_a" in diag.message and "driver_b" in diag.message

    def test_multi_writer_signal_not_flagged(self):
        """Without single_writer the rule must stay quiet."""
        from repro.hdl.module import Module
        from repro.kernel.process import Timeout
        from repro.kernel.simulator import Simulator

        sim = Simulator()

        class SharedOk(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.strobe = self.signal("strobe", width=1, init=0)
                self.thread(self._a, "a")
                self.thread(self._b, "b")

            def _a(self):
                self.strobe.write(1)
                yield Timeout(10)

            def _b(self):
                self.strobe.write(0)
                yield Timeout(10)

        SharedOk(sim, "top")
        assert lint_design(sim).clean


class TestDeadEventWait:
    def test_fires_mod003(self):
        report = lint_design(fixtures.make_dead_event_wait())
        assert rule_ids(report) == {"MOD003"}
        (diag,) = report.by_rule("MOD003")
        assert diag.severity is Severity.WARNING
        assert "wait_forever" in diag.message

    def test_notified_event_is_clean(self):
        from repro.hdl.module import Module
        from repro.kernel.process import Timeout
        from repro.kernel.simulator import Simulator

        sim = Simulator()

        class PingPong(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.go = self.event("go")
                self.thread(self._waiter, "waiter")
                self.thread(self._notifier, "notifier")

            def _waiter(self):
                yield self.go

            def _notifier(self):
                yield Timeout(5)
                self.go.notify()

        PingPong(sim, "top")
        assert lint_design(sim).clean


class TestCombinationalLoop:
    def test_fires_mod004(self):
        report = lint_design(fixtures.make_combinational_loop())
        assert rule_ids(report) == {"MOD004"}
        (diag,) = report.by_rule("MOD004")
        assert diag.severity is Severity.ERROR
        assert "invert" in diag.message and "follow" in diag.message

    def test_acyclic_methods_are_clean(self):
        from repro.hdl.module import Module
        from repro.kernel.simulator import Simulator

        sim = Simulator()

        class Pipeline(Module):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.a = self.signal("a", width=1, init=0)
                self.b = self.signal("b", width=1, init=0)
                self.method(self._stage, sensitivity=[self.a], name="stage")

            def _stage(self):
                self.b.write(self.a.read())

        Pipeline(sim, "top")
        assert lint_design(sim).clean


class TestInterfaceElementShape:
    def _sim_with(self, element_cls):
        from repro.kernel.simulator import Simulator

        sim = Simulator()
        element_cls(sim, "iface")
        return sim

    def test_fires_mod005_on_abstract_tags(self):
        from repro.iface import InterfaceElement

        class Tagless(InterfaceElement):
            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.thread(self._idle, "idle")

            def _idle(self):
                yield from self.channel.call("get_command")

        report = lint_design(self._sim_with(Tagless))
        (diag,) = report.by_rule("MOD005")
        assert diag.severity is Severity.ERROR
        assert "abstract" in diag.message

    def test_fires_mod005_on_missing_process(self):
        from repro.iface import InterfaceElement

        class Inert(InterfaceElement):
            BUS_NAME = "inert"
            ABSTRACTION = "pin_accurate"

        report = lint_design(self._sim_with(Inert))
        messages = [d.message for d in report.by_rule("MOD005")]
        assert any("no process" in m for m in messages)

    def test_fires_mod005_on_extra_channel(self):
        from repro.iface import InterfaceElement
        from repro.osss import GlobalObject

        class Chatty(InterfaceElement):
            BUS_NAME = "chatty"
            ABSTRACTION = "pin_accurate"

            def __init__(self, parent, name):
                super().__init__(parent, name)
                self.side = GlobalObject(self, "side", _SideState)
                self.thread(self._idle, "idle")

            def _idle(self):
                yield from self.channel.call("get_command")

        report = lint_design(self._sim_with(Chatty))
        messages = [d.message for d in report.by_rule("MOD005")]
        assert any("extra global objects" in m for m in messages)

    def test_library_elements_are_clean(self):
        """The re-seated library IPs pass with zero suppressions."""
        from repro.core import generate_workload
        from repro.flow import build_platform

        workload = generate_workload(seed=3, n_commands=4,
                                     address_span=0x100)
        for bus in ("pci", "wishbone", "axi4lite", "tlmgp"):
            bundle = build_platform([workload], bus=bus)
            assert lint_design(bundle.handle.sim).clean, bus


class _SideState:
    def ping(self):
        return 1
