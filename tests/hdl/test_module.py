"""Unit tests for module hierarchy and sensitivity."""

import pytest

from repro.errors import ElaborationError
from repro.hdl import Module
from repro.kernel import NS, Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


class TestHierarchy:
    def test_paths(self, sim):
        top = Module(sim, "top")
        mid = Module(top, "mid")
        leaf = Module(mid, "leaf")
        assert leaf.path == "top.mid.leaf"
        assert leaf.sim is sim
        assert top.children == (mid,)

    def test_iter_modules_depth_first(self, sim):
        top = Module(sim, "top")
        a = Module(top, "a")
        b = Module(top, "b")
        a1 = Module(a, "a1")
        assert list(top.iter_modules()) == [top, a, a1, b]

    def test_bad_parent_rejected(self):
        with pytest.raises(ElaborationError):
            Module("not a parent", "x")


class TestSensitivity:
    def test_method_sensitive_to_signal(self, sim):
        top = Module(sim, "top")
        a = top.signal("a", width=1, init=0)
        b = top.signal("b", width=1, init=0)
        # Combinational: b = ~a, evaluated on every change of a.
        top.method(lambda: b.write((~a.read())), sensitivity=[a])

        def driver():
            yield Timeout(10 * NS)
            a.write(1)
            yield Timeout(10 * NS)

        sim.spawn(driver, "d")
        sim.run(30 * NS)
        assert b.read().to_int() == 0

    def test_bad_sensitivity_item_rejected(self, sim):
        top = Module(sim, "top")
        with pytest.raises(ElaborationError):
            top.method(lambda: None, sensitivity=["nope"])
