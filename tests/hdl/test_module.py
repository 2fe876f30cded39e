"""Unit tests for module hierarchy."""

import pytest

from repro.errors import ElaborationError
from repro.hdl import Module
from repro.kernel import Simulator


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
