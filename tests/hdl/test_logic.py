"""Unit tests for four-valued scalar logic."""

import pytest

from repro.errors import LogicValueError
from repro.hdl import L0, L1, LX, LZ, Logic, LogicVector, resolve_vectors


class TestConstruction:
    def test_interning(self):
        assert Logic("1") is L1
        assert Logic(0) is L0
        assert Logic("x") is LX
        assert Logic("z") is LZ
        assert Logic(True) is L1
        assert Logic(L0) is L0

    def test_invalid_literals(self):
        with pytest.raises(LogicValueError):
            Logic("q")
        with pytest.raises(LogicValueError):
            Logic(2)
        with pytest.raises(LogicValueError):
            Logic(3.5)

    def test_char_property(self):
        assert L1.char == "1"
        assert LZ.char == "Z"


class TestConversion:
    def test_bool_defined(self):
        assert bool(L1) is True
        assert bool(L0) is False

    def test_bool_undefined_raises(self):
        with pytest.raises(LogicValueError):
            bool(LX)
        with pytest.raises(LogicValueError):
            bool(LZ)

    def test_equality_with_primitives(self):
        assert L1 == 1
        assert L0 == False  # noqa: E712 - deliberate primitive comparison
        assert L1 == "1"
        assert LX != 1


def resolve(*values):
    """Resolve one wire's drivers: the width-1 case of bus resolution."""
    resolved = resolve_vectors(1, [LogicVector(1, value) for value in values])
    return resolved.bit(0)


class TestResolution:
    def test_all_z_is_z(self):
        assert resolve(LZ, LZ, LZ) is LZ

    def test_single_driver_wins(self):
        assert resolve(LZ, L1, LZ) is L1
        assert resolve(L0, LZ) is L0

    def test_agreeing_drivers(self):
        assert resolve(L1, L1) is L1

    def test_conflict_is_x(self):
        assert resolve(L1, L0) is LX

    def test_x_driver_poisons(self):
        assert resolve(LX, L1) is LX

    def test_empty_resolution_is_z(self):
        assert resolve() is LZ
