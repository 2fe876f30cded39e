"""Unit and property tests for LogicVector."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import LogicValueError, WidthError
from repro.hdl import L0, L1, LX, LZ, LogicVector, resolve_vectors


class TestConstruction:
    def test_from_int(self):
        vec = LogicVector(8, 0xA5)
        assert vec.to_int() == 0xA5
        assert str(vec) == "10100101"

    def test_int_wraps_to_width(self):
        assert LogicVector(4, 0x1F).to_int() == 0xF

    def test_from_string_msb_first(self):
        vec = LogicVector(4, "10XZ")
        assert vec.bit(3) is L1
        assert vec.bit(2) is L0
        assert vec.bit(1) is LX
        assert vec.bit(0) is LZ

    def test_from_string_wrong_length(self):
        with pytest.raises(WidthError):
            LogicVector(4, "101")

    def test_from_string_bad_char(self):
        with pytest.raises(LogicValueError):
            LogicVector(3, "1q0")

    def test_none_means_all_x(self):
        vec = LogicVector(4, None)
        assert str(vec) == "XXXX"

    def test_scalar_fill(self):
        assert str(LogicVector(3, LZ)) == "ZZZ"
        assert str(LogicVector(3, L1)) == "111"

    def test_factories(self):
        assert str(LogicVector.high_z(2)) == "ZZ"
        assert LogicVector(4, "0b1010").to_int() == 10
        assert LogicVector(3, "1_0_1").to_int() == 5

    @given(st.integers(1, 96), st.integers(-(2**100), 2**100))
    def test_int_masks_to_width_and_keeps_a_fitting_value(self, width, value):
        """A value that fits is stored as the very int given: a monitor
        record, a trace and a memory word share the int a master wrote."""
        mask = (1 << width) - 1
        vec = LogicVector(width, value)
        assert vec._ones == value & mask
        assert vec.is_fully_defined
        if 0 <= value <= mask:
            assert vec._ones is value

    def test_zero_width_rejected(self):
        with pytest.raises(WidthError):
            LogicVector(0, 0)


class TestConversion:
    def test_to_int_rejects_xz(self):
        with pytest.raises(LogicValueError):
            LogicVector(4, "1X00").to_int()
        with pytest.raises(LogicValueError):
            LogicVector(4, "1Z00").to_int()

    def test_to_int_default(self):
        assert LogicVector(4, "1X00").to_int_default(-1) == -1
        assert LogicVector(4, "1100").to_int_default(-1) == 0xC

    def test_to_hex(self):
        assert LogicVector(8, 0xA5).to_hex() == "a5"
        assert LogicVector(8, "XXXX0101").to_hex() == "x5"
        assert LogicVector(8, "ZZZZ0101").to_hex() == "z5"

    def test_index_protocol(self):
        assert hex(LogicVector(8, 0x42)) == "0x42"


class TestBitAccess:
    def test_slice_method(self):
        vec = LogicVector(8, 0xAB)
        assert vec.slice(7, 4).to_int() == 0xA

    def test_slice_out_of_range(self):
        with pytest.raises(WidthError):
            LogicVector(4, 0).slice(4, 0)

    def test_resized(self):
        """A vector of another width is zero-extended or truncated."""
        assert LogicVector(8, LogicVector(4, 0xF)).to_int() == 0x0F
        assert LogicVector(4, LogicVector(8, 0xFF)).to_int() == 0xF
        assert str(LogicVector(6, LogicVector(4, "1XZ0"))) == "001XZ0"


class TestResolution:
    def test_no_drivers_high_z(self):
        assert str(resolve_vectors(4, [])) == "ZZZZ"

    def test_complementary_drivers(self):
        a = LogicVector(4, "10ZZ")
        b = LogicVector(4, "ZZ01")
        assert str(resolve_vectors(4, [a, b])) == "1001"

    def test_conflicting_bits_become_x(self):
        a = LogicVector(4, "11ZZ")
        b = LogicVector(4, "10ZZ")
        assert str(resolve_vectors(4, [a, b])) == "1XZZ"

    def test_x_driver_poisons_bit(self):
        a = LogicVector(2, "X1")
        b = LogicVector(2, "Z1")
        assert str(resolve_vectors(2, [a, b])) == "X1"

    def test_width_mismatch_rejected(self):
        with pytest.raises(WidthError):
            resolve_vectors(4, [LogicVector(3, 0)])


# -- property-based tests ------------------------------------------------------

widths = st.integers(min_value=1, max_value=64)


@st.composite
def vector_and_value(draw):
    width = draw(widths)
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return width, value


@given(vector_and_value())
def test_roundtrip_int(pair):
    width, value = pair
    assert LogicVector(width, value).to_int() == value


@given(vector_and_value())
def test_roundtrip_string(pair):
    width, value = pair
    vec = LogicVector(width, value)
    assert LogicVector(width, str(vec)) == vec


@given(vector_and_value())
def test_concat_slice_roundtrip(pair):
    width, value = pair
    vec = LogicVector(width, value)
    doubled = LogicVector(2 * width, (value << width) | value)
    assert doubled.slice(width - 1, 0) == vec
    assert doubled.slice(2 * width - 1, width) == vec


@given(st.lists(vector_and_value(), min_size=1, max_size=5))
def test_resolution_defined_drivers(pairs):
    """With all drivers fully defined, any conflict bit must be X."""
    width = max(p[0] for p in pairs)
    drivers = [LogicVector(width, p[1] & ((1 << width) - 1)) for p in pairs]
    resolved = resolve_vectors(width, drivers)
    for i in range(width):
        bits = {driver.bit(i) for driver in drivers}
        if len(bits) == 1:
            assert resolved.bit(i) is bits.pop()
        else:
            assert resolved.bit(i) is LX


@given(vector_and_value())
def test_resolution_with_z_is_transparent(pair):
    width, value = pair
    vec = LogicVector(width, value)
    floating = LogicVector.high_z(width)
    assert resolve_vectors(width, [vec, floating]) == vec
