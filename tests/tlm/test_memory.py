"""Unit tests for functional memory models."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.tlm import Memory, apply_byte_enables


class TestMemory:
    def test_read_after_write(self):
        mem = Memory(1024)
        mem.write_word(0x10, 0xDEADBEEF)
        assert mem.read_word(0x10) == 0xDEADBEEF

    def test_fill_value_for_unwritten(self):
        mem = Memory(1024, fill=0xCAFEBABE)
        assert mem.read_word(0x20) == 0xCAFEBABE

    def test_unaligned_rejected(self):
        mem = Memory(1024)
        with pytest.raises(ProtocolError):
            mem.read_word(2)
        with pytest.raises(ProtocolError):
            mem.write_word(5, 0)

    def test_out_of_range_rejected(self):
        mem = Memory(64)
        with pytest.raises(ProtocolError):
            mem.read_word(64)
        with pytest.raises(ProtocolError):
            mem.write_word(0x100, 0)

    def test_oversized_data_rejected(self):
        mem = Memory(64)
        with pytest.raises(ProtocolError):
            mem.write_word(0, 1 << 32)

    def test_bad_size_rejected(self):
        with pytest.raises(ProtocolError):
            Memory(0)
        with pytest.raises(ProtocolError):
            Memory(10)

    def test_byte_enables_merge(self):
        mem = Memory(64)
        mem.write_word(0, 0xAABBCCDD)
        mem.write_word(0, 0x11223344, byte_enables=0b0101)
        assert mem.read_word(0) == 0xAA22CC44

    def test_access_counters(self):
        mem = Memory(64)
        mem.write_word(0, 1)
        assert mem.read_word(0) == 1
        assert mem.read_word(0) == 1
        assert mem.words_written == 1
        mem.write_word(0, 2)
        assert mem.words_written == 1

    def test_load_dump_skip_counters(self):
        mem = Memory(64)
        mem.load(0, [9, 8])
        assert mem.dump(0, 4) == [9, 8, 0, 0]
        assert mem.words_written == 2


class TestByteEnables:
    def test_all_lanes(self):
        assert apply_byte_enables(0, 0xFFFFFFFF, 0xF) == 0xFFFFFFFF

    def test_no_lanes(self):
        assert apply_byte_enables(0x12345678, 0, 0x0) == 0x12345678

    def test_invalid_mask(self):
        with pytest.raises(ProtocolError):
            apply_byte_enables(0, 0, 0x10)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=0xF),
    )
    def test_merge_lane_by_lane(self, old, new, mask):
        merged = apply_byte_enables(old, new, mask)
        for lane in range(4):
            shift = 8 * lane
            expected = (new if mask & (1 << lane) else old) >> shift & 0xFF
            assert (merged >> shift) & 0xFF == expected


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=2**32 - 1),
), min_size=1, max_size=40))
def test_memory_behaves_like_dict(ops):
    """Property: memory matches a reference dict under random writes."""
    mem = Memory(1024)
    reference = {}
    for word_index, value in ops:
        address = (word_index % 256) * 4
        mem.write_word(address, value)
        reference[address] = value
    for address, value in reference.items():
        assert mem.read_word(address) == value
