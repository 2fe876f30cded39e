"""Unit tests for workload generation and the golden memory model."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    CommandType,
    expected_memory_image,
    generate_workload,
)
from repro.errors import SimulationError


class TestGenerateWorkload:
    def test_deterministic_for_seed(self):
        a = generate_workload(5, 20)
        b = generate_workload(5, 20)
        assert [c.signature() for c in a] == [c.signature() for c in b]

    def test_different_seeds_differ(self):
        a = generate_workload(1, 20)
        b = generate_workload(2, 20)
        assert [c.signature() for c in a] != [c.signature() for c in b]

    def test_commands_within_window(self):
        commands = generate_workload(3, 50, address_base=0x100,
                                     address_span=0x100, max_burst=8)
        for command in commands:
            assert 0x100 <= command.address
            assert command.address + 4 * command.count <= 0x200

    def test_write_fraction_extremes(self):
        all_writes = generate_workload(1, 30, write_fraction=1.0)
        assert all(c.is_write for c in all_writes)
        all_reads = generate_workload(1, 30, write_fraction=0.0)
        assert all(c.is_read for c in all_reads)

    def test_partial_byte_enables_generated(self):
        commands = generate_workload(1, 60, partial_byte_enable_fraction=1.0)
        assert all(c.byte_enables != 0 for c in commands)
        assert any(c.byte_enables != 0xF for c in commands)

    def test_burst_bound(self):
        commands = generate_workload(1, 50, max_burst=2)
        assert all(c.count <= 2 for c in commands)

    def test_validation(self):
        with pytest.raises(SimulationError):
            generate_workload(1, 5, address_base=2)
        with pytest.raises(SimulationError):
            generate_workload(1, 5, max_burst=0)
        with pytest.raises(SimulationError):
            generate_workload(1, 5, write_fraction=1.5)


class TestGoldenModel:
    def test_simple_overwrite(self):
        commands = [
            CommandType.write(0x0, [1, 2]),
            CommandType.write(0x4, [9]),
        ]
        assert expected_memory_image(commands, 3) == [1, 9, 0]

    def test_byte_enable_merge(self):
        commands = [
            CommandType.write(0x0, [0xAABBCCDD]),
            CommandType.write(0x0, [0x11223344], byte_enables=0b1010),
        ]
        assert expected_memory_image(commands, 1) == [0x11BB33DD]

    def test_reads_ignored(self):
        commands = [CommandType.read(0x0, count=4)]
        assert expected_memory_image(commands, 2) == [0, 0]

    def test_out_of_window_writes_dropped(self):
        commands = [CommandType.write(0x100, [7])]
        assert expected_memory_image(commands, 2) == [0, 0]

    @given(st.integers(min_value=0, max_value=10_000))
    def test_image_matches_naive_replay(self, seed):
        commands = generate_workload(seed, 15, address_span=0x40, max_burst=3,
                                     partial_byte_enable_fraction=0.5)
        image = expected_memory_image(commands, 0x40 // 4)
        # Naive replay with dict + per-byte merge.
        reference = {}
        for command in commands:
            if not command.is_write:
                continue
            for offset, word in enumerate(command.data):
                index = command.address // 4 + offset
                old = reference.get(index, 0)
                merged = old
                for lane in range(4):
                    if command.byte_enables & (1 << lane):
                        mask = 0xFF << (8 * lane)
                        merged = (merged & ~mask) | (word & mask)
                reference[index] = merged
        for index in range(0x40 // 4):
            assert image[index] == reference.get(index, 0)
