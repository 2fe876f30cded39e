"""Deterministic workload generation for examples, tests and benches.

A tiny explicit LCG keeps every workload reproducible from its seed with
no global random state (the kernel forbids wall-clock entropy anyway).
"""

from __future__ import annotations

import typing

from ..errors import SimulationError
from .command import CommandType

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..iface.params import IfaceParams


class _Lcg:
    """Minimal 31-bit linear congruential generator."""

    def __init__(self, seed: int) -> None:
        self._state = (seed ^ 0x5DEECE66D) & 0x7FFFFFFF

    def next_int(self, bound: int) -> int:
        if bound <= 0:
            raise SimulationError(f"LCG bound must be positive, got {bound}")
        self._state = (self._state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._state % bound

    def next_float(self) -> float:
        return self.next_int(1 << 24) / float(1 << 24)


def generate_workload(
    seed: int,
    n_commands: int,
    address_base: int = 0,
    address_span: int = 0x1000,
    max_burst: int = 4,
    write_fraction: float = 0.5,
    partial_byte_enable_fraction: float = 0.0,
    params: "IfaceParams | None" = None,
) -> list[CommandType]:
    """Build a reproducible mixed read/write command list.

    :param address_base / address_span: word-aligned window commands
        target; bursts never cross its end.
    :param max_burst: maximum words per command.
    :param write_fraction: probability a command is a write.
    :param partial_byte_enable_fraction: probability a command uses a
        partial (non-full) byte-enable mask.
    :param params: the interface parameters the workload must fit (see
        :meth:`~repro.iface.params.IfaceParams.misfit`): the window is
        cut at the end of the address space, and byte enables and data
        are drawn within the data path, at most four 8-bit lanes. The
        default parameters draw the same commands as no parameters.
    """
    if params is not None:
        address_span = min(address_span, (1 << params.addr_width) - address_base)
    if address_base % 4 or address_span % 4 or address_span <= 0:
        raise SimulationError(
            f"bad address window base={address_base:#x} span={address_span:#x}"
        )
    lanes = 4 if params is None else min(4, params.byte_lanes)
    full_lanes = (1 << lanes) - 1
    data_bits = 8 * lanes
    if max_burst < 1:
        raise SimulationError(f"max_burst must be >= 1, got {max_burst}")
    if not 0.0 <= write_fraction <= 1.0:
        raise SimulationError(f"write_fraction must be in [0,1], got {write_fraction}")
    rng = _Lcg(seed)
    words_in_span = address_span // 4
    commands: list[CommandType] = []
    for __ in range(n_commands):
        burst = 1 + rng.next_int(max_burst)
        burst = min(burst, words_in_span)
        start_word = rng.next_int(words_in_span - burst + 1)
        address = address_base + 4 * start_word
        byte_enables = full_lanes
        if rng.next_float() < partial_byte_enable_fraction:
            byte_enables = 1 + rng.next_int(full_lanes)  # never zero
        if rng.next_float() < write_fraction:
            data = [
                rng.next_int(1 << (data_bits - 1)) * 2 + rng.next_int(2)
                for _ in range(burst)
            ]
            commands.append(CommandType.write(address, data, byte_enables))
        else:
            commands.append(CommandType.read(address, count=burst, byte_enables=byte_enables))
    return commands


def expected_memory_image(
    commands: typing.Sequence[CommandType], span_words: int, base: int = 0
) -> list[int]:
    """Golden model: apply the write stream to a zeroed window."""
    image = [0] * span_words
    for command in commands:
        if not command.is_write:
            continue
        for offset, word in enumerate(command.data):
            index = (command.address - base) // 4 + offset
            if 0 <= index < span_words:
                merged = image[index]
                for lane in range(4):
                    if command.byte_enables & (1 << lane):
                        mask = 0xFF << (8 * lane)
                        merged = (merged & ~mask) | (word & mask)
                image[index] = merged
    return image
