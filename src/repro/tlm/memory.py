"""Functional memory models (the "memories" IP of the paper's Figure 2)."""

from __future__ import annotations

import typing

from ..errors import ProtocolError
from .interfaces import (
    ALL_BYTES,
    TlmTarget,
    apply_byte_enables,
    check_word_address,
    check_word_data,
)


class Memory(TlmTarget):
    """Sparse word-addressed RAM.

    :param size_bytes: capacity; accesses beyond it raise
        :class:`~repro.errors.ProtocolError`.
    :param fill: value returned for never-written words.
    """

    def __init__(self, size_bytes: int = 1 << 20, fill: int = 0) -> None:
        if size_bytes <= 0 or size_bytes % 4:
            raise ProtocolError(
                f"memory size must be a positive multiple of 4, got {size_bytes}"
            )
        check_word_data(fill)
        self.size_bytes = size_bytes
        self.fill = fill
        self._words: dict[int, int] = {}

    def _check_range(self, address: int) -> int:
        check_word_address(address)
        if address >= self.size_bytes:
            raise ProtocolError(
                f"address {address:#x} beyond memory size {self.size_bytes:#x}"
            )
        return address

    def read_word(self, address: int) -> int:
        self._check_range(address)
        return self._words.get(address // 4, self.fill)

    def write_word(self, address: int, data: int, byte_enables: int = ALL_BYTES) -> None:
        self._check_range(address)
        check_word_data(data)
        if byte_enables == ALL_BYTES:
            self._words[address // 4] = data
            return
        old = self._words.get(address // 4, self.fill)
        self._words[address // 4] = apply_byte_enables(old, data, byte_enables)

    # -- test/bench conveniences ----------------------------------------------

    def load(self, address: int, words: typing.Sequence[int]) -> None:
        """Bulk-initialise memory contents."""
        self._check_range(address)
        for offset, word in enumerate(words):
            check_word_data(word)
            self._words[address // 4 + offset] = word

    def dump(self, address: int, count: int) -> list[int]:
        """Read *count* consecutive words in one call."""
        self._check_range(address)
        return [self._words.get(address // 4 + i, self.fill) for i in range(count)]

    @property
    def words_written(self) -> int:
        return len(self._words)


class RomMemory(Memory):
    """Read-only memory: writes raise :class:`ProtocolError`."""

    def __init__(
        self,
        contents: typing.Sequence[int],
        size_bytes: int | None = None,
        fill: int = 0,
    ) -> None:
        size = size_bytes if size_bytes is not None else max(4, 4 * len(contents))
        super().__init__(size, fill)
        self.load(0, contents)

    def write_word(self, address: int, data: int, byte_enables: int = ALL_BYTES) -> None:
        raise ProtocolError(f"write to ROM at {address:#x}")
