"""Unit tests for the functional peripheral models."""

import pytest

from repro.errors import ProtocolError
from repro.tlm import DmaPeripheral, Memory, StatusRegisterBlock


class TestStatusRegisterBlock:
    def test_control_enable(self):
        block = StatusRegisterBlock()
        block.write_word(block.CONTROL, 1)
        assert block.enabled
        assert block.read_word(block.CONTROL) == 1
        assert block.read_word(block.STATUS) & 1

    def test_data_register_inverted_readback(self):
        block = StatusRegisterBlock()
        block.write_word(block.DATA, 0x0000FFFF)
        assert block.read_word(block.DATA) == 0xFFFF0000

    def test_write_counter_in_status(self):
        block = StatusRegisterBlock()
        for __ in range(3):
            block.write_word(block.DATA, 0)
        assert (block.read_word(block.STATUS) >> 4) & 0xF == 3

    def test_clear_status(self):
        block = StatusRegisterBlock()
        block.write_word(block.DATA, 0)
        block.write_word(block.CONTROL, 2)
        assert (block.read_word(block.STATUS) >> 4) & 0xF == 0

    def test_scratch_roundtrip(self):
        block = StatusRegisterBlock()
        block.write_word(block.SCRATCH, 0x12345678)
        assert block.read_word(block.SCRATCH) == 0x12345678

    def test_status_read_only(self):
        block = StatusRegisterBlock()
        with pytest.raises(ProtocolError):
            block.write_word(block.STATUS, 0)

    def test_offsets_wrap_mod_16(self):
        block = StatusRegisterBlock()
        block.write_word(0x100C, 0x77)  # high bits ignored -> SCRATCH
        assert block.read_word(block.SCRATCH) == 0x77


class TestDmaPeripheral:
    def test_programmed_copy(self):
        mem = Memory(1024)
        mem.load(0x100, [1, 2, 3, 4])
        dma = DmaPeripheral(mem)
        dma.write_word(dma.SRC, 0x100)
        dma.write_word(dma.DST, 0x200)
        dma.write_word(dma.LEN, 4)
        dma.write_word(dma.START, 1)
        assert mem.dump(0x200, 4) == [1, 2, 3, 4]
        assert dma.read_word(dma.START) == 1  # done bit

    def test_register_readback(self):
        dma = DmaPeripheral(Memory(64))
        dma.write_word(dma.SRC, 0x10)
        dma.write_word(dma.DST, 0x20)
        dma.write_word(dma.LEN, 2)
        assert dma.read_word(dma.SRC) == 0x10
        assert dma.read_word(dma.DST) == 0x20
        assert dma.read_word(dma.LEN) == 2

    def test_start_zero_does_nothing(self):
        mem = Memory(64)
        dma = DmaPeripheral(mem)
        dma.write_word(dma.START, 0)
        assert not dma.done
        assert mem.words_written == 0
