"""Unit tests for the address-map router."""

import pytest

from repro.errors import ProtocolError
from repro.tlm import AddressRouter, Memory, StatusRegisterBlock


@pytest.fixture
def router():
    router = AddressRouter()
    router.add_target(0x0000, 0x1000, Memory(0x1000), "ram")
    router.add_target(0x2000, 0x10, StatusRegisterBlock(), "regs")
    return router


class TestDecode:
    def test_routes_by_window(self, router):
        router.write_word(0x0100, 0xAA)
        assert router.read_word(0x0100) == 0xAA

    def test_local_addressing(self, router):
        """Targets see window-relative addresses."""
        ram = router.decode(0x0).target
        router.write_word(0x0FFC, 0x55)
        assert ram.read_word(0x0FFC) == 0x55

    def test_second_window(self, router):
        router.write_word(0x2008, 0x1234)  # DATA register
        assert router.read_word(0x2008) == 0x1234 ^ 0xFFFFFFFF

    def test_unmapped_address_rejected(self, router):
        with pytest.raises(ProtocolError):
            router.read_word(0x9000)

    def test_overlap_rejected(self):
        router = AddressRouter()
        router.add_target(0x0, 0x100, Memory(0x100))
        with pytest.raises(ProtocolError):
            router.add_target(0x80, 0x100, Memory(0x100))

    def test_adjacent_windows_allowed(self):
        router = AddressRouter()
        router.add_target(0x0, 0x100, Memory(0x100))
        router.add_target(0x100, 0x100, Memory(0x100))
        assert router.decode(0xFC).base == 0x0
        assert router.decode(0x100).base == 0x100

    def test_bad_range_rejected(self):
        router = AddressRouter()
        with pytest.raises(ProtocolError):
            router.add_target(0x2, 0x100, Memory(0x100))
        with pytest.raises(ProtocolError):
            router.add_target(0x0, 0, Memory(0x100))
