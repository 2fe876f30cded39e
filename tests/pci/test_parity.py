"""Unit and property tests for PCI parity."""

from hypothesis import given, strategies as st

from repro.hdl import LogicVector
from repro.pci import parity_of, parity_of_vectors


class TestParityOf:
    def test_zero_is_even(self):
        assert parity_of(0, 0) == 0

    def test_single_bit_is_odd(self):
        assert parity_of(1, 0) == 1
        assert parity_of(0, 1) == 1

    def test_known_vector(self):
        # 0xF has four ones -> even -> parity bit 0.
        assert parity_of(0xF, 0) == 0
        # 0x7 has three ones -> odd -> parity bit 1.
        assert parity_of(0x7, 0) == 1

    def test_cbe_contributes(self):
        assert parity_of(0, 0xF) == 0
        assert parity_of(0, 0x7) == 1


class TestParityOfVectors:
    def test_defined_vectors(self):
        ad = LogicVector(32, 0xDEADBEEF)
        cbe = LogicVector(4, 0x7)
        assert parity_of_vectors(ad, cbe) == parity_of(0xDEADBEEF, 0x7)

    def test_undefined_returns_none(self):
        assert parity_of_vectors(LogicVector.high_z(32), LogicVector(4, 0)) is None
        assert parity_of_vectors(LogicVector(32, 0), LogicVector(4, None)) is None


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=0xF),
)
def test_total_ones_even(ad, cbe):
    """Property: AD + C/BE + PAR always has an even number of ones."""
    par = parity_of(ad, cbe)
    total = bin(ad).count("1") + bin(cbe).count("1") + par
    assert total % 2 == 0


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=0xF),
    st.integers(min_value=0, max_value=31),
)
def test_single_bit_flip_flips_parity(ad, cbe, bit):
    """Property: parity detects any single-bit error on AD."""
    assert parity_of(ad, cbe) != parity_of(ad ^ (1 << bit), cbe)
