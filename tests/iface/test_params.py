"""Tests for IfaceParams — the generate-style elaboration record."""

import dataclasses

import pytest

from repro.errors import RefinementError
from repro.iface import IfaceParams


class TestValidation:
    def test_defaults(self):
        params = IfaceParams()
        assert params.data_width == 32
        assert params.addr_width == 32
        assert params.max_burst == 8
        assert params.response_capacity == 4

    @pytest.mark.parametrize("width", [0, 4, 7, 12, -8])
    def test_data_width_must_be_byte_multiple(self, width):
        with pytest.raises(RefinementError):
            IfaceParams(data_width=width)

    def test_addr_width_positive(self):
        with pytest.raises(RefinementError):
            IfaceParams(addr_width=0)

    def test_max_burst_positive(self):
        with pytest.raises(RefinementError):
            IfaceParams(max_burst=0)

    def test_response_capacity_positive(self):
        with pytest.raises(RefinementError):
            IfaceParams(response_capacity=0)

    def test_frozen(self):
        params = IfaceParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.data_width = 64


class TestDerived:
    @pytest.mark.parametrize(
        "width,lanes,be_mask",
        [(8, 1, 0x1), (16, 2, 0x3), (32, 4, 0xF), (64, 8, 0xFF)],
    )
    def test_byte_lanes_track_data_width(self, width, lanes, be_mask):
        params = IfaceParams(data_width=width)
        assert params.byte_lanes == lanes
        assert params.word_bytes == lanes
        assert params.byte_enable_mask == be_mask
        assert params.data_mask == (1 << width) - 1

    def test_addr_mask(self):
        assert IfaceParams(addr_width=16).addr_mask == 0xFFFF

    def test_replace_revalidates(self):
        base = IfaceParams(data_width=64)
        deeper = dataclasses.replace(base, response_capacity=9)
        assert deeper.response_capacity == 9
        assert deeper.data_width == 64
        assert base.response_capacity == 4  # original untouched
        with pytest.raises(RefinementError):
            dataclasses.replace(base, response_capacity=0)

    def test_describe(self):
        record = IfaceParams(data_width=16).describe()
        assert record["data_width"] == 16
        assert record["byte_lanes"] == 2
        assert record["response_capacity"] == 4
