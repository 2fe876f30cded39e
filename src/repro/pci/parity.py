"""PCI parity generation and checking.

PAR carries even parity over the AD lines and the C/BE# lines: the
number of '1's across AD, C/BE# and PAR together is even. PAR lags the
lines it protects by one clock, which is handled by the agents, not
here. The span of lines protected follows the bus elaboration width —
32-bit AD plus 4 C/BE# lines by default.
"""

from __future__ import annotations

from ..hdl.bitvector import LogicVector
from .constants import AD_WIDTH, byte_enable_mask, data_mask


def parity_of(ad_value: int, cbe_value: int, ad_width: int = AD_WIDTH) -> int:
    """Even-parity bit over AD[ad_width-1:0] and its C/BE# lanes."""
    combined = (ad_value & data_mask(ad_width)) | (
        (cbe_value & byte_enable_mask(ad_width)) << ad_width
    )
    return bin(combined).count("1") & 1


def parity_of_vectors(ad: LogicVector, cbe: LogicVector) -> int | None:
    """Parity over sampled vectors; ``None`` when either has X/Z bits.

    The protected span is taken from the AD vector itself, so monitors
    and agents on a non-default-width bus check the right lines.
    """
    if not ad.is_fully_defined or not cbe.is_fully_defined:
        return None
    return parity_of(ad.to_int(), cbe.to_int(), ad.width)
