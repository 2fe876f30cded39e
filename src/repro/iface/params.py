"""Structural parameters of a library interface element.

The paper's library promise only holds if the elements are *generic*:
one Wishbone handler that elaborates at 16, 32 or 64 bits, not three
hand-written variants. :class:`IfaceParams` is the single record every
element (and the generic platform builder) elaborates from — data and
address path widths and the response-FIFO depth of the
:class:`~repro.core.bus_interface.BusInterfaceChannel`.

Widths flow outward from here: into the :mod:`repro.hdl` signals of the
wire bundles, through :mod:`repro.synthesis` into the generated netlists
and emitted Verilog/VHDL, and into the compiled backend's masking — the
``generate``-style elaboration step of classic HDLs.
"""

from __future__ import annotations

import dataclasses
import typing

from ..errors import RefinementError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.command import CommandType


@dataclasses.dataclass(frozen=True)
class IfaceParams:
    """Elaboration parameters shared by every interface element.

    :param data_width: bit width of the data path (must be a multiple
        of 8 — byte enables select whole lanes).
    :param addr_width: bit width of the address path.
    :param response_capacity: read responses the element's channel can
        buffer before the protocol side blocks (see
        :class:`~repro.core.bus_interface.BusInterfaceChannel`).
    """

    data_width: int = 32
    addr_width: int = 32
    response_capacity: int = 4

    def __post_init__(self) -> None:
        if self.data_width < 8 or self.data_width % 8:
            raise RefinementError(
                f"data_width must be a positive multiple of 8, got "
                f"{self.data_width}"
            )
        if self.addr_width < 1:
            raise RefinementError(
                f"addr_width must be >= 1, got {self.addr_width}"
            )
        if self.response_capacity < 1:
            raise RefinementError(
                f"response_capacity must be >= 1, got "
                f"{self.response_capacity}"
            )

    # -- derived structural facts -----------------------------------------

    @property
    def byte_lanes(self) -> int:
        """Byte-enable lanes on the data path."""
        return self.data_width // 8

    @property
    def byte_enable_mask(self) -> int:
        """All byte lanes enabled (e.g. ``0xF`` at 32 bits)."""
        return (1 << self.byte_lanes) - 1

    @property
    def data_mask(self) -> int:
        return (1 << self.data_width) - 1

    def misfit(self, command: "CommandType") -> str | None:
        """Why *command* does not fit these parameters, or None.

        A command covers ``4 * count`` bytes from its address, which must
        lie inside the address space; its byte enables must name lanes
        of the data path and every data word must fit its width.
        """
        end = command.address + 4 * command.count
        if command.address < 0 or end > 1 << self.addr_width:
            return (
                f"its bytes {command.address:#x}..{end - 1:#x} exceed the "
                f"{self.addr_width}-bit address space"
            )
        if command.byte_enables & ~self.byte_enable_mask:
            return (
                f"its byte enables {command.byte_enables:#x} exceed the "
                f"{self.byte_lanes}-lane mask {self.byte_enable_mask:#x}"
            )
        for word in command.data:
            if word < 0 or word & ~self.data_mask:
                return (
                    f"its data word {word:#x} exceeds {self.data_width} bits"
                )
        return None

    def describe(self) -> dict:
        """Flat record for reports and ``describe()`` metadata."""
        return {
            "data_width": self.data_width,
            "addr_width": self.addr_width,
            "response_capacity": self.response_capacity,
            "byte_lanes": self.byte_lanes,
        }
