"""Resolved (multi-driver, tri-state) signals.

PCI multiplexes address and data on the AD lines, which several agents
drive at different times, releasing them to ``Z`` in turnaround cycles.
:class:`ResolvedSignal` models such a wire: every agent obtains its own
:class:`BusDriver`, and the committed value is the per-bit resolution of
all driver contributions.

Resolution is change-driven. A write marks the bus dirty only when the
driver's contribution becomes a different (immutable) vector, and the
update phase resolves again only a dirty bus; a clean one commits its
cached *driven* value. Two invariants keep this exact:

* Every update request still reaches the per-instance
  ``_perform_update``: the ``bit_flip``, ``stuck_at`` and ``glitch``
  fault hooks count and intercept those calls.
* The cache holds the driven resolution apart from ``_value``. Faults
  override ``_value`` out of band, and the next update commits the
  driven value again. Contributions change only through
  :meth:`BusDriver.write`, which checkpoint restore uses too.
"""

from __future__ import annotations

import typing

from ..errors import WidthError
from ..kernel.event import Event
from ..kernel.signal_base import UpdateTarget
from .bitvector import BITS, LogicVector, resolve_vectors

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.simulator import Simulator


class BusDriver:
    """One agent's contribution to a resolved bus."""

    def __init__(self, bus: "ResolvedSignal", name: str) -> None:
        self._bus = bus
        self.name = name
        self._contribution = bus._all_z

    def __repr__(self) -> str:
        return f"BusDriver({self._bus.name}:{self.name}={self._contribution})"

    @property
    def contribution(self) -> LogicVector:
        return self._contribution

    def write(self, value: "LogicVector | int | str") -> None:
        """Drive *value* onto the bus (committed at the update phase)."""
        bus = self._bus
        if not isinstance(value, LogicVector):
            if bus.width == 1 and type(value) is int:
                value = BITS[value & 1]
            else:
                value = LogicVector(bus.width, value)
        elif value._width != bus.width:
            raise WidthError(
                f"driver {self.name!r}: value width {value.width} != bus "
                f"width {bus.width}"
            )
        if value is not self._contribution:
            self._contribution = value
            bus._dirty = True
        if not bus._update_requested:
            bus._update_requested = True
            bus._scheduler._update_queue.append(bus)

    def release(self) -> None:
        """Stop driving: contribute all-Z."""
        self.write(self._bus._all_z)


class ResolvedSignal(UpdateTarget):
    """A multi-driver bus wire with per-bit 0/1/X/Z resolution."""

    def __init__(self, sim: "Simulator", name: str, width: int) -> None:
        super().__init__(sim.scheduler)
        self._sim = sim
        self.name = name
        self.width = width
        self._drivers: dict[str, BusDriver] = {}
        #: The all-Z vector every released driver contributes, shared
        #: (vectors are immutable).
        self._all_z = LogicVector.high_z(width)
        self._value = self._all_z
        #: The resolution of the current contributions, and whether a
        #: contribution changed since it was computed.
        self._driven = self._all_z
        self._dirty = False
        self._changed: Event | None = None

    def __repr__(self) -> str:
        return f"ResolvedSignal({self.name}={self._value})"

    # -- drivers ------------------------------------------------------------

    def get_driver(self, name: str) -> BusDriver:
        """The (per-agent) driver handle called *name*, created on demand."""
        try:
            return self._drivers[name]
        except KeyError:
            driver = BusDriver(self, name)
            self._drivers[name] = driver
            return driver

    @property
    def driver_names(self) -> tuple[str, ...]:
        return tuple(self._drivers)

    # -- access ---------------------------------------------------------------

    def read(self) -> LogicVector:
        return self._value

    @property
    def value(self) -> LogicVector:
        return self._value

    @property
    def changed(self) -> Event:
        if self._changed is None:
            self._changed = Event(self._scheduler, f"{self.name}.changed")
        return self._changed

    # -- update phase ------------------------------------------------------------

    def _resolve(self) -> LogicVector:
        """The per-bit resolution of every contribution. Without contention
        that is the all-Z vector or the one active driver's own vector
        (vectors are normalised, so resolving one driver returns it)."""
        all_z = self._all_z
        z_mask = all_z._z
        active = all_z
        for driver in self._drivers.values():
            contribution = driver._contribution
            if contribution is all_z or contribution._z == z_mask:
                continue
            if active is not all_z:
                return resolve_vectors(
                    self.width,
                    [entry._contribution for entry in self._drivers.values()],
                )
            active = contribution
        return active

    def _perform_update(self) -> None:
        if self._dirty:
            self._dirty = False
            self._driven = self._resolve()
        resolved = self._driven
        value = self._value
        if resolved is value or resolved == value:
            return
        self._value = resolved
        if self._changed is not None:
            self._changed.notify_delta()
        probes = self._sim._probes
        if probes is not None:
            probes.signal_commit(self._scheduler._time, self, resolved)
