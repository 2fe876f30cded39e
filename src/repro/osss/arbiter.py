"""Scheduling algorithms for concurrent guarded-method calls.

The paper: *"if different modules invoke at the same time the execution
of a guarded method of a shared global object, the calls are queued and
scheduled according to a user defined algorithm."* An :class:`Arbiter`
is that algorithm. The same object later parameterises the synthesized
RT-level arbiter FSM, so every arbiter carries a ``kind`` tag the
synthesis backend understands.
"""

from __future__ import annotations

import typing

from ..errors import ArbitrationError
from .request import MethodRequest


class Arbiter:
    """Base scheduling policy: pick one of the eligible requests."""

    #: Tag used by the synthesis backend to pick an RTL implementation.
    kind = "base"

    def select(self, eligible: typing.Sequence[MethodRequest]) -> MethodRequest:
        """Choose which request to service next.

        :param eligible: non-empty; pending requests whose guard is true.
        """
        raise NotImplementedError

    def _check(self, eligible: typing.Sequence[MethodRequest]) -> None:
        if not eligible:
            raise ArbitrationError(f"{type(self).__name__}: empty eligible set")


class FcfsArbiter(Arbiter):
    """First come, first served; ties broken by submission order."""

    kind = "fcfs"

    def select(self, eligible: typing.Sequence[MethodRequest]) -> MethodRequest:
        self._check(eligible)
        return min(eligible, key=lambda r: (r.arrival_time, r.seq))


class RoundRobinArbiter(Arbiter):
    """Rotating priority over client names.

    After granting client *c*, every other client gets priority over *c*
    in the next arbitration, which bounds starvation.
    """

    kind = "round_robin"

    def __init__(self) -> None:
        self._order: list[str] = []

    def _rank(self, client: str) -> int:
        if client not in self._order:
            self._order.append(client)
        return self._order.index(client)

    def select(self, eligible: typing.Sequence[MethodRequest]) -> MethodRequest:
        self._check(eligible)
        chosen = min(eligible, key=lambda r: (self._rank(r.client), r.seq))
        # Move the granted client to the back of the rotation.
        self._order.remove(chosen.client)
        self._order.append(chosen.client)
        return chosen


class StaticPriorityArbiter(Arbiter):
    """Fixed client priorities; lower number wins. Ties are FCFS.

    :param priorities: client name -> priority. Unlisted clients get
        *default_priority*.
    """

    kind = "static_priority"

    def __init__(
        self,
        priorities: typing.Mapping[str, int] | None = None,
        default_priority: int = 100,
    ) -> None:
        self.priorities = dict(priorities or {})
        self.default_priority = default_priority

    def priority_of(self, client: str) -> int:
        return self.priorities.get(client, self.default_priority)

    def select(self, eligible: typing.Sequence[MethodRequest]) -> MethodRequest:
        self._check(eligible)
        return min(
            eligible,
            key=lambda r: (self.priority_of(r.client), r.arrival_time, r.seq),
        )


class RandomArbiter(Arbiter):
    """Seeded pseudo-random selection (deterministic for a given seed)."""

    kind = "random"

    def __init__(self, seed: int = 0) -> None:
        # A tiny explicit LCG keeps runs reproducible without global RNG state.
        self._state = seed & 0xFFFFFFFF

    def _next(self) -> int:
        self._state = (self._state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._state

    def select(self, eligible: typing.Sequence[MethodRequest]) -> MethodRequest:
        self._check(eligible)
        ordered = sorted(eligible, key=lambda r: r.seq)
        return ordered[self._next() % len(ordered)]

