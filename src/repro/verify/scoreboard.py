"""Scoreboards: expected-vs-observed checking during simulation."""

from __future__ import annotations

import typing
from collections import deque

from ..errors import ConsistencyError
from ..tlm.memory import Memory
from .checkers import report_violation


class Scoreboard:
    """A FIFO scoreboard: expectations are matched in order.

    :param name: label used in error messages.
    :param strict: raise on the first mismatch (otherwise collect).
    :param sim: optional simulator; mismatches are then also reported
        through :meth:`~repro.kernel.simulator.Simulator.report_detection`
        so fault-injection campaigns can classify them as *detected*.
    """

    def __init__(
        self, name: str = "scoreboard", strict: bool = True, sim=None
    ) -> None:
        self.name = name
        self.strict = strict
        self.sim = sim
        self._expected: deque = deque()
        self.matched = 0
        self.mismatches: list[str] = []

    def expect(self, item: object) -> None:
        self._expected.append(item)

    def expect_all(self, items: typing.Iterable) -> None:
        for item in items:
            self.expect(item)

    def observe(self, item: object) -> None:
        if not self._expected:
            self._fail(f"{self.name}: unexpected item {item!r}")
            return
        expected = self._expected.popleft()
        if expected != item:
            self._fail(f"{self.name}: expected {expected!r}, observed {item!r}")
            return
        self.matched += 1

    def _fail(self, message: str) -> None:
        report_violation(
            self.mismatches, self.sim, self.name, message, self.strict,
            ConsistencyError,
        )

    @property
    def outstanding(self) -> int:
        return len(self._expected)

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self._expected

    def require_clean(self) -> None:
        if self.mismatches:
            raise ConsistencyError(
                f"{self.name}: {len(self.mismatches)} mismatch(es): "
                f"{self.mismatches[0]}"
            )
        if self._expected:
            raise ConsistencyError(
                f"{self.name}: {len(self._expected)} expectation(s) never observed"
            )


def check_memory_image(
    memory: Memory,
    expected: typing.Sequence[int],
    base: int = 0,
    name: str = "memory",
) -> None:
    """Compare a memory window against a golden word image."""
    actual = memory.dump(base, len(expected))
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            raise ConsistencyError(
                f"{name}[{base + 4 * index:#x}]: expected {want:#010x}, "
                f"found {got:#010x}"
            )
