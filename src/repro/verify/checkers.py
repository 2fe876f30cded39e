"""Runtime invariant checkers attached to signals, and the one
violation path every runtime checker reports through."""

from __future__ import annotations

import typing

from ..errors import ProtocolError, ReproError
from ..hdl.bitvector import LogicVector
from ..hdl.module import Module
from ..hdl.signal import Signal


def report_violation(
    log: list[str],
    sim: typing.Any,
    source: str,
    text: str,
    strict: bool,
    error: type[ReproError] = ProtocolError,
) -> None:
    """Record one broken rule: the path of every runtime checker.

    Appends *text* to the checker's *log*, reports it as a detection by
    *source* when a simulator *sim* is given (so fault campaigns classify
    the run as *detected* whether or not the checker is strict), and,
    when *strict*, raises *error*. The raised message is *text* prefixed
    with ``"<source>: "`` unless *text* already starts with it.
    """
    log.append(text)
    if sim is not None:
        sim.report_detection(source, text)
    if strict:
        prefix = f"{source}: "
        raise error(text if text.startswith(prefix) else prefix + text)


class InvariantChecker(Module):
    """Applies a predicate to a signal's value on every change.

    :param predicate: called with the new value; falsy means violation.
    :param strict: raise immediately (otherwise collect in
        :attr:`violations`).
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        signal: Signal,
        predicate: typing.Callable[[object], bool],
        message: str = "invariant violated",
        strict: bool = True,
    ) -> None:
        super().__init__(parent, name)
        self.watched = signal
        self.predicate = predicate
        self.message = message
        self.strict = strict
        self.violations: list[str] = []
        self.checks = 0
        self.method(self._check, sensitivity=[signal], initialize=False)

    def _check(self) -> None:
        self.checks += 1
        value = self.watched.read()
        if self.predicate(value):
            return
        report_violation(
            self.violations, self.sim, self.path,
            f"{self.sim.time_str()}: {self.message} (value={value!r})",
            self.strict,
        )


class OneHotChecker(Module):
    """Checks that at most one of a set of 1-bit signals is asserted.

    Used on the synthesized channel's grant lines and the PCI GNT# pins
    (active level configurable).
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        signals: typing.Sequence[Signal],
        active_low: bool = False,
        strict: bool = True,
    ) -> None:
        super().__init__(parent, name)
        self.watched = list(signals)
        self.active_low = active_low
        self.strict = strict
        self.violations: list[str] = []
        self.checks = 0
        self.method(
            self._check, sensitivity=list(self.watched), initialize=False
        )

    def _asserted(self, value: object) -> bool:
        if isinstance(value, LogicVector):
            level = value.to_int_default(1 if self.active_low else 0)
        else:
            level = int(bool(value))
        return level == 0 if self.active_low else level == 1

    def _check(self) -> None:
        self.checks += 1
        asserted = [
            signal.name
            for signal in self.watched
            if self._asserted(signal.read())
        ]
        if len(asserted) <= 1:
            return
        report_violation(
            self.violations, self.sim, self.path,
            f"{self.sim.time_str()}: multiple asserted: {asserted}",
            self.strict,
        )
