"""Fault-campaign rules (FLT0xx).

These run over a :class:`CampaignContext` — a declarative
:class:`~repro.fault.spec.CampaignSpec` paired with a probe build of its
platform — and catch campaign specifications that cannot produce useful
coverage numbers before a single faulty run is spent.
"""

from __future__ import annotations

import typing

from ..hdl.resolved import ResolvedSignal
from ..hdl.signal import Signal
from .diagnostics import Diagnostic, Severity
from .engine import CAMPAIGN, LintRule, register

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fault.spec import CampaignSpec
    from ..flow.platforms import PlatformBundle


def _signals_of(obj: object) -> list:
    """All Signal/ResolvedSignal attributes of a design object."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, (Signal, ResolvedSignal)):
            found.append(value)
    return found


class CampaignContext:
    """One campaign spec resolved against a probe build of its platform."""

    def __init__(self, spec: "CampaignSpec", bundle: "PlatformBundle") -> None:
        self.spec = spec
        self.sim = bundle.handle.sim
        from ..fault.campaign import injectable_targets

        self.signal_paths, self.channel_paths = injectable_targets(bundle)

    def observed_signal_paths(self) -> set:
        """Signals some runtime checker actually watches.

        Two observer families exist today:

        * bus monitors — any design object carrying both a
          ``violations`` list and a ``bus``; every wire of that bus is
          under its eye;
        * invariant/one-hot checkers — objects with a ``watched``
          signal (or list of signals).
        """
        observed: set = set()
        for __, obj in self.sim.iter_named():
            if hasattr(obj, "violations") and hasattr(obj, "bus"):
                for signal in _signals_of(obj.bus):
                    observed.add(signal.name)
            watched = getattr(obj, "watched", None)
            if isinstance(watched, (Signal, ResolvedSignal)):
                observed.add(watched.name)
            elif isinstance(watched, (list, tuple)):
                for signal in watched:
                    if isinstance(signal, (Signal, ResolvedSignal)):
                        observed.add(signal.name)
        return observed


@register
class UnobservedFaultTargetRule(LintRule):
    """FLT001: a signal-fault line no runtime checker can ever see.

    A fault injected on a wire that neither a bus monitor nor an
    invariant checker observes can only ever classify as *silent* or
    *benign* — the campaign spends runs proving a detection gap that is
    already knowable statically. Either the fault line or the
    platform's checker set should change.
    """

    rule_id = "FLT001"
    name = "unobserved-fault-target"
    target = CAMPAIGN
    default_severity = Severity.WARNING
    description = (
        "a campaign fault line targets only signals that no checker or "
        "bus monitor observes (guaranteed-silent faults)"
    )

    def check(self, subject: CampaignContext) -> typing.Iterator[Diagnostic]:
        from ..fault.models import SIGNAL_TARGET
        from ..fault.spec import match_targets

        observed = subject.observed_signal_paths()
        for fault in subject.spec.faults:
            if fault.target_kind != SIGNAL_TARGET:
                continue
            matched = match_targets(fault.target, subject.signal_paths)
            if not matched:
                # expand_campaign already rejects empty matches loudly.
                continue
            unobserved = [path for path in matched if path not in observed]
            if len(unobserved) < len(matched):
                continue
            shown = ", ".join(unobserved[:3])
            if len(unobserved) > 3:
                shown += f", ... ({len(unobserved) - 3} more)"
            yield self.emit(
                fault.target,
                f"{fault.kind} fault targets only unobserved signals: "
                f"{shown}",
                hint=(
                    "attach a monitor or invariant checker to the wire, "
                    "or aim the fault at an observed one — every run on "
                    "this line is guaranteed to classify silent/benign"
                ),
            )
