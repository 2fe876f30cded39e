"""repro.resilience — error recovery across the communication stack.

The paper's central claim is that communication behaviour lives in
swappable interface elements. This package exploits that for
*robustness*: recovery is layered into exactly those elements, leaving
application code untouched at every refinement level.

Four levels:

* **guarded-call policies** (:mod:`.policy`) — declarative
  :class:`RetryPolicy` objects attached to shared-object methods;
  timeouts, bounded exponential backoff in sim-time, seeded jitter.
* **protocol recovery** (:class:`InterfaceRecovery`) — transaction
  replay inside the PCI/Wishbone interface IPs for master aborts, bus
  errors and PERR#-style read-parity mismatches.
* **kernel watchdog** (:mod:`.watchdog`) — portable in-sim run
  supervision that stops a run over its wall budget or stalled in a
  deadlock.
* **self-healing campaigns** — consumed by :mod:`repro.fault`: worker
  supervision, the ``recovered`` outcome class, recovery-latency stats.

Everything recovery does is observable over the probe bus
(``resilience.timeout/retry/giveup/recovered``); :class:`RecoveryLog`
collects those events and aggregates latency statistics.
"""

from __future__ import annotations

import typing

from .policy import (
    ALL_METHODS,
    RetryPolicy,
    attach_retry_policy,
    default_guard_policy,
)
from .recovery import InterfaceRecovery, RecoveryEpisode, RecoveryLog
from .watchdog import RunWatchdog, communication_progress

#: Application-side channel methods a campaign policy covers. The
#: protocol-side methods (``get_command``, ``put_response``) block as
#: part of normal operation — a dispatcher idling on an empty channel
#: must never "time out" — so policies are deliberately not attached
#: to them.
APPLICATION_METHODS: tuple[str, ...] = ("put_command", "app_data_get")


class ResilienceConfig:
    """The full recovery configuration of one platform (picklable).

    :param guard_policy: retry policy for the application-side channel
        methods (None = no call-level recovery).
    :param interface: protocol replay knobs for the bus interface
        element (None = no transaction replay).
    """

    def __init__(
        self,
        guard_policy: RetryPolicy | None = None,
        interface: InterfaceRecovery | None = None,
    ) -> None:
        self.guard_policy = guard_policy
        self.interface = interface

    @classmethod
    def default(cls, seed: int = 11) -> "ResilienceConfig":
        """The stock configuration ``fault --resilience`` runs with."""
        return cls(
            guard_policy=default_guard_policy(seed),
            interface=InterfaceRecovery(),
        )

    def __repr__(self) -> str:
        return (
            f"ResilienceConfig(policy={self.guard_policy!r}, "
            f"interface={self.interface!r})"
        )


def apply_resilience(target: typing.Any, config: ResilienceConfig) -> None:
    """Wire *config* onto a built platform.

    *target* is a platform bundle (anything with an ``interface``
    attribute) or the interface element itself. Attaches the guard
    policy to the interface channel's application-side methods and arms
    the element's protocol replay (including master-side parity checking
    on PCI). Application modules are not touched — the whole point.
    """
    interface = getattr(target, "interface", target)
    if config.guard_policy is not None:
        attach_retry_policy(
            interface.channel, config.guard_policy, APPLICATION_METHODS
        )
    if config.interface is not None:
        enable = getattr(interface, "enable_recovery", None)
        if enable is not None:
            enable(config.interface)


__all__ = [
    "ALL_METHODS",
    "APPLICATION_METHODS",
    "InterfaceRecovery",
    "RecoveryEpisode",
    "RecoveryLog",
    "ResilienceConfig",
    "RetryPolicy",
    "RunWatchdog",
    "apply_resilience",
    "attach_retry_policy",
    "communication_progress",
    "default_guard_policy",
]
