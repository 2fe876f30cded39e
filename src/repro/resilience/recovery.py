"""Recovery observability: the log, episode assembly, latency stats.

:class:`RecoveryLog` is a probe-bus subscriber over the four
``resilience.*`` kinds, in the same shape as
:class:`~repro.instrument.metrics.DetectionLog`. It groups raw events
into *episodes* — one per ``(path, method)`` stream, opened by the
first timeout/retry and closed by a ``recovered`` or ``giveup`` — and
derives the recovery-latency numbers the fault-campaign report quotes.

:class:`InterfaceRecovery` is the picklable knob bundle the bus
interface elements consult for protocol-level transaction replay.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..instrument.probes import (
    RESILIENCE_GIVEUP,
    RESILIENCE_RECOVERED,
    RESILIENCE_RETRY,
    RESILIENCE_TIMEOUT,
    ProbeSubscriber,
    ResilienceEvent,
)
from ..kernel.simtime import US

_KINDS = (
    RESILIENCE_TIMEOUT,
    RESILIENCE_RETRY,
    RESILIENCE_GIVEUP,
    RESILIENCE_RECOVERED,
)


class RecoveryEpisode:
    """One contiguous recovery attempt sequence on a single stream."""

    __slots__ = ("path", "method", "start", "end", "outcome", "attempts", "detail")

    def __init__(self, path: str, method: str, start: int) -> None:
        self.path = path
        self.method = method
        self.start = start
        self.end: int | None = None
        #: ``"recovered"``, ``"giveup"``, or ``"open"`` at end of run.
        self.outcome = "open"
        self.attempts = 0
        self.detail = ""

    @property
    def latency(self) -> int | None:
        """fs from first failure signal to recovery (None unless recovered)."""
        if self.outcome != "recovered" or self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"RecoveryEpisode({self.path}.{self.method} {self.outcome} "
            f"after {self.attempts} attempts)"
        )


class RecoveryLog(ProbeSubscriber):
    """Collects ``resilience.*`` probes and assembles episodes."""

    def __init__(self) -> None:
        self.events: list[ResilienceEvent] = []

    def _subscriptions(self):
        for kind in _KINDS:
            yield kind, self._record

    def _record(self, event: ResilienceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    # -- counters ------------------------------------------------------------

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    @property
    def timeouts(self) -> int:
        return self.count(RESILIENCE_TIMEOUT)

    @property
    def retries(self) -> int:
        return self.count(RESILIENCE_RETRY)

    @property
    def giveups(self) -> int:
        return self.count(RESILIENCE_GIVEUP)

    @property
    def recoveries(self) -> int:
        return self.count(RESILIENCE_RECOVERED)

    # -- episodes ------------------------------------------------------------

    def episodes(self) -> list[RecoveryEpisode]:
        """Events grouped into per-stream recovery episodes, in order."""
        open_by_stream: dict[tuple[str, str], RecoveryEpisode] = {}
        episodes: list[RecoveryEpisode] = []
        for event in self.events:
            key = (event.path, event.method)
            episode = open_by_stream.get(key)
            if episode is None:
                episode = RecoveryEpisode(event.path, event.method, event.time)
                open_by_stream[key] = episode
                episodes.append(episode)
            episode.attempts = max(episode.attempts, event.attempt)
            if event.kind in (RESILIENCE_RECOVERED, RESILIENCE_GIVEUP):
                episode.end = event.time
                episode.outcome = (
                    "recovered"
                    if event.kind == RESILIENCE_RECOVERED
                    else "giveup"
                )
                episode.detail = event.detail
                del open_by_stream[key]
        return episodes

    def recovery_latencies(self) -> list[int]:
        """Latencies (fs) of every episode that ended in recovery."""
        return [
            episode.latency
            for episode in self.episodes()
            if episode.latency is not None
        ]

    def stats(self) -> dict:
        """JSON-ready summary: counts + latency aggregates."""
        latencies = self.recovery_latencies()
        episodes = self.episodes()
        return {
            "timeouts": self.timeouts,
            "retries": self.retries,
            "giveups": self.giveups,
            "recoveries": self.recoveries,
            "episodes": len(episodes),
            "recovered_episodes": len(latencies),
            "mean_recovery_latency": (
                sum(latencies) // len(latencies) if latencies else 0
            ),
            "max_recovery_latency": max(latencies) if latencies else 0,
        }


class InterfaceRecovery:
    """Protocol-replay knobs for the swappable bus-interface elements.

    :param replay_limit: bounded re-issues of one failed operation.
    :param backoff: fs before the first replay.
    :param multiplier: backoff growth per replay (no jitter — replay
        pacing is a protocol property, not a contention spreader).
    :param check_parity: PCI only — have the master verify PAR on read
        data phases (PERR#-style detection) and treat a mismatch as a
        replayable failure.
    """

    def __init__(
        self,
        replay_limit: int = 3,
        backoff: int = 2 * US,
        multiplier: float = 2.0,
        check_parity: bool = True,
    ) -> None:
        if replay_limit < 0:
            raise SimulationError(
                f"replay_limit must be >= 0, got {replay_limit}"
            )
        if backoff < 0:
            raise SimulationError(f"backoff must be >= 0 fs, got {backoff}")
        if multiplier < 1.0:
            raise SimulationError(
                f"multiplier must be >= 1.0, got {multiplier}"
            )
        self.replay_limit = replay_limit
        self.backoff = backoff
        self.multiplier = multiplier
        self.check_parity = check_parity

    def backoff_delay(self, replay: int) -> int:
        """fs of delay before 1-based *replay*."""
        return int(self.backoff * (self.multiplier ** (replay - 1)))

    def __repr__(self) -> str:
        return (
            f"InterfaceRecovery(replays={self.replay_limit}, "
            f"backoff={self.backoff}, parity={self.check_parity})"
        )
