"""Metrics aggregation over the probe bus.

:class:`MetricsCollector` counts what the kernel, the fault models and
the design flow publish — deltas, notified events, process activations
and signal commits, fault activations and flow stages — per process and
per signal. Guarded-method traffic and bus transactions it reads from
the :class:`~repro.telemetry.scorecard.ScorecardProbe` it owns, the one
subscriber to those kinds, so its per-``channel.method`` and per-source
rows and a communication scorecard always come from the same pairing.
Together they are the raw material for the ``python -m repro profile``
tables and for regression assertions in tests and benchmarks.

Every time distribution is a :class:`~repro.telemetry.digest.LatencyDigest`,
the same power-of-two histogram the scorecards use, so adding a sample
is two integer ops, nothing allocates per sample, and a p95 printed by
the profiler tables and a p95 on a communication scorecard always mean
the same thing.
"""

from __future__ import annotations

import typing

from ..telemetry.digest import LatencyDigest
from ..telemetry.scorecard import MethodMetrics, ScorecardProbe
from .probes import (
    DELTA_BEGIN,
    DETECTION,
    EVENT_NOTIFY,
    FAULT_ACTIVATE,
    FLOW_STAGE,
    PROCESS_ACTIVATE,
    SIGNAL_COMMIT,
    ProbeSubscriber,
)


class Counter:
    """A labelled integer counter map (label -> count)."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.total = 0

    def add(self, label: str, amount: int = 1) -> None:
        self.counts[label] = self.counts.get(label, 0) + amount
        self.total += amount

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def __getitem__(self, label: str) -> int:
        return self.counts.get(label, 0)

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return f"Counter(total={self.total}, labels={len(self.counts)})"


class DetectionLog(ProbeSubscriber):
    """Bus subscriber that collects detection records in firing order.

    The fault-injection classifier attaches one of these to a run's
    probe bus and reads :attr:`records` afterwards — detections travel
    over the same instrumentation plane as every other observation.
    """

    def __init__(self) -> None:
        self.records: list = []

    def append(self, record: object) -> None:
        self.records.append(record)

    def _subscriptions(self):
        yield DETECTION, self.append

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> typing.Iterator:
        return iter(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)


class MetricsCollector(ProbeSubscriber):
    """Counters + histograms for everything the probe bus publishes."""

    def __init__(self) -> None:
        self.deltas = 0
        self.events_notified = 0
        self.process_activations = Counter()
        self.signal_commits = Counter()
        self.fault_activations = Counter()
        self.flow_stages: list[tuple[str, str, float]] = []
        #: Guarded-method and transaction traffic.
        self.traffic = ScorecardProbe()

    # -- wiring ------------------------------------------------------------

    def _subscriptions(self):
        yield DELTA_BEGIN, self._on_delta_begin
        yield EVENT_NOTIFY, self._on_event_notify
        yield PROCESS_ACTIVATE, self._on_process_activate
        yield SIGNAL_COMMIT, self._on_signal_commit
        yield FAULT_ACTIVATE, self._on_fault_activate
        yield FLOW_STAGE, self._on_flow_stage
        yield from self.traffic._subscriptions()

    # -- handlers ------------------------------------------------------------

    def _on_delta_begin(self, time: int, delta_index: int) -> None:
        self.deltas += 1

    def _on_event_notify(
        self, time: int, event: object, cause: object = None
    ) -> None:
        self.events_notified += 1

    def _on_process_activate(
        self, time: int, process: object, cause: object = None
    ) -> None:
        self.process_activations.add(getattr(process, "name", repr(process)))

    def _on_signal_commit(self, time: int, signal: object, value: object) -> None:
        self.signal_commits.add(getattr(signal, "name", repr(signal)))

    def _on_fault_activate(self, time: int, fault: object) -> None:
        self.fault_activations.add(getattr(fault, "kind", repr(fault)))

    def _on_flow_stage(self, name: str, status: str, wall_seconds: float) -> None:
        self.flow_stages.append((name, status, wall_seconds))

    # -- the traffic rows ------------------------------------------------------

    @property
    def guard_blocks(self) -> Counter:
        """Guard-block events per channel."""
        counter = Counter()
        for channel, count in self.traffic.guard_blocks.items():
            counter.add(channel, count)
        return counter

    @property
    def transactions(self) -> Counter:
        """transaction.end events per source."""
        counter = Counter()
        for source, row in self.traffic.sources.items():
            counter.add(source, row.ends)
        return counter

    @property
    def transaction_times(self) -> dict[str, LatencyDigest]:
        """Paired transaction durations (fs) per source."""
        return {
            source: row.latency
            for source, row in self.traffic.sources.items() if row.paired
        }

    @property
    def detections(self) -> int:
        return self.traffic.detections

    # -- reporting ------------------------------------------------------------

    def method_rows(self) -> list[MethodMetrics]:
        """Method records sorted by call count (descending)."""
        return self.traffic.method_rows()

    def to_dict(self) -> dict:
        return {
            "deltas": self.deltas,
            "events_notified": self.events_notified,
            "process_activations": dict(self.process_activations.counts),
            "signal_commits": dict(self.signal_commits.counts),
            "methods": [record.to_dict() for record in self.method_rows()],
            "guard_blocks": dict(self.guard_blocks.counts),
            "transactions": dict(self.transactions.counts),
            "transaction_times": {
                source: histogram.to_dict()
                for source, histogram in sorted(self.transaction_times.items())
            },
            "fault_activations": dict(self.fault_activations.counts),
            "detections": self.detections,
            "flow_stages": [
                {"name": name, "status": status, "seconds": seconds}
                for name, status, seconds in self.flow_stages
            ],
        }
