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
    ProbeBus,
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


class DetectionLog:
    """Bus subscriber that collects detection records in firing order.

    The fault-injection classifier attaches one of these to a run's
    probe bus and reads :attr:`records` afterwards — detections travel
    over the same instrumentation plane as every other observation.
    """

    def __init__(self) -> None:
        self.records: list = []
        self._bus: ProbeBus | None = None

    def append(self, record: object) -> None:
        self.records.append(record)

    def attach(self, bus: ProbeBus) -> "DetectionLog":
        bus.subscribe(DETECTION, self.append)
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(DETECTION, self.append)
            self._bus = None

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> typing.Iterator:
        return iter(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)


class MetricsCollector:
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
        self._bus: ProbeBus | None = None

    # -- wiring ------------------------------------------------------------

    _SUBSCRIPTIONS = (
        (DELTA_BEGIN, "_on_delta_begin"),
        (EVENT_NOTIFY, "_on_event_notify"),
        (PROCESS_ACTIVATE, "_on_process_activate"),
        (SIGNAL_COMMIT, "_on_signal_commit"),
        (FAULT_ACTIVATE, "_on_fault_activate"),
        (FLOW_STAGE, "_on_flow_stage"),
    )

    def attach(self, bus: ProbeBus) -> "MetricsCollector":
        for kind, handler in self._SUBSCRIPTIONS:
            bus.subscribe(kind, getattr(self, handler))
        self.traffic.attach(bus)
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is None:
            return
        for kind, handler in self._SUBSCRIPTIONS:
            self._bus.unsubscribe(kind, getattr(self, handler))
        self.traffic.detach()
        self._bus = None

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
    def method_metrics(self) -> dict[str, MethodMetrics]:
        """``channel.method`` -> traffic row."""
        return {row.key: row for row in self.traffic.methods.values()}

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
