"""Communication scorecards: per-bus gauges derived from probe events.

A :class:`ScorecardProbe` is the one subscriber to the eight
communication probe kinds (guarded-method call, queue, grant, guard
block and completion; transaction begin and end; detection). It keeps
one :class:`MethodMetrics` row per ``channel.method`` and one
:class:`SourceMetrics` row per transaction source, and reduces them to
a :class:`CellScore` — bus occupancy, throughput in beats per bus
cycle, arbitration fairness, queue pressure and latency quantiles. The
:class:`~repro.instrument.metrics.MetricsCollector` reports the same
rows from a probe it owns. Nothing is read off platform objects: every
gauge is derived from probe events, so the same probe works unchanged
on every bus family and abstraction level (including the wire-less
TLM-GP and functional platforms).

:class:`MatrixScorecard` aggregates the per-cell scores of one
``run_swap_matrix`` sweep into the paper's missing comparison surface:
a ``bus × refinement-level`` table of quantitative communication
metrics (``python -m repro report --matrix``).

All scores are plain picklable data with ``to_dict``/``from_dict`` and
a deterministic ``merge``, so process-pool workers can ship shards to
the parent and the merged numbers equal a serial run's exactly
(:mod:`repro.telemetry.digest`).
"""

from __future__ import annotations

import typing

from ..instrument.probes import (
    DETECTION,
    METHOD_CALL,
    METHOD_COMPLETE,
    METHOD_GRANT,
    METHOD_GUARD_BLOCK,
    METHOD_QUEUE,
    TRANSACTION_BEGIN,
    TRANSACTION_END,
    ProbeSubscriber,
    txn_key,
)
from .digest import LatencyDigest

#: fs per ns, for human-readable latency columns.
_FS_PER_NS = 1_000_000


def beats_of(payload: object) -> int:
    """Data beats carried by one transaction payload.

    Works across every payload shape on the bus: monitor-reconstructed
    transactions expose ``word_count``, master operations and commands
    expose ``data``/``count``, single-beat transfers default to 1.
    """
    word_count = getattr(payload, "word_count", None)
    if isinstance(word_count, int) and word_count > 0:
        return word_count
    data = getattr(payload, "data", None)
    if isinstance(data, (list, tuple)) and data:
        return len(data)
    count = getattr(payload, "count", None)
    if isinstance(count, int) and count > 0:
        return count
    return 1


def fairness_index(shares: typing.Iterable[int]) -> float | None:
    """Jain's fairness index over per-client grant counts.

    1.0 = perfectly fair, 1/n = one client got everything; ``None``
    when no grants were observed.
    """
    values = [v for v in shares if v > 0]
    if not values:
        return None
    total = sum(values)
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)


def _merge_intervals(intervals: list) -> int:
    """Total covered fs of a list of (start, end) intervals."""
    if not intervals:
        return 0
    intervals.sort()
    covered = 0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    covered += current_end - current_start
    return covered


class CellScore:
    """The communication gauges of one run (one matrix cell).

    Every field is plain data; :meth:`merge` folds another score in so
    per-worker shards aggregate into campaign-level numbers that are
    independent of how runs were distributed.
    """

    def __init__(self, bus: str = "", level: str = "", label: str = "") -> None:
        self.bus = bus
        self.level = level
        self.label = label
        #: Paired transaction count on the primary source.
        self.transactions = 0
        #: transaction.end events over every source.
        self.ends_total = 0
        #: Data beats moved (primary source).
        self.beats = 0
        #: Observed span: first transaction begin to last end (fs).
        self.span_fs = 0
        #: fs during which >= 1 transaction was in flight.
        self.busy_fs = 0
        #: Bus clock period (fs) used for the beats/cycle conversion.
        self.cycle_fs = 0
        #: Transaction latency quantiles (fs), primary source.
        self.latency = LatencyDigest()
        #: Guarded-call arrival -> grant waits (fs).
        self.wait = LatencyDigest()
        self.calls = 0
        self.queued = 0
        self.grants = 0
        self.completions = 0
        self.guard_blocks = 0
        self.detections = 0
        #: Arbiter grants per requesting client.
        self.grants_by_client: dict[str, int] = {}
        #: The source path the latency/throughput gauges came from.
        self.primary_source = ""

    # -- derived gauges ------------------------------------------------------

    @property
    def utilization(self) -> float:
        """Fraction of the observed span with a transaction in flight."""
        if not self.span_fs:
            return 0.0
        return min(1.0, self.busy_fs / self.span_fs)

    @property
    def throughput(self) -> float:
        """Data beats per bus cycle over the observed span."""
        if not self.span_fs or not self.cycle_fs:
            return 0.0
        return self.beats / (self.span_fs / self.cycle_fs)

    @property
    def fairness(self) -> float | None:
        return fairness_index(self.grants_by_client.values())

    @property
    def queue_ratio(self) -> float:
        """Fraction of guarded calls that could not be served at once."""
        if not self.calls:
            return 0.0
        return self.queued / self.calls

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "CellScore") -> "CellScore":
        """Fold *other* (a disjoint run's score) into this one."""
        self.transactions += other.transactions
        self.ends_total += other.ends_total
        self.beats += other.beats
        self.span_fs += other.span_fs
        self.busy_fs += other.busy_fs
        self.cycle_fs = self.cycle_fs or other.cycle_fs
        self.latency.merge(other.latency)
        self.wait.merge(other.wait)
        self.calls += other.calls
        self.queued += other.queued
        self.grants += other.grants
        self.completions += other.completions
        self.guard_blocks += other.guard_blocks
        self.detections += other.detections
        for client, count in other.grants_by_client.items():
            self.grants_by_client[client] = (
                self.grants_by_client.get(client, 0) + count
            )
        self.primary_source = self.primary_source or other.primary_source
        return self

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "bus": self.bus,
            "level": self.level,
            "label": self.label,
            "transactions": self.transactions,
            "ends_total": self.ends_total,
            "beats": self.beats,
            "span_fs": self.span_fs,
            "busy_fs": self.busy_fs,
            "cycle_fs": self.cycle_fs,
            "utilization": self.utilization,
            "throughput_beats_per_cycle": self.throughput,
            "fairness": self.fairness,
            "queue_ratio": self.queue_ratio,
            "latency": self.latency.to_dict(),
            "wait": self.wait.to_dict(),
            "calls": self.calls,
            "queued": self.queued,
            "grants": self.grants,
            "completions": self.completions,
            "guard_blocks": self.guard_blocks,
            "detections": self.detections,
            "grants_by_client": dict(sorted(self.grants_by_client.items())),
            "primary_source": self.primary_source,
        }

    @classmethod
    def from_dict(cls, document: typing.Mapping) -> "CellScore":
        score = cls(
            document.get("bus", ""),
            document.get("level", ""),
            document.get("label", ""),
        )
        for field in (
            "transactions", "ends_total", "beats", "span_fs", "busy_fs",
            "cycle_fs", "calls", "queued", "grants", "completions",
            "guard_blocks", "detections",
        ):
            setattr(score, field, int(document.get(field, 0)))
        score.latency = LatencyDigest.from_dict(document.get("latency", {}))
        score.wait = LatencyDigest.from_dict(document.get("wait", {}))
        score.grants_by_client = {
            str(k): int(v)
            for k, v in document.get("grants_by_client", {}).items()
        }
        score.primary_source = document.get("primary_source", "")
        return score

    def __repr__(self) -> str:
        return (
            f"CellScore({self.bus}/{self.level}: {self.transactions} txns, "
            f"util={self.utilization:.1%}, "
            f"p95={self.latency.p95 / _FS_PER_NS:.0f}ns)"
        )


class MethodMetrics:
    """Per guarded-method traffic record (one channel + method name)."""

    def __init__(self, channel: str, method: str) -> None:
        self.channel = channel
        self.method = method
        self.calls = 0
        self.queued = 0
        self.grants = 0
        self.completions = 0
        #: Arrival -> grant femtoseconds.
        self.wait_times = LatencyDigest()
        #: Grant -> completion femtoseconds.
        self.service_times = LatencyDigest()
        #: Arrival -> completion femtoseconds.
        self.total_times = LatencyDigest()

    @property
    def key(self) -> str:
        return f"{self.channel}.{self.method}"

    def to_dict(self) -> dict:
        return {
            "channel": self.channel,
            "method": self.method,
            "calls": self.calls,
            "queued": self.queued,
            "grants": self.grants,
            "completions": self.completions,
            "wait": self.wait_times.to_dict(),
            "service": self.service_times.to_dict(),
            "total": self.total_times.to_dict(),
        }


class SourceMetrics:
    """Per transaction-source record (one emitter path)."""

    def __init__(self, source: str) -> None:
        self.source = source
        #: transaction.end events, paired or not.
        self.ends = 0
        #: Ends matched to a begin.
        self.paired = 0
        #: Begin -> end femtoseconds of the paired transactions.
        self.latency = LatencyDigest()
        #: Data beats the paired transactions moved.
        self.beats = 0
        #: (begin, end) of every paired transaction.
        self.intervals: list[tuple[int, int]] = []


def _channel_name(space: object) -> str:
    try:
        return space.name
    except AttributeError:  # a bare stand-in for a channel
        return repr(space)


class ScorecardProbe(ProbeSubscriber):
    """Probe-bus subscriber reducing one run to a :class:`CellScore`.

    :param cycle_fs: the platform's bus clock period (fs), needed only
        for the beats/cycle conversion; pass 0 to report raw beats.
    """

    def __init__(self, cycle_fs: int = 0) -> None:
        self.cycle_fs = cycle_fs
        #: (channel name, method) -> traffic row.
        self.methods: dict[tuple[str, str], MethodMetrics] = {}
        #: transaction source -> row, in order of first end.
        self.sources: dict[str, SourceMetrics] = {}
        #: channel name -> guard-block events.
        self.guard_blocks: dict[str, int] = {}
        self.detections = 0
        self._open: dict[tuple[str, object], int] = {}
        self._first_time: int | None = None
        self._last_time: int | None = None
        self._grants_by_client: dict[str, int] = {}

    # -- wiring --------------------------------------------------------------

    def _subscriptions(self):
        yield TRANSACTION_BEGIN, self._on_begin
        yield TRANSACTION_END, self._on_end
        yield METHOD_CALL, self._on_call
        yield METHOD_QUEUE, self._on_queue
        yield METHOD_GRANT, self._on_grant
        yield METHOD_COMPLETE, self._on_complete
        yield METHOD_GUARD_BLOCK, self._on_guard_block
        yield DETECTION, self._on_detection

    # -- handlers ------------------------------------------------------------

    def _method(self, space: object, method: str) -> MethodMetrics:
        key = (_channel_name(space), method)
        try:
            return self.methods[key]
        except KeyError:
            row = self.methods[key] = MethodMetrics(*key)
            return row

    def _clock(self, time: int) -> None:
        if self._first_time is None or time < self._first_time:
            self._first_time = time
        if self._last_time is None or time > self._last_time:
            self._last_time = time

    def _on_begin(self, time: int, source: str, payload: object) -> None:
        self._clock(time)
        self._open[txn_key(source, payload)] = time

    def _on_end(self, time: int, source: str, payload: object) -> None:
        self._clock(time)
        row = self.sources.get(source)
        if row is None:
            row = self.sources[source] = SourceMetrics(source)
        row.ends += 1
        begin = self._open.pop(txn_key(source, payload), None)
        if begin is None:
            return
        row.paired += 1
        row.latency.add(time - begin)
        row.beats += beats_of(payload)
        row.intervals.append((begin, time))

    def _on_call(self, time: int, space: object, request: object) -> None:
        self._method(space, request.method).calls += 1

    def _on_queue(self, time: int, space: object, request: object) -> None:
        self._method(space, request.method).queued += 1

    def _on_grant(self, time: int, space: object, request: object) -> None:
        row = self._method(space, request.method)
        row.grants += 1
        client = str(getattr(request, "client", "?"))
        self._grants_by_client[client] = (
            self._grants_by_client.get(client, 0) + 1
        )
        grant_time = getattr(request, "grant_time", None)
        arrival = getattr(request, "arrival_time", None)
        if grant_time is not None and arrival is not None:
            row.wait_times.add(grant_time - arrival)

    def _on_complete(self, time: int, space: object, request: object) -> None:
        row = self._method(space, request.method)
        row.completions += 1
        arrival = getattr(request, "arrival_time", None)
        grant = getattr(request, "grant_time", None)
        complete = getattr(request, "complete_time", None)
        if complete is None:
            complete = time
        if grant is not None:
            row.service_times.add(complete - grant)
        if arrival is not None:
            row.total_times.add(complete - arrival)

    def _on_guard_block(self, time: int, space: object, requests: object) -> None:
        channel = _channel_name(space)
        self.guard_blocks[channel] = self.guard_blocks.get(channel, 0) + 1

    def _on_detection(self, record: object) -> None:
        self.detections += 1

    # -- reduction -----------------------------------------------------------

    def method_rows(self) -> list[MethodMetrics]:
        """Method rows sorted by call count (descending)."""
        return sorted(
            self.methods.values(),
            key=lambda row: (-row.calls, row.key),
        )

    def score(
        self, bus: str = "", level: str = "", label: str = ""
    ) -> CellScore:
        """Reduce everything observed so far to a :class:`CellScore`."""
        cell = CellScore(bus, level, label)
        cell.cycle_fs = self.cycle_fs
        methods = self.methods.values()
        cell.calls = sum(row.calls for row in methods)
        cell.queued = sum(row.queued for row in methods)
        cell.grants = sum(row.grants for row in methods)
        cell.completions = sum(row.completions for row in methods)
        cell.wait = LatencyDigest.merged(row.wait_times for row in methods)
        cell.guard_blocks = sum(self.guard_blocks.values())
        cell.detections = self.detections
        cell.grants_by_client = dict(self._grants_by_client)
        cell.ends_total = sum(row.ends for row in self.sources.values())
        if self._first_time is not None and self._last_time is not None:
            cell.span_fs = self._last_time - self._first_time
        paired = [row for row in self.sources.values() if row.paired]
        cell.busy_fs = _merge_intervals(
            [interval for row in paired for interval in row.intervals]
        )
        if paired:
            # The primary source carries the latency/throughput gauges:
            # the emitter that paired the most transactions (ties break
            # on the shortest, then lexicographically smallest path).
            primary = min(
                paired, key=lambda row: (-row.paired, len(row.source), row.source)
            )
            cell.primary_source = primary.source
            cell.transactions = primary.paired
            cell.latency = LatencyDigest.merged([primary.latency])
            cell.beats = primary.beats
        return cell


class MatrixScorecard:
    """The ``bus × level`` comparison table of one swap-matrix sweep."""

    def __init__(
        self,
        seed: int,
        n_commands: int,
        buses: typing.Sequence[str],
        levels: typing.Sequence[str],
        cells: typing.Sequence[CellScore],
        reference: CellScore | None = None,
        fault_families: (
            "typing.Mapping[str, typing.Mapping[str, typing.Mapping[str, int]]]"
            " | None"
        ) = None,
    ) -> None:
        self.seed = seed
        self.n_commands = n_commands
        self.buses = tuple(buses)
        self.levels = tuple(levels)
        self.cells = list(cells)
        #: The functional reference run's score (not a matrix cell).
        self.reference = reference
        #: Fault-leg detections per fault family:
        #: ``{bus: {fault kind: {classification: count}}}``.
        self.fault_families = {
            bus: {kind: dict(row) for kind, row in families.items()}
            for bus, families in (fault_families or {}).items()
        }

    @classmethod
    def from_matrix(cls, report) -> "MatrixScorecard | None":
        """Build from a telemetry-enabled ``SwapMatrixReport``."""
        cells = [
            cell.score for cell in report.cells
            if getattr(cell, "score", None) is not None
        ]
        if not cells:
            return None
        return cls(
            report.seed,
            report.n_commands,
            report.buses,
            report.levels,
            cells,
            reference=getattr(report, "reference_score", None),
            fault_families=getattr(report, "fault_families", None),
        )

    def cell(self, bus: str, level: str) -> CellScore | None:
        for score in self.cells:
            if score.bus == bus and score.level == level:
                return score
        return None

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _row(score: CellScore) -> list[str]:
        fairness = score.fairness
        return [
            score.bus,
            score.level,
            str(score.transactions),
            f"{score.utilization:6.1%}",
            f"{score.throughput:9.3f}",
            f"{score.latency.p50 / _FS_PER_NS:8.0f}",
            f"{score.latency.p95 / _FS_PER_NS:8.0f}",
            f"{score.latency.p99 / _FS_PER_NS:8.0f}",
            "   n/a" if fairness is None else f"{fairness:6.3f}",
            f"{score.queue_ratio:6.1%}",
        ]

    _HEADERS = (
        "bus", "level", "txns", "util", "beats/cyc",
        "p50 ns", "p95 ns", "p99 ns", "fair", "queued",
    )

    def _ordered(self) -> list[CellScore]:
        ordered = []
        for bus in self.buses:
            for level in self.levels:
                score = self.cell(bus, level)
                if score is not None:
                    ordered.append(score)
        leftovers = [s for s in self.cells if s not in ordered]
        return ordered + leftovers

    _FAULT_HEADERS = (
        "bus", "fault", "runs", "detected", "silent", "benign",
        "recovered", "coverage",
    )

    def _fault_rows(self) -> list[list[str]]:
        """Flattened fault-leg breakdown, one row per bus × family."""
        rows: list[list[str]] = []
        for bus in sorted(self.fault_families):
            for kind, counts in sorted(self.fault_families[bus].items()):
                detected = counts.get("detected", 0)
                effective = detected + counts.get("silent", 0)
                coverage = (
                    f"{detected / effective:6.1%}" if effective else "   n/a"
                )
                rows.append([
                    bus,
                    kind,
                    str(sum(counts.values())),
                    str(detected),
                    str(counts.get("silent", 0)),
                    str(counts.get("benign", 0)),
                    str(counts.get("recovered", 0)),
                    coverage,
                ])
        return rows

    def render(self) -> str:
        rows = [self._row(score) for score in self._ordered()]
        if self.reference is not None:
            reference = self._row(self.reference)
            reference[0] = "(reference)"
            reference[1] = "functional"
            rows.insert(0, reference)
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(self._HEADERS)
        ]
        lines = [
            f"== communication scorecard: seed {self.seed}, "
            f"{self.n_commands} commands ==",
            "",
            "  ".join(h.ljust(w) for h, w in zip(self._HEADERS, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            )
        fault_rows = self._fault_rows()
        if fault_rows:
            fault_widths = [
                max(len(h), *(len(r[i]) for r in fault_rows))
                for i, h in enumerate(self._FAULT_HEADERS)
            ]
            lines += [
                "",
                "-- fault detection per family --",
                "  ".join(
                    h.ljust(w)
                    for h, w in zip(self._FAULT_HEADERS, fault_widths)
                ),
                "  ".join("-" * w for w in fault_widths),
            ]
            for row in fault_rows:
                lines.append(
                    "  ".join(
                        c.ljust(w) for c, w in zip(row, fault_widths)
                    ).rstrip()
                )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [
            "| " + " | ".join(self._HEADERS) + " |",
            "| " + " | ".join("---" for __ in self._HEADERS) + " |",
        ]
        rows = self._ordered()
        if self.reference is not None:
            rows = [self.reference] + rows
        for score in rows:
            cells = [c.strip() for c in self._row(score)]
            if score is self.reference:
                cells[0] = "(reference)"
            lines.append("| " + " | ".join(cells) + " |")
        fault_rows = self._fault_rows()
        if fault_rows:
            lines += [
                "",
                "| " + " | ".join(self._FAULT_HEADERS) + " |",
                "| " + " | ".join("---" for __ in self._FAULT_HEADERS) + " |",
            ]
            for row in fault_rows:
                lines.append(
                    "| " + " | ".join(c.strip() for c in row) + " |"
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_commands": self.n_commands,
            "buses": list(self.buses),
            "levels": list(self.levels),
            "reference": (
                None if self.reference is None else self.reference.to_dict()
            ),
            "cells": [score.to_dict() for score in self._ordered()],
            "fault_families": {
                bus: {kind: dict(row) for kind, row in families.items()}
                for bus, families in self.fault_families.items()
            },
        }
