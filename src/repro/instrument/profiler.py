"""Wall-clock profiling of a running simulation via the probe bus.

:class:`WallClockProfiler` subscribes to process activate/suspend and
delta begin/end probes and attributes host CPU time (``perf_counter``)
to individual processes and to points in simulated time. The result
ranks hot processes (where does the Python interpreter actually spend
its time?) and delta-cycle hotspots (which simulated instants burn the
most deltas?), and can export the activation timeline as a Chrome
``chrome://tracing`` / Perfetto JSON trace.
"""

from __future__ import annotations

import json
import time as _time
import typing

from .probes import (
    DELTA_BEGIN,
    DELTA_END,
    PROCESS_ACTIVATE,
    PROCESS_SUSPEND,
    ProbeSubscriber,
)

#: Default Chrome-trace events kept before slices get dropped; every
#: exporter takes a ``max_trace_events`` override (no silent caps —
#: truncation is always reported in the document metadata and the
#: rendered report).
MAX_TRACE_EVENTS = 100_000


def chrome_trace_document(
    trace_events: list[dict],
    dropped_events: int = 0,
    max_trace_events: int | None = None,
) -> dict:
    """Wrap raw trace-event slices in a Chrome trace-event document.

    The ``otherData`` block always states whether (and how hard) the
    exporter truncated: ``dropped_events``, the configured cap, and an
    explicit ``truncated`` flag tools can alert on.
    """
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "dropped_events": dropped_events,
            "max_trace_events": max_trace_events,
            "truncated": dropped_events > 0,
        },
    }


def write_chrome_trace(
    path: str,
    trace_events: list[dict],
    dropped_events: int = 0,
    max_trace_events: int | None = None,
) -> None:
    """Write *trace_events* to *path* as Chrome trace-event JSON.

    Shared by the profiler, the span tracer and the flight-recorder
    replay so every exporter emits the same document shape. When the
    caller enforces a cap, events beyond it are dropped *here* (not
    silently upstream) and counted in the document metadata.
    """
    if max_trace_events is not None and len(trace_events) > max_trace_events:
        dropped_events += len(trace_events) - max_trace_events
        trace_events = trace_events[:max_trace_events]
    with open(path, "w") as handle:
        json.dump(
            chrome_trace_document(
                trace_events, dropped_events, max_trace_events
            ),
            handle,
        )


class ProcessProfile:
    """Accumulated wall-clock cost of one kernel process."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.activations = 0
        self.wall_seconds = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.wall_seconds / self.activations if self.activations else 0.0

    def to_dict(self) -> dict:
        return {
            "process": self.name,
            "activations": self.activations,
            "wall_seconds": self.wall_seconds,
            "mean_seconds": self.mean_seconds,
        }


class DeltaHotspot:
    """Delta-cycle activity at one simulated instant."""

    def __init__(self, sim_time: int) -> None:
        self.sim_time = sim_time
        self.deltas = 0
        self.wall_seconds = 0.0

    def to_dict(self) -> dict:
        return {
            "sim_time": self.sim_time,
            "deltas": self.deltas,
            "wall_seconds": self.wall_seconds,
        }


class ProfileReport:
    """Immutable snapshot of a profiling run, with renderers."""

    def __init__(
        self,
        processes: list[ProcessProfile],
        hotspots: list[DeltaHotspot],
        total_seconds: float,
        total_deltas: int,
        trace_events: list[dict],
        dropped_events: int,
        max_trace_events: int = MAX_TRACE_EVENTS,
    ) -> None:
        self.processes = processes
        self.hotspots = hotspots
        self.total_seconds = total_seconds
        self.total_deltas = total_deltas
        self.trace_events = trace_events
        self.dropped_events = dropped_events
        self.max_trace_events = max_trace_events

    def hot_processes(self, top_n: int = 10) -> list[ProcessProfile]:
        return sorted(
            self.processes,
            key=lambda p: (-p.wall_seconds, p.name),
        )[:top_n]

    def delta_hotspots(self, top_n: int = 10) -> list[DeltaHotspot]:
        return sorted(
            self.hotspots,
            key=lambda h: (-h.deltas, h.sim_time),
        )[:top_n]

    def render(self, top_n: int = 10) -> str:
        lines = [
            f"profile: {self.total_deltas} deltas, "
            f"{self.total_seconds:.3f}s wall in processes",
            "",
            "hot processes",
            f"  {'process':<32} {'activations':>11} "
            f"{'wall (s)':>9} {'mean (us)':>10} {'share':>6}",
        ]
        for profile in self.hot_processes(top_n):
            share = (
                profile.wall_seconds / self.total_seconds
                if self.total_seconds
                else 0.0
            )
            lines.append(
                f"  {profile.name:<32} {profile.activations:>11} "
                f"{profile.wall_seconds:>9.4f} "
                f"{profile.mean_seconds * 1e6:>10.1f} {share:>6.1%}"
            )
        hotspots = self.delta_hotspots(top_n)
        if hotspots:
            lines += [
                "",
                "delta-cycle hotspots",
                f"  {'sim time (fs)':>16} {'deltas':>7} {'wall (s)':>9}",
            ]
            for hotspot in hotspots:
                lines.append(
                    f"  {hotspot.sim_time:>16} {hotspot.deltas:>7} "
                    f"{hotspot.wall_seconds:>9.4f}"
                )
        if self.dropped_events:
            lines += [
                "",
                f"chrome trace truncated: {self.dropped_events} "
                "slices dropped after the first "
                f"{self.max_trace_events} "
                "(raise with --max-trace-events / "
                "WallClockProfiler(max_trace_events=...))",
            ]
        return "\n".join(lines)

    def to_dict(self, top_n: int = 50) -> dict:
        return {
            "total_seconds": self.total_seconds,
            "total_deltas": self.total_deltas,
            "processes": [p.to_dict() for p in self.hot_processes(top_n)],
            "delta_hotspots": [h.to_dict() for h in self.delta_hotspots(top_n)],
            "dropped_trace_events": self.dropped_events,
            "max_trace_events": self.max_trace_events,
        }

    def chrome_trace(self) -> dict:
        """The activation timeline in Chrome trace-event format."""
        return chrome_trace_document(
            self.trace_events, self.dropped_events, self.max_trace_events
        )

    def write_chrome_trace(self, path: str) -> None:
        write_chrome_trace(
            path,
            self.trace_events,
            self.dropped_events,
            self.max_trace_events,
        )


class WallClockProfiler(ProbeSubscriber):
    """Probe-bus subscriber that times process activations.

    Attach before (or during) a run, detach or just stop the run, then
    call :meth:`report`. Nesting is not expected — the kernel runs one
    process at a time — but a stale open activation (e.g. the profiler
    attached mid-activation) is simply ignored.
    """

    def __init__(
        self,
        clock: typing.Callable[[], float] | None = None,
        max_trace_events: "int | None" = None,
    ) -> None:
        # None = the module default, resolved at construction time so
        # tests (and embedders) can retune MAX_TRACE_EVENTS globally.
        if max_trace_events is None:
            max_trace_events = MAX_TRACE_EVENTS
        if max_trace_events <= 0:
            raise ValueError(
                f"max_trace_events must be positive, got {max_trace_events}"
            )
        self._clock = clock or _time.perf_counter
        self.max_trace_events = max_trace_events
        self._origin = self._clock()
        self._processes: dict[str, ProcessProfile] = {}
        self._hotspots: dict[int, DeltaHotspot] = {}
        self._trace_events: list[dict] = []
        self._dropped = 0
        self._active: tuple[str, float] | None = None
        self._delta_started: float | None = None
        self._delta_time: int | None = None
        self._total_seconds = 0.0
        self._total_deltas = 0

    # -- wiring ------------------------------------------------------------

    def _subscriptions(self):
        yield PROCESS_ACTIVATE, self._on_activate
        yield PROCESS_SUSPEND, self._on_suspend
        yield DELTA_BEGIN, self._on_delta_begin
        yield DELTA_END, self._on_delta_end

    # -- handlers ------------------------------------------------------------

    def _on_activate(
        self, sim_time: int, process: object, cause: object = None
    ) -> None:
        name = getattr(process, "name", repr(process))
        self._active = (name, self._clock())

    def _on_suspend(self, sim_time: int, process: object) -> None:
        if self._active is None:
            return
        name, started = self._active
        self._active = None
        now = self._clock()
        elapsed = now - started
        profile = self._processes.get(name)
        if profile is None:
            profile = self._processes[name] = ProcessProfile(name)
        profile.activations += 1
        profile.wall_seconds += elapsed
        self._total_seconds += elapsed
        if self._delta_time is not None:
            hotspot = self._hotspots.get(self._delta_time)
            if hotspot is not None:
                hotspot.wall_seconds += elapsed
        if len(self._trace_events) < self.max_trace_events:
            self._trace_events.append(
                {
                    "name": name,
                    "cat": "process",
                    "ph": "X",
                    "ts": (started - self._origin) * 1e6,
                    "dur": elapsed * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"sim_time_fs": sim_time},
                }
            )
        else:
            self._dropped += 1

    def _on_delta_begin(self, sim_time: int, delta_index: int) -> None:
        self._delta_time = sim_time
        self._delta_started = self._clock()
        self._total_deltas += 1
        hotspot = self._hotspots.get(sim_time)
        if hotspot is None:
            hotspot = self._hotspots[sim_time] = DeltaHotspot(sim_time)
        hotspot.deltas += 1

    def _on_delta_end(self, sim_time: int, delta_index: int) -> None:
        self._delta_started = None
        self._delta_time = None

    # -- reporting ------------------------------------------------------------

    def report(self) -> ProfileReport:
        return ProfileReport(
            processes=list(self._processes.values()),
            hotspots=list(self._hotspots.values()),
            total_seconds=self._total_seconds,
            total_deltas=self._total_deltas,
            trace_events=list(self._trace_events),
            dropped_events=self._dropped,
            max_trace_events=self.max_trace_events,
        )
