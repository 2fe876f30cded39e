"""Live campaign progress, aggregated in the parent.

The campaign runner feeds a :class:`CampaignProgress` every outcome as
the parent receives it, from the serial loop or from the worker pool,
and the aggregator folds them into one live picture: runs/s, ETA,
per-classification breakdown and recovery rate. Workers send nothing
but their outcomes. The fault CLI renders this as a ``--live`` ticker
and (with ``--progress-json``) mirrors every snapshot to a
machine-readable file. With no aggregator installed, the runner pays
one ``is None`` check per outcome.
"""

from __future__ import annotations

import json
import time as _time
import typing

#: Seconds between ticker refreshes (and progress-JSON rewrites).
DEFAULT_TICK_SECONDS = 0.5


class CampaignProgress:
    """Parent-side aggregator of campaign liveness.

    :param on_tick: called (rate-limited) with the aggregator whenever
        state changed — the CLI hangs its ticker and progress-JSON
        mirror here.
    :param clock: monotonic clock, overridable for tests.
    """

    def __init__(
        self,
        on_tick: "typing.Callable[[CampaignProgress], None] | None" = None,
        tick_seconds: float = DEFAULT_TICK_SECONDS,
        clock: typing.Callable[[], float] = _time.monotonic,
    ) -> None:
        self.on_tick = on_tick
        self.tick_seconds = tick_seconds
        self._clock = clock
        self.total = 0
        self.completed = 0
        self.classifications: dict[str, int] = {}
        self._started: float | None = None
        self._finished: float | None = None
        self._last_tick: float | None = None
        #: Outcomes replayed from a resumed journal.
        self.resumed = 0

    # -- lifecycle -----------------------------------------------------------

    def begin(self, total_runs: int) -> None:
        self.total = total_runs
        self._started = self._clock()

    def finish(self) -> None:
        self._finished = self._clock()
        self.tick(force=True)

    @property
    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        end = self._finished if self._finished is not None else self._clock()
        return max(0.0, end - self._started)

    # -- ingestion -----------------------------------------------------------

    def record_outcome(self, outcome) -> None:
        """Fold one classified run in (a RunOutcome or a bare string)."""
        classification = getattr(outcome, "classification", outcome)
        self.completed += 1
        self.classifications[classification] = (
            self.classifications.get(classification, 0) + 1
        )

    def record_resumed(self, count: int) -> None:
        """Note *count* outcomes replayed from a journal (they still
        flow through :meth:`record_outcome` like any other)."""
        self.resumed += count

    # -- derived gauges ------------------------------------------------------

    @property
    def runs_per_second(self) -> float:
        elapsed = self.elapsed
        if elapsed <= 0:
            return 0.0
        return self.completed / elapsed

    @property
    def eta_seconds(self) -> float | None:
        rate = self.runs_per_second
        if not rate or not self.total:
            return None
        remaining = max(0, self.total - self.completed)
        return remaining / rate

    @property
    def recovery_rate(self) -> float | None:
        """``recovered / (recovered + detected + silent)`` so far."""
        recovered = self.classifications.get("recovered", 0)
        effective = (
            recovered
            + self.classifications.get("detected", 0)
            + self.classifications.get("silent", 0)
        )
        if not effective:
            return None
        return recovered / effective

    @property
    def done(self) -> bool:
        return self.total > 0 and self.completed >= self.total

    # -- output --------------------------------------------------------------

    def tick(self, force: bool = False) -> bool:
        """Invoke ``on_tick`` if the rate limit allows; True if it ran."""
        if self.on_tick is None:
            return False
        now = self._clock()
        if (
            not force
            and self._last_tick is not None
            and now - self._last_tick < self.tick_seconds
        ):
            return False
        self._last_tick = now
        self.on_tick(self)
        return True

    def snapshot(self) -> dict:
        eta = self.eta_seconds
        recovery = self.recovery_rate
        return {
            "total": self.total,
            "completed": self.completed,
            "done": self.done,
            "elapsed_seconds": round(self.elapsed, 3),
            "runs_per_second": round(self.runs_per_second, 3),
            "eta_seconds": None if eta is None else round(eta, 3),
            "classifications": dict(sorted(self.classifications.items())),
            "recovery_rate": None if recovery is None else round(recovery, 4),
            "resumed": self.resumed,
        }

    def render_ticker(self) -> str:
        """One status line: ``runs 12/48 | 3.1 runs/s | eta 12s | ...``."""
        parts = [f"runs {self.completed}/{self.total or '?'}"]
        parts.append(f"{self.runs_per_second:.1f} runs/s")
        eta = self.eta_seconds
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        if self.classifications:
            breakdown = " ".join(
                f"{name}:{count}"
                for name, count in sorted(self.classifications.items())
            )
            parts.append(breakdown)
        recovery = self.recovery_rate
        if recovery is not None:
            parts.append(f"recovery {recovery:.0%}")
        if self.resumed:
            parts.append(f"resumed {self.resumed}")
        return " | ".join(parts)

    def write_json(self, path) -> None:
        document = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(document + "\n")
