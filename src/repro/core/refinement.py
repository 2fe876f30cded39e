"""Communication refinement (the paper's Figure 3).

Refining communication means rebuilding the executable model with a
different library interface element and *nothing else changed*. The
checkable claim behind the methodology is that the application's
observable transaction trace is identical across abstraction levels,
while the functional platform simulates much faster. This module
packages that experiment.
"""

from __future__ import annotations

import time
import typing

from ..errors import RefinementError
from ..kernel.simulator import Simulator
from ..verify.consistency import check_traces
from .application import Application


class RunResult:
    """Outcome of running one platform to application completion."""

    def __init__(
        self,
        label: str,
        wall_seconds: float,
        sim_time: int,
        delta_cycles: int,
        traces: dict[str, list[tuple]],
    ) -> None:
        self.label = label
        self.wall_seconds = wall_seconds
        self.sim_time = sim_time
        self.delta_cycles = delta_cycles
        self.traces = traces

    @property
    def transactions(self) -> int:
        return sum(len(trace) for trace in self.traces.values())

    def __repr__(self) -> str:
        return (
            f"RunResult({self.label}: {self.transactions} txns, "
            f"{self.delta_cycles} deltas, {self.wall_seconds:.4f}s wall)"
        )


class PlatformHandle:
    """A built executable model, ready to run.

    :param sim: the platform's simulator.
    :param applications: the application modules whose completion ends
        the run and whose records form the observable trace.
    :param label: human-readable platform name (e.g. ``"functional"``).
    :param quiesce: optional predicate polled after the applications
        finish; the run only stops once it returns true. Needed because
        writes are *posted* — the last one may still be draining through
        the interface when the application's thread completes.
    :param quiesce_poll: polling period for the quiesce predicate (fs).
    """

    def __init__(
        self,
        sim: Simulator,
        applications: typing.Sequence[Application],
        label: str,
        quiesce: typing.Callable[[], bool] | None = None,
        quiesce_poll: int = 1000,
    ) -> None:
        if not applications:
            raise RefinementError("a platform needs at least one application")
        self.sim = sim
        self.applications = list(applications)
        self.label = label
        self.quiesce = quiesce
        self.quiesce_poll = quiesce_poll
        sim.spawn(self._stop_when_done, f"{label}.platform_watcher")

    def _stop_when_done(self):
        from ..kernel.process import Timeout
        from .application import wait_for_all

        yield from wait_for_all(self.applications)
        if self.quiesce is not None:
            while not self.quiesce():
                yield Timeout(self.quiesce_poll)
        self.sim.stop()

    def run(self, max_time: int) -> RunResult:
        """Run until every application finishes (bounded by *max_time*)."""
        started = time.perf_counter()
        self.sim.run(max_time)
        wall = time.perf_counter() - started
        unfinished = [a.path for a in self.applications if not a.done]
        if unfinished:
            raise RefinementError(
                f"platform {self.label!r}: applications did not finish "
                f"within {max_time} fs: {unfinished}"
            )
        traces = {
            # Key by leaf name so traces are comparable across platforms
            # even when the hierarchies differ.
            app.name: app.trace_signatures()
            for app in self.applications
        }
        return RunResult(
            self.label, wall, self.sim.time, self.sim.delta_count, traces
        )


PlatformBuilder = typing.Callable[[], PlatformHandle]


class RefinementReport:
    """Comparison of a reference platform against a refined one."""

    def __init__(self, reference: RunResult, refined: RunResult) -> None:
        self.reference = reference
        self.refined = refined
        self.mismatches = check_traces(reference.traces, refined.traces).mismatches

    @property
    def consistent(self) -> bool:
        """True when every application observed identical transactions."""
        return not self.mismatches

    @property
    def speedup(self) -> float:
        """Wall-clock ratio refined/reference (>1: reference is faster)."""
        if self.reference.wall_seconds <= 0:
            return float("inf")
        return self.refined.wall_seconds / self.reference.wall_seconds

    @property
    def delta_ratio(self) -> float:
        """Kernel-activity ratio (deltas refined / deltas reference)."""
        if self.reference.delta_cycles <= 0:
            return float("inf")
        return self.refined.delta_cycles / self.reference.delta_cycles

    def summary(self) -> str:
        lines = [
            f"reference: {self.reference!r}",
            f"refined:   {self.refined!r}",
            f"trace-consistent: {self.consistent}",
            f"refined/reference wall-clock ratio: {self.speedup:.2f}x",
            f"refined/reference delta-cycle ratio: {self.delta_ratio:.2f}x",
        ]
        lines.extend(f"MISMATCH: {m}" for m in self.mismatches)
        return "\n".join(lines)


def compare_refinement(
    reference_builder: PlatformBuilder,
    refined_builder: PlatformBuilder,
    max_time: int,
) -> RefinementReport:
    """Build and run both platforms; compare observable traces and cost."""
    reference = reference_builder().run(max_time)
    refined = refined_builder().run(max_time)
    return RefinementReport(reference, refined)
