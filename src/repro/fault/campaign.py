"""Campaign execution: golden reference, run classification.

The engine builds the campaign's platform once *without* faults to
record the golden behaviour (application traces + final memory image +
end time), expands the spec against the platform's real hierarchy, and
then classifies each faulty run. The golden run carries exactly the
observers a faulty run does and records the fault models' trajectory,
so a run whose fault provably never activates takes the golden run's
own outcome without being simulated. The classifications:

* ``detected`` — a bus monitor fired
  (recorded through :meth:`~repro.kernel.simulator.Simulator
  .report_detection`), a :class:`~repro.errors.ReproError` was raised,
  or the run deadlocked and the watchdog reported blocked processes;
* ``silent`` — the run completed with no detection but its observable
  behaviour (traces or memory image) diverges from golden: undetected
  corruption, the number a campaign exists to measure;
* ``benign`` — the fault had no observable effect;
* ``recovered`` — the fault perturbed the run (it activated and either
  recovery machinery replayed/retried or a checker fired) but the
  resilience stack absorbed the damage: the run completed and its
  observable behaviour matches golden. Only reachable with
  ``spec.resilience`` on;
* ``timeout`` / ``error`` / ``worker_error`` — infrastructure outcomes
  (wall-clock budget, non-library exception, worker process death),
  kept out of the coverage ratio.
"""

from __future__ import annotations

import copy
import time as _time
import typing

import functools

from ..errors import RefinementError, ReproError
from ..flow.platforms import (
    PciPlatformConfig,
    PlatformBundle,
    build_platform,
)
from ..hdl.resolved import ResolvedSignal
from ..hdl.signal import Signal
from ..instrument.metrics import DetectionLog
from ..core.workload import generate_workload
from ..osss.global_object import GlobalObject
from ..resilience.watchdog import RunWatchdog
from ..trace.attribution import attribute
from ..trace.spans import SpanTracer
from .models import Trajectory, make_fault, record_trajectory
from .spec import (
    CampaignSpec,
    RunSpec,
    check_target_widths,
    expand_campaign,
    fault_targets,
)

#: Run classifications.
DETECTED = "detected"
SILENT = "silent"
BENIGN = "benign"
RECOVERED = "recovered"
TIMEOUT = "timeout"
ERROR = "error"
WORKER_ERROR = "worker_error"

CLASSIFICATIONS = (
    DETECTED, SILENT, BENIGN, RECOVERED, TIMEOUT, ERROR, WORKER_ERROR
)

#: One builder per attackable platform, all backed by the generic
#: :func:`~repro.flow.platforms.build_platform`.
_BUILDERS = {
    family: functools.partial(build_platform, bus=family)
    for family in ("pci", "wishbone", "axi4lite", "tlmgp", "functional")
}


class GoldenReference:
    """What the platform does when nothing is broken (picklable).

    :param trajectory: what the fault-free run did at every fault seam
        the campaign's fault lines match.
    :param outcome: the fault-free run classified like a faulty one,
        with the same observers attached.

    The two are set together or not at all. Together they answer every
    run whose fault never activates without simulating it; a golden
    reference without them (a golden run that stall supervision
    stopped) screens nothing.
    """

    def __init__(
        self,
        traces: dict,
        image: list,
        horizon: int,
        trajectory: "Trajectory | None" = None,
        outcome: "RunOutcome | None" = None,
    ) -> None:
        self.traces = traces
        self.image = image
        self.horizon = horizon
        self.trajectory = trajectory
        self.outcome = outcome

    def __repr__(self) -> str:
        transactions = sum(len(t) for t in self.traces.values())
        return f"GoldenReference({transactions} txns, horizon={self.horizon})"


class RunOutcome:
    """The classified result of one campaign run (picklable)."""

    def __init__(
        self,
        run_id: int,
        kind: str,
        target_path: str,
        window: "tuple[int, int] | None",
        classification: str,
        detail: str = "",
        activations: int = 0,
        detections: int = 0,
        wall_seconds: float = 0.0,
        sim_time: int = 0,
        spans_assembled: int = 0,
        span_mean_latency: int = 0,
        recovery_events: int = 0,
        recovery_latency: int = 0,
        score: "dict | None" = None,
    ) -> None:
        self.run_id = run_id
        self.kind = kind
        self.target_path = target_path
        self.window = window
        self.classification = classification
        self.detail = detail
        self.activations = activations
        self.detections = detections
        self.wall_seconds = wall_seconds
        self.sim_time = sim_time
        #: Populated when the campaign runs with ``trace_spans=True``.
        self.spans_assembled = spans_assembled
        self.span_mean_latency = span_mean_latency
        #: Populated when the campaign runs with ``resilience=True``:
        #: count of ``resilience.recovered`` probe events, and the mean
        #: fs between first failure sign and successful recovery.
        self.recovery_events = recovery_events
        self.recovery_latency = recovery_latency
        #: Per-run communication gauges as a picklable
        #: :meth:`~repro.telemetry.scorecard.CellScore.to_dict`
        #: document (``spec.telemetry`` campaigns only).
        self.score = score

    def __repr__(self) -> str:
        return (
            f"RunOutcome(run{self.run_id:03d} {self.kind}@{self.target_path}"
            f" -> {self.classification})"
        )

    def to_dict(self, canonical: bool = False) -> dict:
        """JSON-ready document of this outcome.

        :param canonical: zero the wall-clock field — the one
            machine-dependent value — so serial, parallel and
            interrupted-then-resumed campaigns serialize byte-identically.
        """
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "target": self.target_path,
            "window": list(self.window) if self.window else None,
            "classification": self.classification,
            "detail": self.detail,
            "activations": self.activations,
            "detections": self.detections,
            "wall_seconds": 0.0 if canonical else round(self.wall_seconds, 6),
            "sim_time": self.sim_time,
            "spans_assembled": self.spans_assembled,
            "span_mean_latency": self.span_mean_latency,
            "recovery_events": self.recovery_events,
            "recovery_latency": self.recovery_latency,
            "telemetry": self.score,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "RunOutcome":
        """Rebuild an outcome from :meth:`to_dict` (journal replay
        travels through this)."""
        window = document.get("window")
        return cls(
            int(document["run_id"]),
            str(document["kind"]),
            str(document["target"]),
            tuple(window) if window else None,
            str(document["classification"]),
            detail=str(document.get("detail", "")),
            activations=int(document.get("activations", 0)),
            detections=int(document.get("detections", 0)),
            wall_seconds=float(document.get("wall_seconds", 0.0)),
            sim_time=int(document.get("sim_time", 0)),
            spans_assembled=int(document.get("spans_assembled", 0)),
            span_mean_latency=int(document.get("span_mean_latency", 0)),
            recovery_events=int(document.get("recovery_events", 0)),
            recovery_latency=int(document.get("recovery_latency", 0)),
            score=document.get("telemetry"),
        )


def build_campaign_platform(spec: CampaignSpec) -> PlatformBundle:
    """A fresh platform instance for one run of *spec*."""
    workloads = [
        generate_workload(
            seed,
            spec.commands_per_app,
            address_span=spec.address_span,
            write_fraction=spec.write_fraction,
        )
        for seed in spec.workload_seeds()
    ]
    # Lowered channels use the per-spec backend; it applies to golden
    # and faulty builds alike so the comparison stays like-for-like.
    config = PciPlatformConfig(
        monitor_strict=False, app_think_time=spec.think_time,
        backend=spec.backend,
    )
    if spec.resilience:
        from ..resilience import ResilienceConfig

        config.resilience = ResilienceConfig.default(spec.seed)
    return _BUILDERS[spec.platform](
        workloads, config, synthesize=spec.synthesize
    )


def injectable_targets(bundle: PlatformBundle) -> tuple[list, list]:
    """``(signal_paths, channel_paths)`` of everything a fault can hit."""
    signals: list = []
    channels: list = []
    sim = bundle.handle.sim
    for path, obj in sim.iter_named():
        if isinstance(obj, (Signal, ResolvedSignal)):
            signals.append(path)
        elif isinstance(obj, GlobalObject):
            channels.append(path)
    return signals, channels


def _run_golden(
    spec: CampaignSpec,
    bundle: PlatformBundle,
    targets: typing.Iterable[tuple[str, str]],
) -> GoldenReference:
    """Run *bundle* fault-free under a faulty run's observers, recording
    the trajectory of every ``(kind, target path)`` in *targets*."""
    sim = bundle.handle.sim
    observers = _RunObservers(spec, bundle)
    trajectory = record_trajectory(sim, targets)
    try:
        result = bundle.run(spec.max_time)
    except RefinementError:
        if not observers.watchdog.fired:
            raise
        # Stall supervision stopped even the fault-free run (calls
        # pending through a long think time): every faulty run will
        # classify on its own, so plan from an unobserved run and
        # screen nothing.
        return _run_unobserved_golden(spec)
    finally:
        observers.watchdog.cancel()
    image = bundle.memory.dump(0, spec.address_span // 4)
    golden = GoldenReference(result.traces, image, sim.time)
    classification, detail = observers.classify(result, image, golden, 0)
    golden.trajectory = trajectory
    golden.outcome = observers.outcome(classification, detail, 0)
    return golden


def _run_unobserved_golden(spec: CampaignSpec) -> GoldenReference:
    bundle = build_campaign_platform(spec)
    result = bundle.run(spec.max_time)
    image = bundle.memory.dump(0, spec.address_span // 4)
    return GoldenReference(result.traces, image, bundle.handle.sim.time)


def plan_campaign(
    spec: CampaignSpec,
) -> tuple[GoldenReference, list[RunSpec]]:
    """Golden reference + the expanded deterministic run list.

    The targets are read off the golden platform before it runs, so
    they are exactly what a fresh faulty-run build exposes.
    """
    bundle = build_campaign_platform(spec)
    signal_paths, channel_paths = injectable_targets(bundle)
    sim = bundle.handle.sim
    widths = {path: sim.lookup(path).width for path in signal_paths}
    check_target_widths(spec, widths)
    golden = _run_golden(
        spec, bundle, fault_targets(spec, signal_paths, channel_paths)
    )
    runs = expand_campaign(
        spec, signal_paths, channel_paths, golden.horizon, widths
    )
    return golden, runs


#: Stands in for a run spec on the golden run; its outcome is the
#: template every screened run relabels with its own identity.
_GOLDEN_RUN = RunSpec(-1, "", "", None, {})


class _RunObservers:
    """Everything a campaign attaches to one run, and the classification
    read off it afterwards.

    The golden run (*run* None) and every faulty run carry exactly this
    set, so a faulty run whose fault never activates observes what the
    golden run did. Only a faulty run gets a flight recorder (its ring
    is a per-run artifact) and a wall budget (a screened run takes no
    host time to exhaust one).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        bundle: PlatformBundle,
        run: "RunSpec | None" = None,
    ) -> None:
        self.spec = spec
        self.run = run if run is not None else _GOLDEN_RUN
        sim = self.sim = bundle.handle.sim
        sim.elaborate()
        # The classifier is a bus subscriber like any other observer:
        # it collects ``detection`` probes instead of scraping simulator
        # state.
        self.detections = DetectionLog().attach(sim.probes)
        # Span tracing works inside pool workers exactly like detections
        # do: the worker rebuilds the platform and re-attaches
        # subscribers, so serial and parallel campaigns produce
        # identical span statistics.
        self.tracer = (
            SpanTracer(causal=False).attach(sim.probes)
            if spec.trace_spans else None
        )
        self.recovery_log = None
        if spec.resilience:
            from ..resilience import RecoveryLog

            self.recovery_log = RecoveryLog().attach(sim.probes)
        # Communication telemetry rides the same per-run bus the
        # classifier does, so worker processes score runs exactly like
        # the serial path.
        self.score_probe = None
        if spec.telemetry:
            from ..telemetry.scorecard import ScorecardProbe

            cycle_fs = (
                bundle.clock.period if bundle.clock is not None else 0
            )
            self.score_probe = ScorecardProbe(cycle_fs).attach(sim.probes)
        self.recorder = None
        if run is not None and spec.flight_record_dir:
            from ..telemetry.recorder import FlightRecorder

            self.recorder = FlightRecorder(
                spec.flight_record_capacity
            ).attach(sim.probes)
            self.recorder.record(
                "run.start",
                run_id=run.run_id,
                fault=run.kind,
                target=run.target_path,
                window=list(run.window) if run.window else None,
            )
        # Communication-stall supervision only arms with resilience on,
        # so baseline campaigns classify exactly as they did under the
        # old whole-run alarm.
        self.watchdog = RunWatchdog(
            sim,
            wall_budget=(spec.wall_timeout or None) if run is not None else None,
            stall_strikes=5 if spec.resilience else 0,
        )

    def classify(
        self,
        result,
        image: list,
        golden: GoldenReference,
        activations: int,
    ) -> tuple[str, str]:
        """``(classification, detail)`` of a run that completed."""
        recoveries = (
            self.recovery_log.recoveries
            if self.recovery_log is not None else 0
        )
        behaviour_matches = (
            result.traces == golden.traces and image == golden.image
        )
        if behaviour_matches and recoveries and activations:
            # The fault struck and the resilience stack absorbed it: the
            # run may well have raised detections on the way (a parity
            # violation the replay then papered over), but the
            # observable behaviour is golden.
            return RECOVERED, (
                f"{recoveries} recoveries absorbed {activations} activations"
            )
        if self.detections:
            first = self.detections.records[0]
            return DETECTED, f"{first.source}: {first.message}"
        if result.traces != golden.traces:
            return SILENT, "application traces diverge from golden"
        if image != golden.image:
            return SILENT, "memory image diverges from golden"
        return BENIGN, (
            "no observable effect" if activations else "fault never activated"
        )

    def outcome(
        self, classification: str, detail: str, activations: int
    ) -> RunOutcome:
        """The run's outcome, everything the observers saw included."""
        spec = self.spec
        run = self.run
        spans_assembled = 0
        span_mean_latency = 0
        if self.tracer is not None:
            report = attribute(self.tracer.finalize())
            spans_assembled = len(report)
            span_mean_latency = int(report.mean_latency)
        recovery_events = 0
        recovery_latency = 0
        if self.recovery_log is not None:
            recovery_events = self.recovery_log.recoveries
            latencies = self.recovery_log.recovery_latencies()
            if latencies:
                recovery_latency = int(sum(latencies) / len(latencies))
        score = None
        if self.score_probe is not None:
            level = spec.backend if spec.synthesize else "functional"
            if spec.synthesize and spec.backend == "interpreted":
                level = "synthesized"
            score = self.score_probe.score(
                spec.platform, level, run.label
            ).to_dict()
        if self.recorder is not None:
            self.recorder.record(
                "run.end",
                run_id=run.run_id,
                classification=classification,
                detail=detail,
            )
            self.recorder.detach()
            _dump_flight_record(
                spec, run, self.recorder, classification, detail
            )
        return RunOutcome(
            run.run_id,
            run.kind,
            run.target_path,
            run.window,
            classification,
            detail,
            activations=activations,
            detections=len(self.detections),
            sim_time=self.sim.time,
            spans_assembled=spans_assembled,
            span_mean_latency=span_mean_latency,
            recovery_events=recovery_events,
            recovery_latency=recovery_latency,
            score=score,
        )


def execute_run(
    spec: CampaignSpec,
    run: RunSpec,
    golden: GoldenReference,
) -> RunOutcome:
    """Classify one campaign run: from the golden reference when its
    fault provably never activates, else by building, infecting and
    running a fresh platform.

    The per-run wall-clock budget is enforced by an in-sim
    :class:`~repro.resilience.watchdog.RunWatchdog` — portable (no
    SIGALRM, works off the main thread) and composable with the stall
    supervision the resilience mode adds on top.
    """
    started = _time.perf_counter()
    outcome = _screen(spec, run, golden)
    if outcome is None:
        outcome = _simulate(spec, run, golden)
    outcome.wall_seconds = _time.perf_counter() - started
    return outcome


def _screen(
    spec: CampaignSpec, run: RunSpec, golden: GoldenReference
) -> "RunOutcome | None":
    """The fault-free outcome, relabelled for *run*, when its fault
    provably never activates; None when the run must simulate.

    Until its fault first activates, a faulty run is the golden run:
    same build, same observers, and an armed fault that changes
    nothing. Runs the trajectory cannot decide simulate, and so does
    every run of a flight-recording campaign, whose per-run event
    rings are the artifact it exists to produce.
    """
    trajectory = golden.trajectory
    if (
        trajectory is None
        or spec.flight_record_dir
        or (run.kind, run.target_path) not in trajectory.targets
    ):
        return None
    fault = make_fault(run.kind, run.target_path, run.window, **run.params)
    if fault.first_activation(trajectory, golden.horizon) is not None:
        return None
    # Every field but the score is immutable, so the relabelled outcome
    # shares them; only the telemetry score document is copied.
    template = golden.outcome
    score = template.score
    if score is not None:
        score = copy.deepcopy(score)
        score["label"] = run.label
    return RunOutcome(
        run.run_id,
        run.kind,
        run.target_path,
        run.window,
        template.classification,
        template.detail,
        activations=template.activations,
        detections=template.detections,
        wall_seconds=template.wall_seconds,
        sim_time=template.sim_time,
        spans_assembled=template.spans_assembled,
        span_mean_latency=template.span_mean_latency,
        recovery_events=template.recovery_events,
        recovery_latency=template.recovery_latency,
        score=score,
    )


def _simulate(
    spec: CampaignSpec, run: RunSpec, golden: GoldenReference
) -> RunOutcome:
    bundle = build_campaign_platform(spec)
    sim = bundle.handle.sim
    observers = _RunObservers(spec, bundle, run)
    watchdog = observers.watchdog
    fault = make_fault(run.kind, run.target_path, run.window, **run.params)
    classification = ERROR
    detail = ""
    try:
        fault.arm(sim)
        result = bundle.run(spec.max_time)
    except RefinementError as error:
        if watchdog.fired and watchdog.reason == "wall":
            classification = TIMEOUT
            detail = f"wall-clock budget of {spec.wall_timeout}s exhausted"
        else:
            # The deadlock watchdog: applications never finished.
            # Blocked guarded-method calls say who was starved.
            blocked = sim.blocked_processes()
            classification = DETECTED
            stuck = ", ".join(
                f"{b.client}->{b.method}" for b in blocked[:3]
            ) or str(error)
            label = (
                "stall watchdog"
                if watchdog.fired and watchdog.reason == "stall"
                else "deadlock watchdog"
            )
            detail = f"{label}: {stuck}"
    except ReproError as error:
        classification = DETECTED
        detail = f"{type(error).__name__}: {error}"
    except Exception as error:  # noqa: BLE001 - infrastructure failure
        classification = ERROR
        detail = f"{type(error).__name__}: {error}"
    else:
        image = bundle.memory.dump(0, spec.address_span // 4)
        classification, detail = observers.classify(
            result, image, golden, fault.activations
        )
    finally:
        watchdog.cancel()
    return observers.outcome(classification, detail, fault.activations)


def flight_record_path(directory: str, run_id: int) -> str:
    """The JSONL path one run's flight record dumps to."""
    import os

    return os.path.join(directory, f"run{run_id:03d}.jsonl")


def _dump_flight_record(
    spec: CampaignSpec,
    run: RunSpec,
    recorder,
    classification: str,
    detail: str,
) -> None:
    """Serialize one run's ring; best-effort (telemetry never fails a
    run over a full disk)."""
    import os

    try:
        os.makedirs(spec.flight_record_dir, exist_ok=True)
        recorder.dump(
            flight_record_path(spec.flight_record_dir, run.run_id),
            header={
                "run_id": run.run_id,
                "label": run.label,
                "campaign": spec.name,
                "platform": spec.platform,
                "classification": classification,
                "detail": detail,
            },
        )
    except OSError:
        pass


def classify_counts(outcomes: typing.Iterable[RunOutcome]) -> dict:
    counts = {c: 0 for c in CLASSIFICATIONS}
    for outcome in outcomes:
        counts[outcome.classification] += 1
    return counts


def detection_coverage(outcomes: typing.Iterable[RunOutcome]) -> float | None:
    """``detected / (detected + silent)``; ``None`` with no effective faults."""
    counts = classify_counts(outcomes)
    effective = counts[DETECTED] + counts[SILENT]
    if not effective:
        return None
    return counts[DETECTED] / effective
