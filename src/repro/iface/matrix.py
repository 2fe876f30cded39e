"""The swap matrix: one application, every bus, every abstraction.

The paper's closing claim is that a *library* of interface elements
makes communication refinement a drop-in swap: keep the application,
replace the interface IP, re-simulate, check behaviour consistency.
:func:`run_swap_matrix` executes that claim as a matrix sweep — the
same seeded workload is run once on the functional reference platform,
then on every ``bus × level`` cell, and each cell is verified three
ways against the reference:

* **memory image** — the golden write-stream image must match;
* **application traces** — per-application observable records compared
  with :func:`~repro.verify.consistency.check_traces`;
* **per-transaction spans** — span forests correlated by corr_id via
  :func:`~repro.trace.correlate.correlate`, giving one CONSISTENT /
  MISMATCH verdict per transaction.

With ``telemetry=True`` every run (reference and cells) additionally
carries a :class:`~repro.telemetry.scorecard.ScorecardProbe`, so the
sweep yields quantitative communication gauges next to the yes/no
verdicts — the scorecard ``python -m repro report --matrix`` renders.

An optional fault leg runs the stock demo campaign per bus family so
the matrix also spans the fault-classification machinery.
"""

from __future__ import annotations

import typing

from ..kernel.simtime import MS, NS

#: Cell refinement levels: the behavioural element, the synthesized
#: channel on the interpreted backend, and the compiled fast-sim core.
LEVELS = ("functional", "synthesized", "compiled")

#: Bus families swept by default (the functional family is the
#: reference side, not a cell).
DEFAULT_BUSES = ("pci", "wishbone", "axi4lite", "tlmgp")


class MatrixCell:
    """One ``bus × level`` run verified against the reference."""

    def __init__(self, bus: str, level: str, label: str) -> None:
        self.bus = bus
        self.level = level
        self.label = label
        self.consistent: bool | None = None
        self.transactions = 0
        self.signature_matches = 0
        self.mismatches: list[str] = []
        self.error: str | None = None
        self.sim_time = 0
        self.wall_seconds = 0.0
        #: Communication gauges (telemetry-enabled sweeps only).
        self.score = None

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "ERROR"
        if self.consistent:
            return "CONSISTENT"
        return "MISMATCH"

    def cell_text(self) -> str:
        if self.error is not None:
            return "ERROR"
        return (
            f"{self.verdict}({self.signature_matches}/{self.transactions})"
        )

    def to_dict(self) -> dict:
        return {
            "bus": self.bus,
            "level": self.level,
            "label": self.label,
            "verdict": self.verdict,
            "transactions": self.transactions,
            "signature_matches": self.signature_matches,
            "mismatches": list(self.mismatches),
            "error": self.error,
            "sim_time": self.sim_time,
            "wall_seconds": self.wall_seconds,
            "score": None if self.score is None else self.score.to_dict(),
        }

    def __repr__(self) -> str:
        return f"MatrixCell({self.bus}/{self.level}: {self.verdict})"


class SwapMatrixReport:
    """Every cell of one sweep, plus the optional fault leg."""

    def __init__(
        self,
        seed: int,
        n_commands: int,
        buses: typing.Sequence[str],
        levels: typing.Sequence[str],
    ) -> None:
        self.seed = seed
        self.n_commands = n_commands
        self.buses = tuple(buses)
        self.levels = tuple(levels)
        self.cells: list[MatrixCell] = []
        #: bus family -> fault classification counts (fault leg only).
        self.fault_counts: dict[str, dict[str, int]] = {}
        #: bus family -> fault kind -> classification counts, the
        #: per-family detection breakdown the scorecard renders.
        self.fault_families: dict[str, dict[str, dict[str, int]]] = {}
        #: The functional reference run's gauges (telemetry sweeps only).
        self.reference_score = None

    @property
    def all_consistent(self) -> bool:
        return all(
            cell.error is None and cell.consistent for cell in self.cells
        )

    def cell(self, bus: str, level: str) -> "MatrixCell | None":
        for cell in self.cells:
            if cell.bus == bus and cell.level == level:
                return cell
        return None

    def scorecard(self):
        """The sweep's :class:`~repro.telemetry.scorecard
        .MatrixScorecard`, or ``None`` for telemetry-off sweeps."""
        from ..telemetry.scorecard import MatrixScorecard

        return MatrixScorecard.from_matrix(self)

    def render(self) -> str:
        width = max(
            (len(cell.cell_text()) for cell in self.cells), default=10
        )
        width = max(width, max(len(level) for level in self.levels))
        bus_width = max([len("bus")] + [len(b) for b in self.buses])
        lines = [
            f"== swap matrix: seed {self.seed}, "
            f"{self.n_commands} commands ==",
            "",
            f"{'bus':<{bus_width}}  "
            + "  ".join(f"{level:<{width}}" for level in self.levels),
        ]
        for bus in self.buses:
            row = [f"{bus:<{bus_width}}"]
            for level in self.levels:
                cell = self.cell(bus, level)
                row.append(f"{cell.cell_text() if cell else '-':<{width}}")
            lines.append("  ".join(row))
        problems = [
            cell for cell in self.cells
            if cell.error is not None or not cell.consistent
        ]
        for cell in problems:
            lines.append("")
            lines.append(f"-- {cell.bus}/{cell.level}: {cell.verdict} --")
            if cell.error is not None:
                lines.append(f"  error: {cell.error}")
            lines.extend(f"  mismatch: {m}" for m in cell.mismatches[:5])
            if len(cell.mismatches) > 5:
                lines.append(f"  (+{len(cell.mismatches) - 5} more)")
        if self.fault_counts:
            lines.append("")
            lines.append("-- fault leg (demo campaign per bus) --")
            for bus, counts in sorted(self.fault_counts.items()):
                shown = ", ".join(
                    f"{k}={v}" for k, v in sorted(counts.items()) if v
                )
                lines.append(f"{bus:<{bus_width}}  {shown}")
                for family, row in sorted(
                    self.fault_families.get(bus, {}).items()
                ):
                    detected = row.get("detected", 0)
                    effective = detected + row.get("silent", 0)
                    coverage = (
                        f"{detected / effective:.0%}" if effective else "n/a"
                    )
                    shown = ", ".join(
                        f"{k}={v}" for k, v in sorted(row.items()) if v
                    )
                    lines.append(
                        f"{'':<{bus_width}}    {family}: {shown} "
                        f"(coverage {coverage})"
                    )
        lines.append("")
        status = "ALL CONSISTENT" if self.all_consistent else "FAILURES"
        lines.append(f"{len(self.cells)} cells: {status}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_commands": self.n_commands,
            "buses": list(self.buses),
            "levels": list(self.levels),
            "all_consistent": self.all_consistent,
            "cells": [cell.to_dict() for cell in self.cells],
            "fault_counts": {
                bus: dict(counts)
                for bus, counts in self.fault_counts.items()
            },
            "fault_families": {
                bus: {kind: dict(row) for kind, row in families.items()}
                for bus, families in self.fault_families.items()
            },
            "scorecard": (
                None if (card := self.scorecard()) is None
                else card.to_dict()
            ),
        }


def _matrix_workload(seed: int, n_commands: int) -> list:
    from ..core.workload import generate_workload

    return generate_workload(
        seed=seed,
        n_commands=n_commands,
        address_span=0x400,
        max_burst=4,
        partial_byte_enable_fraction=0.2,
    )


def _traced_run(bundle, max_time: int, cycle_fs: int = 0,
                telemetry: bool = False):
    """Run a bundle with a SpanTracer (and, for telemetry sweeps, a
    ScorecardProbe) attached; returns ``(tracer, result, probe-or-None)``.

    The tracer records spans only: verification correlates spans, and
    nothing in a matrix reads causal edges."""
    from ..trace.spans import SpanTracer

    probe = None
    if telemetry:
        from ..telemetry.scorecard import ScorecardProbe

        probe = ScorecardProbe(cycle_fs).attach(bundle.handle.sim.probes)
    tracer = SpanTracer(causal=False).attach(bundle.handle.sim.probes)
    result = bundle.run(max_time)
    tracer.finalize()
    return tracer, result, probe


def _verify_cell(
    cell: MatrixCell,
    bundle,
    tracer,
    result,
    reference,
    golden_image: list,
) -> None:
    """Fill *cell* with the three-way comparison against the reference."""
    from ..trace.correlate import correlate
    from ..verify.consistency import check_traces

    ref_tracer, ref_result, __ = reference
    trace_report = check_traces(
        ref_result.traces, result.traces, "functional", cell.label
    )
    diff = correlate(ref_tracer, tracer, "functional", cell.label)
    cell.transactions = len(diff.entries)
    cell.signature_matches = sum(
        1 for entry in diff.entries if entry.signature_match
    )
    cell.mismatches = list(trace_report.mismatches)
    cell.mismatches.extend(diff.report.mismatches)
    actual = bundle.memory.dump(0, len(golden_image))
    if list(actual) != list(golden_image):
        differing = sum(
            1 for want, got in zip(golden_image, actual) if want != got
        )
        cell.mismatches.append(
            f"memory image differs in {differing} words"
        )
    cell.consistent = not cell.mismatches
    cell.sim_time = result.sim_time


def run_swap_matrix(
    seed: int = 55,
    n_commands: int = 25,
    buses: typing.Sequence[str] = DEFAULT_BUSES,
    levels: typing.Sequence[str] = LEVELS,
    config=None,
    max_time: int = 200 * MS,
    fault_runs: int = 0,
    fault_workers: int = 1,
    telemetry: bool = False,
) -> SwapMatrixReport:
    """Sweep ``bus × level`` over one workload; verify every cell.

    :param config: optional
        :class:`~repro.flow.platforms.PciPlatformConfig` shared by the
        reference and every cell.
    :param fault_runs: when > 0, additionally run the stock demo fault
        campaign (scaled to about this many runs) once per bus family
        and record the classification counts plus the per-fault-family
        detection breakdown.
    :param fault_workers: worker processes per fault-leg campaign
        (1 = serial; the counts are identical either way).
    :param telemetry: attach a
        :class:`~repro.telemetry.scorecard.ScorecardProbe` to the
        reference and every cell, populating ``cell.score`` /
        ``report.reference_score`` and enabling
        :meth:`SwapMatrixReport.scorecard`.
    """
    import time as _time

    from ..core.workload import expected_memory_image
    from ..flow.platforms import PciPlatformConfig, build_platform

    workload = _matrix_workload(seed, n_commands)
    golden_image = expected_memory_image(workload, 0x400 // 4)
    report = SwapMatrixReport(seed, n_commands, buses, levels)
    # One clock basis for every cell so beats/cycle compares across
    # families (the functional reference has no wires, let alone a
    # clock of its own).
    cycle_fs = config.clock_period if config is not None else 30 * NS
    cell_config = config or PciPlatformConfig()

    ref_bundle = build_platform([workload], config, bus="functional")
    reference = _traced_run(
        ref_bundle, max_time, cycle_fs, telemetry=telemetry
    )
    if reference[2] is not None:
        report.reference_score = reference[2].score(
            "functional", "functional", "functional_reference"
        )

    for bus in report.buses:
        for level in report.levels:
            label = f"{bus}_{level}"
            cell = MatrixCell(bus, level, label)
            report.cells.append(cell)
            started = _time.perf_counter()
            try:
                bundle = build_platform(
                    [workload],
                    cell_config.with_backend(
                        "compiled" if level == "compiled" else "interpreted"
                    ),
                    bus=bus,
                    synthesize=level != "functional",
                    label=label,
                )
                tracer, result, probe = _traced_run(
                    bundle, max_time, cycle_fs, telemetry=telemetry
                )
                _verify_cell(
                    cell, bundle, tracer, result, reference, golden_image
                )
                if probe is not None:
                    cell.score = probe.score(bus, level, label)
            except Exception as exc:  # keep sweeping; report the cell
                cell.error = f"{type(exc).__name__}: {exc}"
                cell.consistent = False
            cell.wall_seconds = _time.perf_counter() - started

    if fault_runs > 0:
        report.fault_counts, report.fault_families = _fault_leg(
            report.buses, seed, fault_runs, workers=fault_workers
        )
    return report


def _fault_leg(
    buses: typing.Sequence[str],
    seed: int,
    runs: int,
    workers: int = 1,
) -> tuple[dict[str, dict[str, int]], dict[str, dict[str, dict[str, int]]]]:
    """Run the demo campaign per bus; returns ``(classification counts,
    per-fault-family breakdown)``, both keyed by bus family."""
    from collections import Counter

    from ..fault import demo_campaign_spec, per_kind_breakdown, run_campaign

    counts: dict[str, dict[str, int]] = {}
    families: dict[str, dict[str, dict[str, int]]] = {}
    for bus in buses:
        spec = demo_campaign_spec(platform=bus, seed=seed, runs=runs)
        result = run_campaign(spec, workers=workers)
        counts[bus] = dict(
            Counter(outcome.classification for outcome in result.outcomes)
        )
        families[bus] = {
            kind: {c: n for c, n in row.items() if n}
            for kind, row in per_kind_breakdown(result).items()
        }
    return counts, families
