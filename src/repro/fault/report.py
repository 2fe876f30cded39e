"""Campaign reporting: coverage table and JSON document."""

from __future__ import annotations

import json
import typing

from .campaign import (
    BENIGN,
    CLASSIFICATIONS,
    DETECTED,
    RECOVERED,
    SILENT,
    classify_counts,
    detection_coverage,
)
from .runner import CampaignResult


def recovery_rate(outcomes: typing.Iterable) -> float | None:
    """``recovered / (recovered + detected + silent)``.

    The fraction of effective faults the resilience stack absorbed;
    ``None`` when no fault had an effect (or resilience was off and
    nothing recovered).
    """
    counts = classify_counts(outcomes)
    effective = counts[RECOVERED] + counts[DETECTED] + counts[SILENT]
    if not effective:
        return None
    return counts[RECOVERED] / effective


def recovery_stats(outcomes: typing.Iterable) -> dict:
    """Aggregate recovery-event counts and latency over all outcomes."""
    events = 0
    latencies = []
    for outcome in outcomes:
        events += outcome.recovery_events
        if outcome.recovery_events and outcome.recovery_latency:
            latencies.append(outcome.recovery_latency)
    return {
        "recovery_events": events,
        "mean_recovery_latency": (
            int(sum(latencies) / len(latencies)) if latencies else 0
        ),
        "max_recovery_latency": max(latencies) if latencies else 0,
    }


def _format_table(
    headers: typing.Sequence[str], rows: typing.Sequence[typing.Sequence]
) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(row: typing.Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), rule, *(line(r) for r in cells)])


def merged_telemetry(result: CampaignResult):
    """All per-run scorecards folded into one campaign-level
    :class:`~repro.telemetry.scorecard.CellScore`.

    Digest merging is associative and commutative, so the campaign
    numbers are identical whether the runs executed serially or across
    a process pool — and outcomes are sorted by run id anyway.
    """
    from ..telemetry.scorecard import CellScore

    shards = [
        CellScore.from_dict(outcome.score)
        for outcome in result.outcomes
        if outcome.score
    ]
    if not shards:
        return None
    total = CellScore(
        shards[0].bus, shards[0].level, f"campaign:{result.spec.name}"
    )
    total.cycle_fs = shards[0].cycle_fs
    for shard in shards:
        total.merge(shard)
    return total


def per_kind_breakdown(result: CampaignResult) -> dict:
    """``{fault kind: {classification: count}}`` over all outcomes."""
    breakdown: dict = {}
    for outcome in result.outcomes:
        row = breakdown.setdefault(
            outcome.kind, {c: 0 for c in CLASSIFICATIONS}
        )
        row[outcome.classification] += 1
    return breakdown


def render_report(result: CampaignResult, verbose: bool = False) -> str:
    """Human-readable campaign report."""
    counts = classify_counts(result.outcomes)
    coverage = detection_coverage(result.outcomes)
    rate = recovery_rate(result.outcomes)
    rows = []
    for kind, row in sorted(per_kind_breakdown(result).items()):
        effective = row[DETECTED] + row[SILENT]
        kind_coverage = (
            f"{row[DETECTED] / effective:6.1%}" if effective else "   n/a"
        )
        rows.append(
            [kind, sum(row.values()), row[DETECTED], row[SILENT],
             row[BENIGN], row[RECOVERED], kind_coverage]
        )
    restarts = result.pool_restarts
    lines = [
        f"fault campaign {result.spec.name!r} "
        f"(platform={result.spec.platform}, seed={result.spec.seed})",
        f"  runs: {len(result.outcomes)}  workers: {result.workers}  "
        f"wall: {result.wall_seconds:.2f}s  "
        f"({result.runs_per_second:.1f} runs/s)"
        + (f"  pool restarts: {restarts}" if restarts else ""),
    ]
    if result.interrupted:
        lines.append(
            f"  INTERRUPTED: {len(result.outcomes)}/{result.planned_runs} "
            "runs completed before the interrupt; resume with "
            "--journal DIR --resume"
        )
    durable_bits = []
    if result.resumed:
        durable_bits.append(f"resumed {result.resumed} journaled outcomes")
    if result.serial_fallback_runs:
        durable_bits.append(
            f"serial fallback absorbed {result.serial_fallback_runs} runs"
        )
    if durable_bits:
        lines.append("  durability: " + ", ".join(durable_bits))
    lines += [
        "",
        _format_table(
            ["fault", "runs", "detected", "silent", "benign", "recovered",
             "coverage"],
            rows,
        ),
        "",
    ]
    summary = "  ".join(f"{c}={counts[c]}" for c in CLASSIFICATIONS)
    lines.append(f"totals: {summary}")
    if coverage is None:
        lines.append("detection coverage: n/a (no effective faults)")
    else:
        lines.append(
            f"detection coverage: {coverage:.1%} "
            f"({counts[DETECTED]}/{counts[DETECTED] + counts[SILENT]} "
            "effective faults detected)"
        )
    if result.spec.resilience:
        stats = recovery_stats(result.outcomes)
        rate_text = "n/a" if rate is None else f"{rate:.1%}"
        lines.append(
            f"recovery: {counts[RECOVERED]} runs absorbed "
            f"({rate_text} of effective faults), "
            f"{stats['recovery_events']} recovery events, "
            f"mean latency {stats['mean_recovery_latency']} fs"
        )
    telemetry = merged_telemetry(result)
    if telemetry is not None:
        fs_per_ns = 1_000_000
        latency = telemetry.latency
        lines.append(
            f"telemetry: {telemetry.transactions} txns over "
            f"{len([o for o in result.outcomes if o.score])} scored runs, "
            f"util {telemetry.utilization:.1%}, "
            f"{telemetry.throughput:.3f} beats/cyc, "
            f"latency p50/p95/p99 = "
            f"{latency.p50 / fs_per_ns:.0f}/"
            f"{latency.p95 / fs_per_ns:.0f}/"
            f"{latency.p99 / fs_per_ns:.0f} ns"
        )
    if verbose:
        lines.append("")
        lines.append(
            _format_table(
                ["run", "fault", "target", "class", "detail"],
                [
                    [
                        f"{o.run_id:03d}", o.kind, o.target_path,
                        o.classification, o.detail[:60],
                    ]
                    for o in result.outcomes
                ],
            )
        )
    return "\n".join(lines)


def report_as_dict(result: CampaignResult, canonical: bool = False) -> dict:
    """JSON-ready document of the whole campaign.

    :param canonical: drop every machine- and schedule-dependent field
        (wall clock, throughput, worker count, pool restarts, the resume
        counter, the interrupted flag; per-outcome wall times are
        zeroed). Two canonical documents are byte-identical iff the
        campaigns produced the same *content* — the contract the
        durability tests and CI smoke assert across serial, parallel
        and interrupted-then-resumed execution.
    """
    document = {
        "campaign": result.spec.name,
        "platform": result.spec.platform,
        "seed": result.spec.seed,
        "runs": len(result.outcomes),
        "classifications": classify_counts(result.outcomes),
        "detection_coverage": detection_coverage(result.outcomes),
        "resilience": result.spec.resilience,
        "recovery_rate": recovery_rate(result.outcomes),
        "recovery": recovery_stats(result.outcomes),
        "telemetry": (
            None if (merged := merged_telemetry(result)) is None
            else merged.to_dict()
        ),
        "per_kind": per_kind_breakdown(result),
        "golden": {
            "horizon": result.golden.horizon,
            "transactions": sum(
                len(t) for t in result.golden.traces.values()
            ),
        },
        "outcomes": [o.to_dict(canonical=canonical) for o in result.outcomes],
    }
    if not canonical:
        document.update({
            "workers": result.workers,
            "wall_seconds": round(result.wall_seconds, 4),
            "runs_per_second": round(result.runs_per_second, 3),
            "pool_restarts": result.pool_restarts,
            "interrupted": result.interrupted,
            "planned_runs": result.planned_runs,
            "resumed": result.resumed,
            "serial_fallback_runs": result.serial_fallback_runs,
            "content_hash": result.content_hash,
        })
    return document


def report_as_json(
    result: CampaignResult, indent: int = 2, canonical: bool = False
) -> str:
    return json.dumps(
        report_as_dict(result, canonical=canonical),
        indent=indent,
        sort_keys=canonical,
    )
