"""``python -m repro profile`` — profile a script's simulation runs.

Executes an arbitrary Python script (typically one of the examples)
with a process-wide probe bus installed, so every :class:`Simulator`
the script creates is instrumented without the script changing a line.
Afterwards it prints the hot-process table and the per-method traffic
histograms, and writes a Chrome-trace JSON loadable in
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import argparse
import json

from ..script_runner import add_script_arguments, run_script
from .metrics import MethodMetrics, MetricsCollector
from .probes import ProbeBus, set_default_bus
from .profiler import MAX_TRACE_EVENTS, WallClockProfiler

#: Femtoseconds per nanosecond, for human-readable method timings.
_FS_PER_NS = 1_000_000


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows per table (default 10)",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="also write the full report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--chrome-trace", dest="chrome_trace", metavar="PATH",
        default="repro_profile_trace.json",
        help="Chrome trace-event output path (default "
             "repro_profile_trace.json; 'none' disables)",
    )
    add_script_arguments(
        parser,
        "Python script to execute under the profiler "
        "(e.g. examples/pci_system.py)",
        "suppress the profiled script's stdout",
    )
    parser.add_argument(
        "--max-trace-events", type=int, default=MAX_TRACE_EVENTS,
        metavar="N",
        help="Chrome-trace slices kept before truncation "
             f"(default {MAX_TRACE_EVENTS}; truncation is always "
             "reported, never silent)",
    )


def _method_table(rows: list[MethodMetrics], top: int) -> str:
    lines = [
        "guarded-method traffic",
        f"  {'channel.method':<44} {'calls':>6} {'queued':>6} "
        f"{'wait ns':>9} {'svc ns':>9} {'total ns':>9} "
        f"{'p50 ns':>8} {'p95 ns':>8} {'p99 ns':>8}",
    ]
    for record in rows[:top]:
        total = record.total_times
        lines.append(
            f"  {record.key:<44} {record.calls:>6} {record.queued:>6} "
            f"{record.wait_times.mean / _FS_PER_NS:>9.1f} "
            f"{record.service_times.mean / _FS_PER_NS:>9.1f} "
            f"{total.mean / _FS_PER_NS:>9.1f} "
            f"{total.quantile(0.5) / _FS_PER_NS:>8.1f} "
            f"{total.quantile(0.95) / _FS_PER_NS:>8.1f} "
            f"{total.quantile(0.99) / _FS_PER_NS:>8.1f}"
        )
    if len(rows) > top:
        lines.append(f"  ... and {len(rows) - top} more")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    bus = ProbeBus()
    metrics = MetricsCollector().attach(bus)
    profiler = WallClockProfiler(
        max_trace_events=args.max_trace_events
    ).attach(bus)
    previous = set_default_bus(bus)
    try:
        run_script(args)
    finally:
        set_default_bus(previous)
    report = profiler.report()

    print()
    print(f"== profile: {args.script} ==")
    print(report.render(args.top))
    print()
    summary = metrics.to_dict()
    print(
        f"events notified: {metrics.events_notified}, "
        f"signal commits: {metrics.signal_commits.total}, "
        f"transactions: {metrics.transactions.total}, "
        f"detections: {metrics.detections}"
    )
    method_rows = metrics.method_rows()
    if method_rows:
        print()
        print(_method_table(method_rows, args.top))
    if metrics.flow_stages:
        print()
        print("flow stages")
        for name, status, seconds in metrics.flow_stages:
            print(f"  [{status:>4}] {name} ({seconds:.3f}s)")

    if args.chrome_trace and args.chrome_trace != "none":
        report.write_chrome_trace(args.chrome_trace)
        truncated = (
            f", {report.dropped_events} dropped past the "
            f"{report.max_trace_events}-slice cap"
            if report.dropped_events else ""
        )
        print(f"\nwrote chrome trace: {args.chrome_trace} "
              f"({len(report.trace_events)} slices{truncated})")

    if args.json_path:
        payload = json.dumps(
            {
                "script": args.script,
                "profile": report.to_dict(),
                "metrics": summary,
            },
            indent=2,
        )
        if args.json_path == "-":
            print(payload)
        else:
            with open(args.json_path, "w") as handle:
                handle.write(payload)
            print(f"wrote json report: {args.json_path}")
    return 0
