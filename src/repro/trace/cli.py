"""``python -m repro spans`` — causal transaction tracing.

Two modes:

* **Script mode** (``spans examples/pci_system.py``): executes a script
  with a process-wide probe bus installed (same mechanism as ``profile``)
  and a :class:`~repro.trace.spans.SpanTracer` attached, then prints the
  assembled transaction count, the latency-attribution table and the
  critical path, optionally writing a Chrome trace of the span forest.

* **Diff mode** (``spans --diff pin_accurate post_synthesis``): builds
  two refinement levels of the canonical platform over the *same*
  generated workload, traces both, and prints the per-transaction
  consistency + latency diff (:mod:`repro.trace.correlate`). The bus
  family follows the global ``--bus`` flag (default pci), so
  cross-refinement diffing works for wishbone/axi4lite/tlmgp too.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..instrument.probes import ProbeBus, set_default_bus
from ..instrument.profiler import write_chrome_trace
from ..script_runner import add_script_arguments, run_script
from .attribution import attribute
from .correlate import SpanDiff, correlate
from .spans import SpanTracer, critical_path

#: Refinement levels ``--diff`` understands, mapped to builders lazily
#: (flow imports pull in the whole platform stack).
DIFF_LEVELS = ("functional", "pin_accurate", "post_synthesis")

#: Acceptance workload for cross-refinement diffs (EXP-SYN: the same
#: workload bench_synthesis_consistency uses).
DIFF_SEED = 55
DIFF_COMMANDS = 25


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), choices=DIFF_LEVELS,
        default=None,
        help="correlate two refinement levels over the same workload "
             f"(levels: {', '.join(DIFF_LEVELS)})",
    )
    parser.add_argument(
        "--n-commands", type=int, default=DIFF_COMMANDS, metavar="N",
        help=f"workload length for --diff (default {DIFF_COMMANDS})",
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows per table (default 10)",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the full span report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--chrome", dest="chrome_path", metavar="PATH", default=None,
        help="write the span forest as a Chrome trace-event file",
    )
    parser.add_argument(
        "--no-causal", action="store_true",
        help="skip notify->wake edge recording (no critical path)",
    )
    add_script_arguments(
        parser,
        "Python script to trace (e.g. examples/pci_system.py); "
        "omit when using --diff",
        "suppress the traced script's stdout",
        optional=True,
    )


def _diff_workload(args: argparse.Namespace) -> list:
    from ..core.workload import generate_workload

    seed = args.seed if getattr(args, "seed", None) is not None else DIFF_SEED
    return generate_workload(
        seed=seed,
        n_commands=args.n_commands,
        address_span=0x400,
        max_burst=4,
        partial_byte_enable_fraction=0.2,
    )


def trace_level(level: str, workload: list, causal: bool = True,
                bus: str = "pci"):
    """Build one refinement level, run it traced, return the tracer.

    :param bus: pin-level family for the ``pin_accurate`` /
        ``post_synthesis`` levels (``functional`` is always the
        behavioural reference element).
    :returns: ``(tracer, run_result)``; the tracer is finalized.
    """
    from ..flow.platforms import build_platform
    from ..kernel.simtime import MS

    if level == "functional":
        bundle = build_platform([workload], bus="functional")
        max_time = 100 * MS
    elif level == "pin_accurate":
        bundle = build_platform([workload], bus=bus)
        max_time = 100 * MS
    elif level == "post_synthesis":
        bundle = build_platform([workload], bus=bus, synthesize=True)
        max_time = 200 * MS
    else:
        raise ValueError(f"unknown refinement level {level!r}")
    tracer = SpanTracer(causal=causal).attach(bundle.handle.sim.probes)
    result = bundle.run(max_time)
    tracer.finalize()
    return tracer, result


def diff_levels(
    level_a: str,
    level_b: str,
    workload: list,
    bus: str = "pci",
) -> "tuple[SpanDiff, SpanTracer, SpanTracer]":
    """Trace both levels over *workload* and correlate the span forests."""
    tracer_a, _ = trace_level(level_a, workload, bus=bus)
    tracer_b, _ = trace_level(level_b, workload, bus=bus)
    return correlate(tracer_a, tracer_b, level_a, level_b), tracer_a, tracer_b


def _run_diff(args: argparse.Namespace) -> int:
    level_a, level_b = args.diff
    # The global --bus flag (parsed by __main__) selects the family;
    # default to pci for direct/legacy invocations of this module.
    bus = getattr(args, "bus", None) or "pci"
    if bus == "functional":
        print("spans: --bus functional is the reference side; pick a "
              "pin-level or transaction family", file=sys.stderr)
        return 2
    workload = _diff_workload(args)
    diff, tracer_a, tracer_b = diff_levels(level_a, level_b, workload, bus)

    print(f"== spans diff: {level_a} vs {level_b} "
          f"(bus {bus}, {len(workload)} commands) ==")
    for level, tracer in ((level_a, tracer_a), (level_b, tracer_b)):
        report = attribute(tracer)
        print()
        print(f"-- {level}: {len(report)} transactions, "
              f"mean latency {report.mean_latency:.0f} fs --")
        print(report.render(args.top))
    print()
    print(diff.render(args.top))

    if args.chrome_path:
        write_chrome_trace(args.chrome_path, tracer_b.chrome_events())
        print(f"\nwrote chrome trace ({level_b}): {args.chrome_path}")
    if args.json_path:
        payload = json.dumps(
            {
                "diff": diff.to_dict(),
                "attribution_a": attribute(tracer_a).to_dict(),
                "attribution_b": attribute(tracer_b).to_dict(),
            },
            indent=2,
        )
        _emit_json(args.json_path, payload)
    return 0 if diff.consistent else 1


def _run_script_mode(args: argparse.Namespace) -> int:
    bus = ProbeBus()
    tracer = SpanTracer(causal=not args.no_causal).attach(bus)
    previous = set_default_bus(bus)
    try:
        run_script(args)
    finally:
        set_default_bus(previous)
    tracer.finalize()
    report = attribute(tracer)
    path = critical_path(tracer)

    print()
    print(f"== spans: {args.script} ==")
    print(f"{len(tracer.roots)} transactions assembled "
          f"({len(report)} complete), {len(tracer.orphans)} orphan spans, "
          f"{len(tracer.activations)} causal edges")
    if report.transactions:
        print()
        print(report.render(args.top))
    if not args.no_causal:
        print()
        print(path.render())

    if args.chrome_path:
        events = tracer.chrome_events()
        write_chrome_trace(args.chrome_path, events)
        print(f"\nwrote chrome trace: {args.chrome_path} "
              f"({len(events)} slices)")
    if args.json_path:
        payload = json.dumps(
            {
                "script": args.script,
                "spans": tracer.to_dict(),
                "attribution": report.to_dict(),
                "critical_path": path.to_dict(),
            },
            indent=2,
        )
        _emit_json(args.json_path, payload)
    return 0


def _emit_json(path: str, payload: str) -> None:
    if path == "-":
        print(payload)
    else:
        with open(path, "w") as handle:
            handle.write(payload)
        print(f"wrote json report: {path}")


def run(args: argparse.Namespace) -> int:
    if args.diff is not None:
        return _run_diff(args)
    if args.script is None:
        print("spans: a script path or --diff A B is required",
              file=sys.stderr)
        return 2
    return _run_script_mode(args)
