"""``python -m repro fault`` — run a fault-injection campaign."""

from __future__ import annotations

import argparse
import sys

from ..errors import JournalError
from .report import render_report, report_as_json
from .runner import resolve_workers, run_campaign
from .spec import PLATFORMS, demo_campaign_spec


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--platform", choices=PLATFORMS, default="pci",
        help="platform to attack (default pci)",
    )
    parser.add_argument(
        "--runs", type=int, default=60,
        help="approximate campaign size (default 60)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: half the cores, capped at 8; "
             "0 = serial in-process; the REPRO_MAX_WORKERS environment "
             "variable is a hard ceiling over both)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-run wall-clock timeout in seconds (default 30)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full JSON report instead of the table",
    )
    parser.add_argument(
        "--canonical", action="store_true",
        help="with --json: emit only content fields (no wall clock, "
             "workers, resume counters), sorted keys — byte-identical "
             "across serial/parallel/resumed execution",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="list every run in the table report",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="also run the campaign lint rules (FLT001) before executing",
    )
    parser.add_argument(
        "--trace-spans", action="store_true",
        help="attach a span tracer to every run and report per-run "
             "span counts and mean latencies",
    )
    parser.add_argument(
        "--resilience", action="store_true",
        help="arm the recovery stack (guarded-call retry policies + "
             "protocol replay) on every run; faults the stack absorbs "
             "classify as 'recovered'",
    )
    parser.add_argument(
        "--synthesize", action="store_true",
        help="apply communication synthesis to every run's platform "
             "(golden and faulty alike)",
    )
    parser.add_argument(
        "--backend", choices=("interpreted", "compiled"),
        default="interpreted",
        help="execution backend for synthesized channels (compiled "
             "implies --synthesize; default interpreted)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="attach a communication scorecard probe to every run and "
             "report campaign-level utilization/throughput/latency "
             "digests (identical for serial and parallel execution)",
    )
    parser.add_argument(
        "--flight-record", metavar="DIR", default=None,
        help="dump every run's flight-recorder ring as "
             "DIR/run<NNN>.jsonl (replay with 'python -m repro "
             "telemetry')",
    )
    parser.add_argument(
        "--journal", metavar="DIR", default=None,
        help="keep a crash-safe journal of every outcome under DIR; "
             "an interrupted or killed campaign resumes with --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume the campaign journaled under --journal DIR: "
             "replay completed outcomes, re-run only missing and "
             "quarantined runs, append to the same journal",
    )
    parser.add_argument(
        "--inject-crash", metavar="IDS", default=None,
        help="chaos knob: comma-separated run ids whose workers "
             "hard-exit (exercises the self-healing pool, the journal "
             "and the resume path)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="render a live progress ticker (runs/s, ETA, "
             "classification breakdown, recovery rate) on stderr",
    )
    parser.add_argument(
        "--progress-json", metavar="PATH", default=None,
        help="mirror live campaign progress to PATH as JSON "
             "(rewritten on every tick; final state on completion)",
    )


def _build_monitor(args: argparse.Namespace):
    """A CampaignProgress wired to the ticker/JSON mirror, or None."""
    if not (args.live or args.progress_json):
        return None
    from ..telemetry.progress import CampaignProgress

    def on_tick(progress: CampaignProgress) -> None:
        if args.live:
            line = progress.render_ticker()
            if sys.stderr.isatty():
                sys.stderr.write("\r\x1b[2K" + line)
            else:
                sys.stderr.write(line + "\n")
            sys.stderr.flush()
        if args.progress_json:
            try:
                progress.write_json(args.progress_json)
            except OSError:
                pass

    return CampaignProgress(on_tick=on_tick)


def run(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 11
    synthesize = args.synthesize or args.backend == "compiled"
    if synthesize and args.platform == "functional":
        print(
            "fault: the functional platform has no clock to synthesize "
            "against; use --platform pci, wishbone, axi4lite or tlmgp"
        )
        return 2
    if args.resume and not args.journal:
        print("fault: --resume needs --journal DIR", file=sys.stderr)
        return 2
    spec = demo_campaign_spec(
        platform=args.platform, seed=seed, runs=args.runs
    )
    spec.wall_timeout = args.timeout
    spec.trace_spans = args.trace_spans
    spec.resilience = args.resilience
    spec.synthesize = synthesize
    spec.backend = args.backend
    spec.telemetry = args.telemetry
    spec.flight_record_dir = args.flight_record
    if args.inject_crash:
        try:
            spec.crash_run_ids = tuple(
                int(part) for part in args.inject_crash.split(",") if part
            )
        except ValueError:
            print(
                f"fault: --inject-crash wants comma-separated run ids, "
                f"got {args.inject_crash!r}",
                file=sys.stderr,
            )
            return 2
    if args.lint:
        from ..lint import lint_campaign

        report = lint_campaign(spec)
        print(report.render())
        if report.errors:
            return 1
    workers = resolve_workers(args.workers)
    monitor = _build_monitor(args)
    try:
        result = run_campaign(
            spec,
            workers=workers,
            max_runs=args.runs,
            monitor=monitor,
            journal_dir=None if args.resume else args.journal,
            resume_from=args.journal if args.resume else None,
        )
    except JournalError as error:
        print(f"fault: {error}", file=sys.stderr)
        return 2
    if monitor is not None and args.live and sys.stderr.isatty():
        sys.stderr.write("\n")
    if args.json:
        print(report_as_json(result, canonical=args.canonical))
    else:
        print(render_report(result, verbose=args.verbose))
        if args.flight_record:
            print(f"\nflight records: {args.flight_record}/run*.jsonl "
                  "(replay with 'python -m repro telemetry <file>')")
    if result.interrupted:
        # The partial report above is real; the exit code still says
        # "cut short" the way shells expect (128 + SIGINT).
        return 130
    if any(
        o.classification in ("error", "worker_error")
        for o in result.outcomes
    ):
        return 1
    return 0
