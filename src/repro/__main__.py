"""Command-line demo driver: ``python -m repro <command>``.

Commands:

* ``flow``        — run the Figure 2 design flow end to end.
* ``refine``      — the Figure 3 interface-swap comparison.
* ``matrix``      — the swap matrix: every bus family x abstraction
  level verified against the functional reference (``--fault-runs``).
* ``waveforms``   — simulate the synthesized PCI handler, dump a VCD and
  print ASCII waveforms (Figure 4).
* ``library``     — list the interface library contents.
* ``report``      — synthesize the example design and print the netlist
  report (add ``--verilog`` / ``--vhdl`` to print the generated HDL);
  ``report --matrix`` instead runs the telemetry-enabled swap matrix
  and prints the bus x level communication scorecard
  (``--format table|json|markdown``; ``--fault-runs N`` adds the
  per-fault-family detection table).
* ``telemetry``   — replay flight-recorder JSONL dumps into the
  timeline/JSON/Chrome renderers (``--tail``, ``--json``,
  ``--chrome``).
* ``lint``        — static design-rule checks over the example platforms
  (``--strict``, ``--suppress RULE[@GLOB]``, ``--list-rules``).
* ``fault``       — run a fault-injection campaign and print detection
  coverage (``--platform``, ``--runs``, ``--workers``, ``--json``;
  ``--journal DIR`` / ``--resume`` make campaigns crash-safe and
  resumable).
* ``profile``     — execute a script under the probe-bus profiler and
  print hot processes, method histograms and a Chrome trace
  (``--top``, ``--json``, ``--chrome-trace``).
* ``spans``       — causal transaction tracing: span trees with latency
  attribution and critical paths over a script, or a per-transaction
  cross-refinement diff (``--diff A B``, ``--json``, ``--chrome``).
* ``analyze``     — netlist dataflow analysis over a script's synthesis
  runs: driver conflicts, comb-loop levelization, FSM reachability,
  X-propagation and shared-state races (``--schedule``, ``--format``).
* ``compile``     — lower a script's synthesized netlists to the
  compiled fast-sim backend's generated Python (``--dump``,
  ``--check N`` cross-checks against the interpreted schedule,
  ``--yosys`` emits the logic-synthesis hand-off script).

Every command honours the global ``--seed``: repeated invocations with
the same seed are bit-identical.  Platform-building commands also take
``--bus {pci,wishbone,axi4lite,tlmgp}`` to swap the interface element
and ``--response-capacity N`` to size its response FIFO.
"""

from __future__ import annotations

import argparse
import sys

from .core import compare_refinement, default_library, generate_workload
from .flow import (
    BUS_FAMILIES,
    DesignFlow,
    PciPlatformConfig,
    build_platform,
    standard_flow_builders,
)
from .iface import IfaceParams
from .kernel import MS, NS
from .trace import VcdTracer, WaveformCapture, render


#: Seed used when the user does not pass ``--seed``.
DEFAULT_SEED = 11


def _effective_seed(args: argparse.Namespace) -> int:
    return args.seed if args.seed is not None else DEFAULT_SEED


def _default_workloads(seed: int, n_commands: int):
    return [generate_workload(seed=seed, n_commands=n_commands,
                              address_span=0x400, max_burst=4)]


def _platform_config(args: argparse.Namespace, **overrides):
    """A PciPlatformConfig honouring the global --response-capacity."""
    capacity = getattr(args, "response_capacity", None)
    if capacity is not None:
        overrides["params"] = IfaceParams(response_capacity=capacity)
    return PciPlatformConfig(**overrides)


def _effective_bus(args: argparse.Namespace) -> str:
    """The pin-level bus family selected by the global ``--bus``."""
    bus = getattr(args, "bus", None) or "pci"
    if bus == "functional":
        raise SystemExit(
            "error: --bus functional is the reference side; pick a "
            "pin-level or transaction family"
        )
    return bus


def _cmd_flow(args: argparse.Namespace) -> int:
    bus = _effective_bus(args)
    flow = DesignFlow(
        {"name": f"{bus}-device-under-design", "bus": bus},
        *standard_flow_builders(
            _default_workloads(_effective_seed(args), args.commands),
            _platform_config(args),
            bus=bus,
        ),
    )
    report = flow.run(200 * MS)
    print(report.summary())
    return 0 if report.succeeded else 1


def _cmd_refine(args: argparse.Namespace) -> int:
    workloads = _default_workloads(_effective_seed(args), args.commands)
    config = _platform_config(args)
    bus = _effective_bus(args)
    report = compare_refinement(
        lambda: build_platform(workloads, config, bus="functional").handle,
        lambda: build_platform(workloads, config, bus=bus).handle,
        max_time=200 * MS,
    )
    print(report.summary())
    return 0 if report.consistent else 1


def _add_fault_leg_arguments(parser: argparse.ArgumentParser) -> None:
    """``--fault-runs`` and ``--workers``, read by :func:`_swap_matrix`."""
    parser.add_argument("--fault-runs", type=int, default=0,
                        help="also run about this many demo fault-campaign "
                             "runs per bus family and report their "
                             "classifications (default 0 = skip)")
    parser.add_argument("--workers", type=int, default=0,
                        help="with --fault-runs: worker processes per "
                             "fault-leg campaign (0 = serial, the default; "
                             "REPRO_MAX_WORKERS caps any request; counts "
                             "are identical either way)")


def _swap_matrix(args: argparse.Namespace, telemetry: bool = False):
    """The swap matrix that ``matrix`` and ``report --matrix`` print:
    every family unless ``--bus`` names one, seed 55 unless ``--seed``
    is given."""
    from .fault.runner import resolve_workers
    from .iface.matrix import DEFAULT_BUSES, run_swap_matrix

    buses = DEFAULT_BUSES if args.bus is None else (_effective_bus(args),)
    return run_swap_matrix(
        seed=args.seed if args.seed is not None else 55,
        n_commands=args.commands,
        buses=buses,
        config=_platform_config(args),
        fault_runs=args.fault_runs,
        fault_workers=resolve_workers(args.workers)
        if args.fault_runs else 1,
        telemetry=telemetry,
    )


def _cmd_matrix(args: argparse.Namespace) -> int:
    report = _swap_matrix(args)
    print(report.render())
    return 0 if report.all_consistent else 1


def _cmd_waveforms(args: argparse.Namespace) -> int:
    from .core import CommandType

    if args.seed is not None:
        # Seeded mode: dump waveforms of a reproducible random workload
        # instead of the fixed Figure-4 command pair.
        commands = generate_workload(
            seed=args.seed, n_commands=4, address_span=0x400, max_burst=3
        )
    else:
        commands = [
            CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
            CommandType.read(0x100, count=3),
        ]
    if _effective_bus(args) != "pci":
        print("waveforms: the Figure 4 dump is PCI-specific; drop --bus")
        return 2
    bundle = build_platform(
        [commands], _platform_config(args, wait_states=1), bus="pci",
        synthesize=True,
    )
    sim = bundle.handle.sim
    capture = WaveformCapture()
    watched = [bundle.clock.clk] + bundle.bus.shared_signals()
    capture.add_signals(watched)
    sim.add_tracer(capture)
    vcd = VcdTracer(args.vcd)
    vcd.add_signals(watched)
    sim.add_tracer(vcd)
    bundle.run(10 * MS)
    vcd.close(sim.time)
    labels = {s.name: s.name.rsplit(".", 1)[-1] for s in watched}
    print(render(capture, [s.name for s in watched], 0, 2400 * NS, 15 * NS,
                 labels=labels, time_unit=30 * NS))
    print(f"\nwrote {args.vcd}")
    return 0


def _cmd_library(args: argparse.Namespace) -> int:
    library = default_library()
    for bus, abstraction in library.available():
        element = library.lookup(bus, abstraction)
        print(f"{bus:10s} {abstraction:14s} {element.__name__}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import cli as lint_cli

    # The global --seed (default None) shadows the subcommand default
    # in the shared namespace; resolve it before delegating.
    args.seed = _effective_seed(args)
    return lint_cli.run(args)


def _cmd_fault(args: argparse.Namespace) -> int:
    from .fault import cli as fault_cli

    return fault_cli.run(args)


def _cmd_profile(args: argparse.Namespace) -> int:
    from .instrument import cli as instrument_cli

    return instrument_cli.run(args)


def _cmd_spans(args: argparse.Namespace) -> int:
    from .trace import cli as trace_cli

    return trace_cli.run(args)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analyze import cli as analyze_cli

    return analyze_cli.run(args)


def _cmd_compile(args: argparse.Namespace) -> int:
    from .compile import cli as compile_cli

    return compile_cli.run(args)


def _cmd_report(args: argparse.Namespace) -> int:
    if args.matrix:
        return _cmd_report_matrix(args)
    bundle = build_platform(
        _default_workloads(_effective_seed(args), args.commands),
        _platform_config(args),
        bus=_effective_bus(args),
        synthesize=True,
    )
    synthesis = bundle.synthesis
    print(synthesis.report.render())
    if args.verilog:
        print()
        print(synthesis.all_verilog())
    if args.vhdl:
        print()
        print(synthesis.all_vhdl())
    return 0


def _cmd_report_matrix(args: argparse.Namespace) -> int:
    """``report --matrix``: the communication scorecard — the paper's
    exploitation loop made quantitative (utilization, throughput,
    latency quantiles per bus family x refinement level)."""
    import json

    matrix = _swap_matrix(args, telemetry=True)
    card = matrix.scorecard()
    if card is None:  # every cell errored before scoring
        print(matrix.render())
        return 1
    if args.format == "json":
        print(json.dumps(card.to_dict(), indent=2, sort_keys=True))
    elif args.format == "markdown":
        print(card.render_markdown())
    else:
        print(card.render())
        problems = [
            cell for cell in matrix.cells
            if cell.error is not None or not cell.consistent
        ]
        for cell in problems:
            print(f"\n-- {cell.bus}/{cell.level}: {cell.verdict} --")
            if cell.error is not None:
                print(f"  error: {cell.error}")
    return 0 if matrix.all_consistent else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import cli as telemetry_cli

    return telemetry_cli.run(args)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="High Level Communication Synthesis reproduction demos",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help=f"workload seed (default {DEFAULT_SEED}); "
                             "identical seeds reproduce identical runs")
    parser.add_argument("--commands", type=int, default=20,
                        help="commands per application (default 20)")
    parser.add_argument("--bus", choices=BUS_FAMILIES, default=None,
                        help="bus family for platform-building commands "
                             "(default pci; matrix sweeps all families "
                             "unless one is named)")
    parser.add_argument("--response-capacity", type=int, default=None,
                        help="interface-element response-FIFO depth "
                             "(default 4)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("flow", help="run the Figure 2 design flow")
    sub.add_parser("refine", help="Figure 3 interface-swap comparison")
    _add_fault_leg_arguments(
        sub.add_parser("matrix", help="run the bus x abstraction swap matrix")
    )
    waveforms = sub.add_parser("waveforms", help="Figure 4 waveform dump")
    waveforms.add_argument("--vcd", default="repro_waveforms.vcd",
                           help="output VCD path")
    sub.add_parser("library", help="list interface library contents")
    lint = sub.add_parser("lint", help="run the static design rules")
    from .lint import cli as lint_cli

    lint_cli.add_arguments(lint)
    report = sub.add_parser("report", help="print the synthesis report")
    report.add_argument("--verilog", action="store_true",
                        help="also print generated Verilog")
    report.add_argument("--vhdl", action="store_true",
                        help="also print generated VHDL")
    report.add_argument("--matrix", action="store_true",
                        help="run the telemetry-enabled swap matrix and "
                             "print the bus x level communication "
                             "scorecard instead")
    report.add_argument("--format", choices=("table", "json", "markdown"),
                        default="table",
                        help="scorecard output format for --matrix "
                             "(default table)")
    _add_fault_leg_arguments(report)
    fault = sub.add_parser("fault", help="run a fault-injection campaign")
    from .fault import cli as fault_cli

    fault_cli.add_arguments(fault)
    profile = sub.add_parser(
        "profile", help="profile a script under the probe bus"
    )
    from .instrument import cli as instrument_cli

    instrument_cli.add_arguments(profile)
    spans = sub.add_parser(
        "spans", help="causal transaction tracing and refinement diffs"
    )
    from .trace import cli as trace_cli

    trace_cli.add_arguments(spans)
    analyze = sub.add_parser(
        "analyze", help="netlist dataflow analysis over a script"
    )
    from .analyze import cli as analyze_cli

    analyze_cli.add_arguments(analyze)
    compile_parser = sub.add_parser(
        "compile", help="generate the compiled fast-sim backend's code"
    )
    from .compile import cli as compile_cli

    compile_cli.add_arguments(compile_parser)
    telemetry = sub.add_parser(
        "telemetry", help="replay flight-recorder JSONL dumps"
    )
    from .telemetry import cli as telemetry_cli

    telemetry_cli.add_arguments(telemetry)
    args = parser.parse_args(argv)
    handlers = {
        "flow": _cmd_flow,
        "refine": _cmd_refine,
        "matrix": _cmd_matrix,
        "waveforms": _cmd_waveforms,
        "library": _cmd_library,
        "lint": _cmd_lint,
        "report": _cmd_report,
        "fault": _cmd_fault,
        "profile": _cmd_profile,
        "spans": _cmd_spans,
        "analyze": _cmd_analyze,
        "compile": _cmd_compile,
        "telemetry": _cmd_telemetry,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
