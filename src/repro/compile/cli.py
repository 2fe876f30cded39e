"""``python -m repro compile`` — lower a script's netlists to code.

Executes an arbitrary Python script (typically an example platform)
with a process-wide synthesis sink installed — the same capture trick
as ``python -m repro analyze`` — and pushes every synthesized channel
netlist through the :mod:`repro.compile` code generator. The default
output is a per-module stats table; ``--dump`` prints the generated
Python source, ``--check N`` cross-checks the generated combinational
code against :meth:`~repro.analyze.schedule.EvalSchedule.evaluate` on
*N* seeded random vectors per module (exit 1 on any mismatch), and
``--yosys`` emits the Yosys hand-off script for the same netlists'
Verilog.
"""

from __future__ import annotations

import argparse
import typing

from ..core.workload import _Lcg
from ..script_runner import add_script_arguments, run_script
from ..synthesis.tool import set_synthesis_sink
from .codegen import CodegenError, CompiledNetlist, compile_module
from .yosys import emit_yosys_script

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analyze.schedule import EvalSchedule
    from ..kernel.simulator import Simulator
    from ..synthesis.tool import SynthesisResult


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dump", action="store_true",
        help="print the generated Python source of every netlist",
    )
    parser.add_argument(
        "--check", type=int, default=0, metavar="N",
        help="cross-check the generated code against the interpreted "
             "EvalSchedule on N seeded random vectors per module",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the output to FILE instead of stdout",
    )
    parser.add_argument(
        "--yosys", action="store_true",
        help="also emit the Yosys synthesis script for the netlists' "
             "generated Verilog",
    )
    add_script_arguments(
        parser,
        "Python script to execute under the compiler "
        "(e.g. examples/pci_system.py)",
        "suppress the compiled script's stdout",
    )


def _cross_check(
    schedule: "EvalSchedule", netlist: CompiledNetlist, vectors: int,
    seed: int,
) -> "tuple[int, str | None]":
    """Compare ``netlist.comb`` with the levelized interpreter on
    seeded random boundary vectors; ``(checked, first_mismatch)``."""
    boundary = sorted(schedule.boundary_nets(), key=lambda net: net.name)
    rng = _Lcg(seed ^ 0x5EED)
    for _ in range(vectors):
        env = {
            net.name: rng.next_int(1 << min(net.width, 30))
            for net in boundary
        }
        expected = schedule.evaluate(env)
        got = netlist.comb(env)
        if got != expected:
            diverging = sorted(
                name for name in expected
                if got.get(name) != expected[name]
            )
            return 0, (
                f"mismatch on nets {', '.join(diverging[:5])} "
                f"(env={env!r})"
            )
    return vectors, None


def run(args: argparse.Namespace) -> int:
    captured: "list[tuple[Simulator, SynthesisResult]]" = []
    previous = set_synthesis_sink(
        lambda sim, result: captured.append((sim, result))
    )
    try:
        run_script(args)
    finally:
        set_synthesis_sink(previous)

    if not captured:
        print(
            f"compile: {args.script} performed no communication synthesis "
            "(nothing to compile)"
        )
        return 2

    seed = getattr(args, "seed", None)
    seed = seed if seed is not None else 11
    lines: list[str] = []
    failed = False
    for run_index, (__, result) in enumerate(captured):
        for group in result.groups:
            analysis = group.analyses[0]  # the channel netlist
            module = analysis.module
            label = f"run{run_index}/{module.name}"
            try:
                netlist = compile_module(analysis)
            except CodegenError as error:
                lines.append(f"{label}: CODEGEN FAILED: {error}")
                failed = True
                continue
            stats = netlist.stats
            lines.append(
                f"{label}: {stats['comb_steps']} comb steps in "
                f"{stats['levels']} levels, "
                f"{len(netlist.register_names)} registers, "
                f"{stats['source_lines']} generated lines"
            )
            if args.check:
                # compile_module succeeded, so the netlist levelized.
                checked, mismatch = _cross_check(
                    analysis.schedule, netlist, args.check, seed
                )
                if mismatch is None:
                    lines.append(
                        f"  check: {checked} random vectors equal to the "
                        "interpreted schedule"
                    )
                else:
                    lines.append(f"  check: FAILED: {mismatch}")
                    failed = True
            if args.dump:
                lines.append("")
                lines.extend(netlist.source.splitlines())
                lines.append("")
            if args.yosys:
                lines.append("")
                lines.append(f"# yosys script for {module.name}.v")
                lines.extend(
                    emit_yosys_script(
                        [f"{module.name}.v"], module.name,
                        output=f"{module.name}_synth.v",
                    ).splitlines()
                )
                lines.append("")

    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 1 if failed else 0

